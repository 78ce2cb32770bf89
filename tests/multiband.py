"""Four-band models: two QWZ layers coupled by t times the identity.

Both layers of `layered_qwz(mirrored=False)` are the default qwz h(k), so its
two filled bands carry C = 2. With `mirrored=True` the second layer is
h(-k)*, the time reverse of the first, and the filled pair carries C = 0.
Each model is built from the public `BlochModel`, and each is gapped at
mu = 0 (gap about 1.4 for t = 0.3).
"""

import numpy as np

import mixedtopo as mt

COUPLING = 0.3


def layered_qwz(mirrored: bool, coupling: float = COUPLING) -> mt.BlochModel:
    qwz = mt.qwz_model()

    def evaluate(kx, ky):
        h = qwz.matrix(kx, ky)
        second = qwz.matrix(-kx, -ky).conj() if mirrored else h
        out = np.zeros(h.shape[:-2] + (4, 4), dtype=complex)
        out[..., :2, :2], out[..., 2:, 2:] = h, second
        out[..., :2, 2:] = out[..., 2:, :2] = coupling * np.eye(2)
        return out

    return mt.BlochModel(p=4, evaluator=evaluate,
                         name="layered_qwz_mirrored" if mirrored else "layered_qwz")
