import sys

import numpy as np
import pytest
from hypothesis import settings

import mixedtopo as mt

settings.register_profile("default", deadline=None, max_examples=25)
settings.load_profile("default")


@pytest.fixture(scope="session")
def qwz():
    return mt.qwz_model()


@pytest.fixture(scope="session")
def atomic():
    return mt.atomic_model()


@pytest.fixture(scope="session")
def qwz_gap(qwz):
    return mt.band_gap(qwz, mt.MomentumGrid(64, 64), 0.0)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def _rebind_eigh(monkeypatch, replacement):
    """Put `replacement` in place of `mixedtopo.model._eigh` in every module binding it."""
    original = mt.model._eigh
    for name, module in list(sys.modules.items()):
        if name.startswith("mixedtopo") and getattr(module, "_eigh", None) is original:
            monkeypatch.setattr(module, "_eigh", replacement)


def lapack_eigh(monkeypatch):
    """Every spectrum of the package from np.linalg.eigh: the oracle route of the closed form."""
    _rebind_eigh(monkeypatch, np.linalg.eigh)


def count_eigh(monkeypatch, counted=lambda caller: True) -> list:
    """Batch shapes of the `mixedtopo.model._eigh` calls, each one diagonalizing
    prod(shape) matrices; `counted(frame)` selects calls by the frame that made them."""
    calls = []
    original = mt.model._eigh

    def counting(hs):
        if counted(sys._getframe(1)):
            calls.append(np.shape(hs)[:-2])
        return original(hs)

    _rebind_eigh(monkeypatch, counting)
    return calls
