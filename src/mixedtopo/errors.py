"""Exception types shared across the package."""


class MixedTopoError(Exception):
    """Base class for all numerical / physical failure modes."""


class NonHermitianError(MixedTopoError):
    """An input matrix violates the Hermiticity tolerance."""


class GapError(MixedTopoError):
    """Chemical potential inside a band, or spectrum (near-)degenerate at the Fermi level."""


class UnderResolvedError(MixedTopoError):
    """Discretization too coarse; carries a refinement hint in the message."""


class QuantizationError(MixedTopoError):
    """A quantity that must round to an integer failed its residue check."""


class AmplitudeZeroError(MixedTopoError):
    """The polarization amplitude vanished: generalized gap condition violated."""


class RankDeficiencyError(MixedTopoError):
    """Density matrix (numerically) rank deficient; holonomy undefined at exact purity."""


class PhaseUndefinedError(MixedTopoError):
    """A geometric phase is undefined: its trace is numerically zero, or its input is not
    finite."""


class WindingMismatchError(MixedTopoError):
    """Directional windings disagree where theory requires equality."""


class ConfigError(MixedTopoError):
    """Invalid run configuration; carries key / line diagnostics."""

    def __init__(self, message, key=None, line=None):
        detail = message
        if key is not None:
            detail += f" (key: {key})"
        if line is not None:
            detail += f" (line {line})"
        super().__init__(detail)
        self.key = key
        self.line = line
