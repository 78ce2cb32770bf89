"""Topological invariants of Gaussian mixed states of lattice fermions.

Provides the ensemble geometric phase (EGP) and its windings (the mixed-state
Chern number), Wilson-loop Zak phases and plaquette Berry curvature of the
fictitious Hamiltonian, and the Uhlmann phase / windings for comparison.
"""

__version__ = "0.1.0"

from .errors import (
    AmplitudeZeroError,
    ConfigError,
    GapError,
    MixedTopoError,
    NonHermitianError,
    PhaseUndefinedError,
    QuantizationError,
    RankDeficiencyError,
    UnderResolvedError,
    WindingMismatchError,
)
from .model import (
    BlochModel,
    MomentumGrid,
    atomic_model,
    band_gap,
    band_systems,
    bloch_matrix_from_d,
    boltzmann_weights,
    fermi_weights,
    momentum_line,
    qwz_d_vector,
    qwz_model,
    spectral_sum,
    tabulated_model,
    wrap_momentum,
)
from .gaussian import (
    FictitiousHamiltonianGrid,
    GaussianStateSpec,
    fictitious_grid,
    fictitious_hamiltonian,
    filled_band_count,
    g_matrix,
    load_matrix_grid,
    save_matrix_grid,
)
from .geometry import (
    PhaseProfile,
    berry_curvature_plaquette,
    chern_from_zak_windings,
    chern_number,
    principal_branch,
    winding_of_phase_profile,
    zak_phase_wilson,
)
from .egp import (
    chain_traces,
    egp_component,
    egp_profile,
    egp_windings,
    gauge_reduction_deviation,
    gauge_reduction_exponent,
)
from .uhlmann import (
    InvariantReport,
    ground_state_chern,
    uhlmann_phase_profile,
    uhlmann_temperature_scan,
    uhlmann_windings,
)
