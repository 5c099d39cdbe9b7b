"""Wavepacket Coulomb scattering by partial-wave summation.

Computes the bounded wavepacket-to-wavepacket scattering probability
P(theta, delta), the differential cross section and its deviations from the
Rutherford formula, time delays and advancements, conservation sum rules and
optical-theorem diagnostics, for Coulomb and short-range phase-shift models.

Every command runs in a fresh process, where start-up can outweigh the
series, so a module imports at module level only numpy, the package and
the standard-library modules that every command runs.  What only some
commands need is imported in the function that uses it: scipy (square-well
tables, the quadrature oracle, `selftest`), `concurrent.futures` (an
evaluation planned on more than one thread), CPython's builtin SHA-256
(a sweep's input checksum; `hashlib`, with OpenSSL, only on a build
without it) and `json` (JSON output).
"""

from .errors import (
    CoulscatWarning,
    MatchingError,
    NonConvergenceError,
    ResourceLimitError,
    ScenarioError,
    StrengthBoundError,
    TruncationMismatchError,
    UndefinedRatioError,
)
from .kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    FINE_STRUCTURE_ALPHA,
    PhysicalScenario,
    build_scenario,
    build_scenario_from_eta,
    eps_from_energy_width,
    eta_bound,
    free_transit_time,
    log_shift,
    time_shift_seconds,
)
from .observables import (
    DeltaProfile,
    ScenarioFamily,
    conservation_weight_sum,
    dcs,
    delta_max_at,
    delta_profile,
    energy_ratio_rho,
    midpoint_thetas,
    optical_ratio,
    optical_theorem_check_short_range,
    probability_sphere_integral,
    rutherford_dcs,
    rutherford_probability,
    scattering_amplitude_f,
    shadow_angle,
    total_cross_section,
)
from .partialwave import (
    PartialWaveTable,
    PhaseShiftKind,
    PhaseShiftModel,
    amplitude,
    amplitude_forward,
    amplitude_scatter,
    build_table,
    choose_l_max,
    probability,
    square_well_phase_shifts,
)
from .scan import (
    FieldResult,
    GridSpec,
    Quantity,
    TableCache,
    field_to_csv,
    field_to_json,
    sweep,
)

__version__ = "1.0.0"
