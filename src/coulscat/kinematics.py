"""Kinematics of a Gaussian wavepacket scattering off a Coulomb field.

Converts experimental inputs (charges Z1, Z2, projectile mass m0, kinetic
energy E, fractional momentum spread eps) into the natural-units quantities
the partial-wave machinery consumes.  Everything internal is MeV-based
natural units (hbar = c = 1):

    p       = sqrt(2 m0 E)          momentum (MeV)
    beta    = p / m0                nonrelativistic speed
    eta     = Z1 Z2 alpha / beta    Sommerfeld strength parameter
    sigma_p = eps * p               momentum spread (MeV)
    sigma_x = 1 / (2 sigma_p)       position spread (1/MeV), minimum uncertainty
    R       = sigma_x / sqrt(eps)   initial distance from the scattering centre

The R choice keeps wavepacket spreading negligible over the ~2R transit
while growing as eps^(-3/2); it implies 2 p R = eps^(-3/2) identically, so
ln(2pR) = (3/2) ln(1/eps) independent of energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ScenarioError

# CODATA-derived constants.  The projectile default is a helium nucleus.
HBARC_MEV_FM = 197.3269804
SECONDS_PER_INVERSE_MEV = 6.582119569e-22
FINE_STRUCTURE_ALPHA = 1.0 / 137.035999084
ALPHA_PARTICLE_MASS_MEV = 3727.379

# The leading-order asymptotics behind the whole construction assume
# eps << 1; beyond this cutoff results would silently degrade.
EPS_MAX = 0.1


@dataclass(frozen=True)
class PhysicalScenario:
    """Immutable bundle of experimental inputs and derived kinematics.

    Attributes
    ----------
    Z1, Z2 : int
        Atomic numbers of the field source and the projectile.
    m0 : float
        Projectile rest mass (MeV).
    E : float
        Nonrelativistic kinetic energy (MeV), E > 0.
    eps : float
        Fractional momentum spread sigma_p / p, 0 < eps < 0.1.
    p, beta, eta, sigma_p, sigma_x, R : float
        Derived quantities, see module docstring.
    """

    Z1: int
    Z2: int
    m0: float
    E: float
    eps: float
    p: float
    beta: float
    eta: float
    sigma_p: float
    sigma_x: float
    R: float


def _positive_finite(name: str, value: float) -> float:
    """`value`, or a ScenarioError naming it unless it is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ScenarioError(f"{name} must be positive and finite, got {value}")
    return value


def check_mass_and_eps(m0: float, eps: float) -> None:
    """ScenarioError unless the mass is positive and finite and
    0 < eps < EPS_MAX: `build_scenario`'s checks of the inputs that a scan
    over energy holds fixed."""
    _positive_finite("projectile mass", m0)
    if not (0.0 < eps < EPS_MAX):
        raise ScenarioError(
            f"fractional momentum spread must satisfy 0 < eps < {EPS_MAX}, got {eps}"
        )


def build_scenario(Z1: int, Z2: int, m0: float, E: float, eps: float) -> PhysicalScenario:
    """Build a scenario from charges, mass, kinetic energy and eps (all MeV-based).

    Finite inputs can give kinematics that are not (a 1e300 mass), so the
    derived values are checked before they are divided by, as are 2pR (its
    log is in xi_l) and 16 eps^4 p^2 (`observables.dcs_factor`)."""
    check_mass_and_eps(m0, eps)
    _positive_finite("kinetic energy", E)
    p = _positive_finite("momentum p = sqrt(2 m0 E)", math.sqrt(2.0 * m0 * E))
    beta = _positive_finite("speed beta = p / m0", p / m0)
    sigma_p = _positive_finite("momentum spread sigma_p = eps p", eps * p)
    sigma_x = _positive_finite("position spread sigma_x = 1 / (2 sigma_p)", 0.5 / sigma_p)
    R = _positive_finite("distance R = sigma_x / sqrt(eps)", sigma_x / math.sqrt(eps))
    _positive_finite("2pR", 2.0 * p * R)
    _positive_finite("16 eps^4 p^2", 16.0 * eps ** 4 * p ** 2)
    eta = Z1 * Z2 * FINE_STRUCTURE_ALPHA / beta
    return PhysicalScenario(Z1=Z1, Z2=Z2, m0=m0, E=E, eps=eps, p=p, beta=beta,
                            eta=eta, sigma_p=sigma_p, sigma_x=sigma_x, R=R)


def build_scenario_from_eta(eta: float, eps: float, Z1: int = 79, Z2: int = 2,
                            m0: float = ALPHA_PARTICLE_MASS_MEV) -> PhysicalScenario:
    """Build a scenario with a prescribed strength parameter eta.

    The energy is derived from eta (beta = |Z1 Z2| alpha / |eta|), and the
    projectile charge sign is flipped if needed so that sign(Z1 Z2) matches
    sign(eta).  At eta = 0 the energy is unconstrained; 1 MeV is used and the
    field source charge is set to zero.
    """
    if not math.isfinite(eta):
        raise ScenarioError(f"strength parameter eta must be finite, got {eta}")
    if eta == 0.0:
        return build_scenario(0, Z2, m0, 1.0, eps)
    if Z1 == 0 or Z2 == 0:
        raise ScenarioError("nonzero eta requires nonzero charges")
    if (Z1 * Z2 > 0) != (eta > 0):
        Z2 = -Z2
    beta = abs(Z1 * Z2) * FINE_STRUCTURE_ALPHA / abs(eta)
    E = 0.5 * m0 * beta * beta
    # eta reconstructed from E rounds differently; keep the exact value
    return replace(build_scenario(Z1, Z2, m0, E, eps), eta=float(eta))


def eta_bound(eps: float) -> float:
    """Largest |eta| compatible with negligible spreading at this eps.

    Comes from allowing the logarithmic-phase trajectory shift to be at most
    R/2:  |eta| <= 1 / (4 eps^{3/2} |(3/2) ln(1/eps) - 1|).
    """
    if not (0.0 < eps < 1.0 / math.e):
        raise ScenarioError(f"eta_bound requires 0 < eps < 1/e, got {eps}")
    denom = 4.0 * eps ** 1.5 * abs(1.5 * math.log(1.0 / eps) - 1.0)
    # 0 where eps ** 1.5 underflows (eps < 2e-216), NaN at a subnormal eps
    if not denom > 0.0:
        raise ScenarioError(f"eta_bound denominator vanishes at eps={eps}")
    return 1.0 / denom


def log_shift(scenario: PhysicalScenario) -> float:
    """Trajectory shift Delta(R) = (eta/p) (ln(2pR) - 1) from the logarithmic phase.

    The asymptotic Coulomb wave carries a phase -eta ln(2kr); the incoming
    state built at nominal radius R therefore actually peaks at R - Delta(R).
    Sign follows sign(eta): repulsive fields lag, attractive fields lead.
    """
    return (scenario.eta / scenario.p) * (math.log(2.0 * scenario.p * scenario.R) - 1.0)


def free_transit_time(scenario: PhysicalScenario) -> float:
    """Reference transit time: free flight over 2(R - Delta(R)) at speed beta."""
    return (2.0 * scenario.R - 2.0 * log_shift(scenario)) / scenario.beta


def scaled_shift(scenario: PhysicalScenario, T: float) -> float:
    """Dimensionless time-shift variable delta = (beta T - beta T_free) / sigma_x."""
    return scenario.beta * (T - free_transit_time(scenario)) / scenario.sigma_x


def time_shift_seconds(scenario: PhysicalScenario, delta: float) -> float:
    """Convert a scaled shift delta into a time delay in seconds (delta sigma_x / beta)."""
    return delta * scenario.sigma_x / scenario.beta * SECONDS_PER_INVERSE_MEV


def spreading_width(scenario: PhysicalScenario, t: float) -> float:
    """Gaussian wavepacket width sigma_x(t) = sqrt(sigma_x^2 + eps^2 (beta t)^2)."""
    return math.hypot(scenario.sigma_x, scenario.eps * scenario.beta * t)


def eps_from_energy_width(energy_width: float, E: float) -> float:
    """Fractional momentum spread implied by an energy linewidth.

    E = p^2/2m gives sigma_E/E = 2 sigma_p/p, so eps = energy_width / (2 E)
    when the linewidth is read as the energy spread of the packet.
    """
    width = _positive_finite("energy width", energy_width)
    return width / (2.0 * _positive_finite("kinetic energy", E))
