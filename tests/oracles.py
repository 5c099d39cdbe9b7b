"""Closed-form references the tests compare the series with."""

import math

import numpy as np

from coulscat import specfun


def rutherford_amplitude(scenario, theta: float) -> complex:
    """Closed-form Coulomb scattering amplitude.

    f(theta, p) = -(eta / (2 p sin^2(theta/2)))
                  * exp(-i eta ln(sin^2(theta/2)) + 2i sigma_0),
    whose modulus squared is the Rutherford cross section.
    """
    if not (0.0 < theta <= math.pi):
        raise ValueError("Coulomb amplitude diverges at theta = 0")
    eta = scenario.eta
    s2 = math.sin(0.5 * theta) ** 2
    sigma0 = specfun.coulomb_sigma_exact(0, eta)
    return -(eta / (2.0 * scenario.p * s2)) * complex(
        np.exp(1j * (-eta * math.log(s2) + 2.0 * sigma0))
    )
