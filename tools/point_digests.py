"""Print one sha256 over the `float.hex` of every value of seeded
single-point calls.

    PYTHONPATH=src python tools/point_digests.py

Run from the root of a checkout.  The calls are the six single-point kinds
of the benchmark's `point-eval` workload (`probability`,
`amplitude_forward`, `amplitude_scatter`, `dcs`, `delta_max_at` and
`scattering_amplitude_f`) plus `amplitude`, each at ANGLES angles per
table, 0 and pi among them, and a seeded delta per angle in [-4, 10].  For
each seed of SEEDS the tables are Coulomb ones at eps = 1e-3 at both signs
of one seeded eta in each of the workload's four |eta| bands, the free case
eta = 0, and a square well whose xi needs several Hermite boxes.  Two checkouts that print the same
digest return the same bits for every call (a zero's sign too); compare
them with `diff`.
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings

from coulscat import observables, partialwave
from coulscat.kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    build_scenario,
    build_scenario_from_eta,
)

EPS = 1e-3
SEEDS = (23, 1, 2)
ANGLES = 8
# the |eta| bands of perfbench/workloads.py's point-eval pools
BANDS = ((0.1, 1.0), (1.0, 10.0), (10.0, 100.0), (700.0, 800.0))

KINDS = {
    "probability": partialwave.probability,
    "amplitude": partialwave.amplitude,
    "amplitude_forward": partialwave.amplitude_forward,
    "amplitude_scatter": partialwave.amplitude_scatter,
    "dcs": observables.dcs,
    "delta_max_at": lambda t, th, _d: observables.delta_max_at(t, th),
    "scattering_amplitude_f":
        lambda t, th, _d: observables.scattering_amplitude_f(t, t.scenario, th),
}


def tables(rng: random.Random) -> list:
    coulomb = partialwave.PhaseShiftModel.coulomb_exact()
    etas = [0.0]
    for lo, hi in BANDS:
        eta = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        etas += [eta, -eta]
    out = [partialwave.build_table(build_scenario_from_eta(eta, EPS), coulomb)
           for eta in etas]
    sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, EPS)
    well = partialwave.square_well_phase_shifts(5.0, 200.0 / sc.p, sc,
                                                partialwave.choose_l_max(EPS))
    return out + [partialwave.build_table(sc, well)]


def values(result) -> list:
    """The floats of one call's result: a float, a complex or a tuple."""
    if isinstance(result, complex):
        return [result.real, result.imag]
    if isinstance(result, tuple):
        return list(result)
    return [result]


def main() -> int:
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        # the free case's delta profile is flat
        warnings.simplefilter("ignore")
        for seed in SEEDS:
            rng = random.Random(seed)
            for table in tables(rng):
                thetas = [0.0, math.pi] + [rng.uniform(0.0, math.pi)
                                           for _ in range(ANGLES - 2)]
                for theta in thetas:
                    delta = rng.uniform(-4.0, 10.0)
                    for fn in KINDS.values():
                        for v in values(fn(table, theta, delta)):
                            digest.update(float(v).hex().encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
