"""Time the stages of the ROADMAP Baseline table with repeats.

    PYTHONPATH=src python3 perfbench/baseline_rows.py

Prints one JSON object: for each row, the median and the quartiles of
REPEATS timings in seconds, measured in this process after one
untimed warm-up.  BASELINE.json holds the figures this printed at the
commit the benchmark was defined on.
"""

import json
import platform
import statistics
import time

import numpy as np

from coulscat import kinematics, observables, partialwave, scan, specfun

EPS = 1e-3
REPEATS = 5


def _table(eta: float):
    return partialwave.build_table(kinematics.build_scenario_from_eta(eta, EPS),
                                   partialwave.PhaseShiftModel.coulomb_exact())


def rows(nproc: int) -> dict:
    t10 = _table(10.0)
    t800 = _table(800.0)
    thetas = np.linspace(0.0, np.pi, 200)
    grid = scan.GridSpec(0.0, np.pi, 400, -8.0, 8.0, 161)
    return {
        "build_table eta=10": lambda: _table(10.0),
        "coulomb_sigma_table(6000)": lambda: specfun.coulomb_sigma_table(6000, 10.0),
        "legendre_rows 1 angle": lambda: specfun.legendre_rows(np.array([0.7]), 6000),
        "legendre_rows 200 angles": lambda: specfun.legendre_rows(thetas, 6000),
        "probability single point": lambda: partialwave.probability(t10, 0.7, 0.1),
        "probability_grid 200x81": lambda: partialwave.probability_grid(
            t10, thetas, np.linspace(-8.0, 8.0, 81)),
        "delta_profile 200 angles eta=10": lambda: observables.delta_profile(t10, thetas),
        "delta_profile 200 midpoints eta=800": lambda: observables.delta_profile(
            t800, observables.midpoint_thetas(200)),
        "sweep 400x161 workers=1": lambda: scan.sweep(
            t10, grid, scan.Quantity.PROBABILITY, workers=1),
        f"sweep 400x161 workers={nproc}": lambda: scan.sweep(
            t10, grid, scan.Quantity.PROBABILITY, workers=nproc),
    }


def main() -> None:
    import os
    import warnings

    warnings.simplefilter("ignore")
    nproc = os.cpu_count() or 1
    out = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": nproc, "repeats": REPEATS, "rows_s": {}}
    for name, fn in rows(nproc).items():
        fn()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        q1, _q2, q3 = statistics.quantiles(times, n=4)
        out["rows_s"][name] = {"median": statistics.median(times), "q1": q1, "q3": q3}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
