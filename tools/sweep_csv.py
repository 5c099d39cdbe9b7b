"""Write the CSV of a 1400 x 161 probability sweep at eta = 800 on the given
number of workers.

    PYTHONPATH=src python tools/sweep_csv.py WORKERS OUT.csv

1400 angles at L = 6000 are two Legendre chunks of 700, and on two or more
workers (and CPUs) each chunk's reduction is split by rows over threads.
Files written on different worker counts must be byte-identical; compare
them with `cmp`.
"""

from __future__ import annotations

import sys

from coulscat import PhaseShiftModel, build_scenario_from_eta, build_table, scan


def main(argv: list[str]) -> None:
    workers, path = int(argv[0]), argv[1]
    table = build_table(build_scenario_from_eta(800.0, 1e-3), PhaseShiftModel.coulomb_exact())
    grid = scan.GridSpec(0.01, 3.1, 1400, -8.0, 24.0, 161)
    scan.field_to_csv(scan.sweep(table, grid, scan.Quantity.PROBABILITY, workers=workers), path)


if __name__ == "__main__":
    main(sys.argv[1:])
