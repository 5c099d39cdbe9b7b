"""Print the digests that show two checkouts write the same bytes.

    PYTHONPATH=src python tools/digests.py

Run from the root of a checkout; it takes no option.  Lines:
- one per recipe in `recipes/`, run through `coulscat.cli.main` in this
  process: its name, exit code and the sha256 of its out file, its stdout
  and its stderr;
- `points`: one sha256 over the `float.hex` of every value of seeded
  single-point calls (a zero's sign too).  The calls are the six
  single-point kinds of the benchmark's `point-eval` workload plus
  `amplitude`, each at ANGLES angles per table, 0 and pi among them, and a
  seeded delta per angle in [-4, 10].  For each seed of SEEDS the tables are
  Coulomb ones at eps = 1e-3 at both signs of one seeded eta in each of the
  workload's four |eta| bands, the free case eta = 0, and a square well
  whose xi needs several Hermite boxes;
- `sweep`: the sha256 of the CSV of a 1400 x 161 probability sweep at
  eta = 800, two Legendre chunks of 700 angles, each reduced by rows over
  threads on two workers.  Exit status 1 when two workers write other bytes
  than one.

Two checkouts that print the same lines give the same bits for all of
these; compare them with `diff`.  Out files go to a temporary directory
that is removed afterwards.  The package is imported inside the functions,
so `tools/cold_start.py` takes `find_recipes` without it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

# recipe file-name prefix -> the command it runs
COMMANDS = {
    "angular": "angular",
    "energy-scan": "energy-scan",
    "optical": "optical",
    "profile": "profile-delta",
}

EPS = 1e-3
SEEDS = (23, 1, 2)
ANGLES = 8
# the |eta| bands of perfbench/workloads.py's point-eval pools
BANDS = ((0.1, 1.0), (1.0, 10.0), (10.0, 100.0), (700.0, 800.0))


def find_recipes(directory: Path) -> list:
    """(path, command) of each *.cfg recipe in `directory`, sorted by name;
    exits with status 2 when there is none."""
    recipes = sorted(directory.glob("*.cfg"))
    if not recipes:
        print(f"no *.cfg recipes in {directory}", file=sys.stderr)
        sys.exit(2)
    return [(r, next(c for prefix, c in COMMANDS.items() if r.name.startswith(prefix)))
            for r in recipes]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recipe_line(recipe: Path, command: str, out: Path) -> str:
    """The recipe's name, exit code and three digests."""
    from coulscat import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", str(recipe), "--out", str(out)])
    written = out.read_bytes() if out.exists() else b""
    return (f"{recipe.name} exit={code} out={_sha256(written)} "
            f"stdout={_sha256(stdout.getvalue().encode())} "
            f"stderr={_sha256(stderr.getvalue().encode())}")


def points_digest() -> str:
    from coulscat import observables as obs, partialwave as pw
    from coulscat.kinematics import (ALPHA_PARTICLE_MASS_MEV, build_scenario,
                                     build_scenario_from_eta)

    kinds = (pw.probability, pw.amplitude, pw.amplitude_forward, pw.amplitude_scatter,
             obs.dcs, lambda t, th, _d: obs.delta_max_at(t, th),
             lambda t, th, _d: obs.scattering_amplitude_f(t, t.scenario, th))
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        # the free case's delta profile is flat
        warnings.simplefilter("ignore")
        for seed in SEEDS:
            rng = random.Random(seed)
            etas = [0.0]
            for lo, hi in BANDS:
                eta = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
                etas += [eta, -eta]
            tables = [pw.build_table(build_scenario_from_eta(eta, EPS),
                                     pw.PhaseShiftModel.coulomb_exact()) for eta in etas]
            sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, EPS)
            tables.append(pw.build_table(sc, pw.square_well_phase_shifts(
                5.0, 200.0 / sc.p, sc, pw.choose_l_max(EPS))))
            for table in tables:
                thetas = [0.0, math.pi] + [rng.uniform(0.0, math.pi)
                                           for _ in range(ANGLES - 2)]
                for theta in thetas:
                    delta = rng.uniform(-4.0, 10.0)
                    for fn in kinds:
                        result = fn(table, theta, delta)
                        if isinstance(result, complex):
                            result = (result.real, result.imag)
                        for v in result if isinstance(result, tuple) else [result]:
                            digest.update(float(v).hex().encode() + b"\n")
    return digest.hexdigest()


def sweep_csvs(tmp: Path) -> list:
    """The sweep's CSV bytes on one worker and on two."""
    from coulscat import PhaseShiftModel, build_scenario_from_eta, build_table, scan

    table = build_table(build_scenario_from_eta(800.0, 1e-3), PhaseShiftModel.coulomb_exact())
    grid = scan.GridSpec(0.01, 3.1, 1400, -8.0, 24.0, 161)
    csvs = []
    for workers in (1, 2):
        path = tmp / f"workers-{workers}.csv"
        scan.field_to_csv(scan.sweep(table, grid, scan.Quantity.PROBABILITY,
                                     workers=workers), path)
        csvs.append(path.read_bytes())
    return csvs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for recipe, command in find_recipes(Path("recipes")):
            print(recipe_line(recipe, command, Path(tmp) / (recipe.name + ".out")))
        print(f"points {points_digest()}")
        one, two = sweep_csvs(Path(tmp))
    print(f"sweep {_sha256(one)}")
    if one != two:
        print(f"sweep on 2 workers: {_sha256(two)}, not the bytes of 1", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # no options: a `diff` of two runs compares like with like
    sys.exit(__doc__ if sys.argv[1:] else main())
