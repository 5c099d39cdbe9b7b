"""Seeded inputs for the three benchmark workloads.

Every input a pass needs is generated here from the workload seed, with the
standard library's `random.Random`, into a JSON-serialisable spec.  The
program under test receives only these generated inputs.  The same seed
always gives the same spec (see test_workloads.py).

Costs that the end-to-end metrics read (grid shapes, worker counts, export
formats, the number of calls of each kind) are fixed per pass; the seed
moves the values (angles, time shifts, strengths, grid bounds) and which
quantity and strength each grid gets.  That keeps runs with different seeds
comparable.
"""

from __future__ import annotations

import math
import random

EPS = 1e-3
# l_max at EPS, i.e. the smallest L with eps (L + 1/2) >= 6; L + 1 terms
L_TERMS = math.ceil(6.0 / EPS - 0.5) + 1

WORKLOADS = ("recipes", "grid-sweep", "point-eval")

# one pass never needs more than this many passes' worth of distinct inputs
MAX_PASSES = 32

# the eight published data sets and the CLI command each one belongs to
RECIPE_COMMANDS = {
    "angular": "angular",
    "energy-scan": "energy-scan",
    "optical": "optical",
    "profile": "profile-delta",
}

QUANTITIES = ("probability", "dcs", "forward", "scatter")
GRID_ETAS = (10.0, -10.0, 800.0, 1.0)
# (theta_n, delta_n, workers, export) in the order a pass runs them.  Each
# shape runs once with workers = 1 and once with workers = nproc ("N"), so
# the two worker counts see the same grids; the order alternates them.
# delta_n spans tens to several hundred, so the (delta_n, L+1) factor matrix
# ranges from inside a 2 MiB L2 (24 rows, 1.2 MB) to far beyond it (800
# rows, 38 MB).  The order is fixed because the peak resident memory
# depends on it.
GRID_SHAPES = (
    (720, 24, 1, "json"),
    (720, 24, "N", "csv"),
    (400, 161, 1, "csv"),
    (400, 161, "N", "json"),
    (48, 800, 1, "json"),
    (48, 800, "N", "csv"),
)

POINT_KINDS = ("probability", "amplitude_forward", "amplitude_scatter", "dcs",
               "delta_max_at", "scattering_amplitude_f")
POINT_ROUNDS = 16  # each round makes one call of every kind


def recipe_command(filename: str) -> str:
    """CLI command for a recipe file name such as `angular-eta1-weak.cfg`."""
    for prefix, command in RECIPE_COMMANDS.items():
        if filename.startswith(prefix):
            return command
    raise ValueError(f"no CLI command known for recipe {filename}")


def _recipes(rng: random.Random, recipe_files) -> dict:
    files = sorted(recipe_files)
    # the data sets are fixed; the seed only picks which output rows the
    # oracle re-evaluates
    return {
        "recipes": [{"file": f, "command": recipe_command(f)} for f in files],
        "oracle_draws": [rng.random() for _ in range(MAX_PASSES * 16)],
    }


def _grid_op(rng: random.Random, shape, quantity: str, eta: float) -> dict:
    theta_n, delta_n, workers, export = shape
    theta_min = rng.uniform(0.0, 1.0)
    theta_max = min(math.pi, theta_min + rng.uniform(0.5, 2.0))
    delta_min = rng.uniform(-8.0, 0.0)
    delta_max = delta_min + rng.uniform(8.0, 20.0)
    return {
        "quantity": quantity, "eta": eta,
        "theta_min": theta_min, "theta_max": theta_max, "theta_n": theta_n,
        "delta_min": delta_min, "delta_max": delta_max, "delta_n": delta_n,
        "workers": workers, "export": export,
        # one oracle row per op, three cells on it
        "check_row": rng.randrange(theta_n),
        "check_cols": sorted(rng.sample(range(delta_n), 3)),
    }


def _cover(rng: random.Random, values, n: int) -> list:
    """n draws from values, each value at least once (n >= len(values))."""
    out = list(values) + [rng.choice(values) for _ in range(n - len(values))]
    rng.shuffle(out)
    return out


def _grid_pass(rng: random.Random) -> list:
    n = len(GRID_SHAPES)
    return [_grid_op(rng, shape, q, e) for shape, q, e in
            zip(GRID_SHAPES, _cover(rng, QUANTITIES, n), _cover(rng, GRID_ETAS, n))]


def _point_pass(rng: random.Random, thetas: list) -> list:
    ops = []
    for _ in range(POINT_ROUNDS):
        kinds = list(POINT_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            ops.append({
                "kind": kind,
                "pool_index": rng.randrange(len(POOL_BANDS)),
                "theta": thetas.pop(),
                "delta": rng.uniform(-4.0, 10.0),
            })
    return ops


def _unique_thetas(rng: random.Random, n: int) -> list:
    seen = set()
    out = []
    while len(out) < n:
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        if theta not in seen:
            seen.add(theta)
            out.append(theta)
    return out


# one pool eta per |eta| band, sign drawn; the last band is kept narrow
# because the widest delta window (and so the peak memory) follows max |eta|
# (the strength bound at eps = 1e-3 is 845)
POOL_BANDS = ((0.1, 1.0), (1.0, 10.0), (10.0, 100.0), (700.0, 800.0))


def _pool_etas(rng: random.Random) -> list:
    etas = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
            for lo, hi in POOL_BANDS]
    rng.shuffle(etas)
    return etas


def make_spec(workload: str, seed: int, recipe_files=()) -> dict:
    """All inputs of `workload` for every pass a run can make, from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "seed": seed, "eps": EPS}
    if workload == "recipes":
        spec.update(_recipes(rng, recipe_files))
    elif workload == "grid-sweep":
        spec["passes"] = [_grid_pass(rng) for _ in range(MAX_PASSES)]
    elif workload == "point-eval":
        spec["pool_etas"] = _pool_etas(rng)
        per_pass = POINT_ROUNDS * len(POINT_KINDS)
        thetas = _unique_thetas(rng, per_pass * MAX_PASSES)
        spec["passes"] = [_point_pass(rng, thetas) for _ in range(MAX_PASSES)]
        spec["oracle_draws"] = [rng.random() for _ in range(MAX_PASSES * 16)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return spec


def input_properties(spec: dict, n_passes: int) -> dict:
    """Properties of the generated inputs that the layer predictions depend on.

    Byte counts are computed from the shapes (n_delta * (L+1) * 8), not
    measured.
    """
    workload = spec["workload"]
    if workload == "recipes":
        return {"inputs": "the eight recipes/*.cfg, unchanged by the seed"}
    passes = spec["passes"][:n_passes]
    if workload == "grid-sweep":
        thetas = []
        for ops in passes:
            for op in ops:
                n = op["theta_n"]
                step = (op["theta_max"] - op["theta_min"]) / max(n - 1, 1)
                thetas.extend(op["theta_min"] + i * step for i in range(n))
        n_delta = [op["delta_n"] for ops in passes for op in ops]
        pool = None
    else:
        thetas = [op["theta"] for ops in passes for op in ops]
        n_delta = [1]
        pool = len(spec["pool_etas"])
    # a share of the angles the inputs name, not of the Legendre rows the
    # program builds: delta_max_at builds its one angle's row three times
    # (the traced run reports specfun.legendre_rows.rows_per_angle)
    repeated = 1.0 - len(set(thetas)) / len(thetas)
    return {
        "input_angle_repeat_share": repeated,
        "n_delta_min": min(n_delta),
        "n_delta_max": max(n_delta),
        "factor_bytes_max_computed": max(n_delta) * L_TERMS * 8,
        "factor_bytes_min_computed": min(n_delta) * L_TERMS * 8,
        "tablecache_pool": pool,
    }
