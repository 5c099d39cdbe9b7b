"""coulscat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {recipes,grid-sweep,point-eval} \
        --seed N --seconds S --trace {0,1}

Run from the root of a coulscat checkout.  The run compiles `src/` to
bytecode, generates the workload's inputs from the seed (workloads.py),
and then starts passes, each in a fresh process (worker.py) with empty
caches, one after another, until the next pass would end after S seconds
(at least two passes).  Extra set-up-only processes bring the set-up
samples to at least seven.  Outputs are checked afterwards, outside the
timed code: a seeded sample against the direct series of oracle.py, and
the recipes' invariants.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics (medians over passes); `wall_cal` is the pass's wall
time in runs of calibrate.py's kernel, sampled while the pass runs, and
`setup_s` is set-up in runs of a pure-Python kernel timed right before and
after it, times a nominal kernel time (worker.py).  With
--trace 1, passes alternate traced and untraced and it holds the per-layer
metrics.  The lines before it print every metric by name and unit, the
input properties and the machine facts.  The full record, including every pass,
is written to .perfbench_runs/<workload>-seed<N>-trace<T>.json.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the directory is not a coulscat checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
MIN_SETUP_SAMPLES = 7
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it

# layers each workload exists to exercise; a traced run fails if one of
# them records no calls
REQUIRED_CALLS = {
    "recipes": ("specfun.legendre_rows.calls", "partialwave.series.calls",
                "observables.delta_profile.calls", "partialwave.build_table.calls",
                "specfun.phase_tables.calls", "cli.calls"),
    "grid-sweep": ("scan.sweep.calls", "partialwave.series.calls",
                   "scan.export.calls"),
    "point-eval": ("specfun.legendre_rows.calls", "partialwave.series.calls",
                   "partialwave.build_table.calls", "specfun.phase_tables.calls",
                   "scan.TableCache.lookups"),
}


def _checkout_ok() -> bool:
    return (os.path.isfile(os.path.join("src", "coulscat", "__init__.py"))
            and os.path.isdir("recipes") and os.path.isfile("BENCHMARK.json"))


def _metric_units() -> tuple:
    """(end-to-end, per-layer) metric names mapped to units, from BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client process with at most nproc threads: the sweep's pool, and
    # no idle BLAS pool beside it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(spec_path: str, run_dir: str, index: int, *, setup_only: bool,
                trace: bool, deadline: float) -> dict:
    tmp = os.path.join(run_dir, f"pass{index}")
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(run_dir, f"pass{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", spec_path,
           "--pass", str(index), "--tmp", tmp, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = None, f"pass timed out after {exc.timeout:.0f} s"
    elapsed = time.perf_counter() - start
    if returncode == 0:
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    else:
        result = {"crash": f"worker exit {returncode}: {(stderr or '')[-2000:]}"}
    result.update(index=index, traced=trace, setup_only=setup_only,
                  process_s=elapsed, tmp=tmp)
    return result


def _planned_ops(spec: dict, index: int) -> int:
    if spec["workload"] == "recipes":
        return len(spec["recipes"])
    return len(spec["passes"][index])


def run_passes(spec: dict, spec_path: str, run_dir: str, seconds: float,
               trace: bool, started: float) -> list:
    """Closed-loop passes, one process at a time, inside the time budget."""
    deadline = started + RUN_LIMIT_S
    passes = []
    spent = 0.0
    while len(passes) < workloads.MAX_PASSES:
        if len(passes) >= MIN_PASSES:
            mean = spent / len(passes)
            if spent + mean > seconds:
                break
        traced = trace and len(passes) % 2 == 0
        result = _run_worker(spec_path, run_dir, len(passes), setup_only=False,
                             trace=traced, deadline=deadline)
        spent += result["process_s"]
        passes.append(result)
    extra = []
    while len(passes) + len(extra) < MIN_SETUP_SAMPLES:
        extra.append(_run_worker(spec_path, run_dir, len(passes) + len(extra),
                                 setup_only=True, trace=False, deadline=deadline))
    return passes + extra


# --------------------------------------------------------------------------
# correctness
# --------------------------------------------------------------------------

def _draw(spec: dict, k: int) -> float:
    draws = spec["oracle_draws"]
    return draws[k % len(draws)]


def _read_csv(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return header, rows


def check_recipes(spec: dict, passes: list) -> list:
    """Failures found in the recipes' outputs: (pass, recipe, message)."""
    eps = spec["eps"]
    failures = []
    for p in passes:
        if "records" not in p:
            continue
        k = 16 * p["index"]
        for rec in p["records"]:
            if "error" in rec:
                failures.append((p["index"], rec["file"], rec["error"].splitlines()[-1]))
                continue
            try:
                message = _check_recipe(spec, rec, eps, _draw(spec, k))
            except (OSError, ValueError, IndexError) as exc:
                message = f"unreadable output: {exc}"
            k += 1
            if message:
                failures.append((p["index"], rec["file"], message))
    return failures


def _recipe_config(name: str) -> dict:
    values = {}
    with open(os.path.join("recipes", name), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return values


def _check_recipe(spec: dict, rec: dict, eps: float, draw: float):
    cfg = _recipe_config(rec["file"])
    header, rows = _read_csv(rec["out"])
    if not rows or not all(math.isfinite(v) or v == math.inf for row in rows for v in row):
        return "empty output or NaN values"
    cols = {name: i for i, name in enumerate(header)}
    if rec["command"] in ("angular", "profile-delta"):
        probs = [row[cols["probability"]] for row in rows]
        if max(probs) > 1.0 + 1e-6 or min(probs) < 0.0:
            return f"probability outside [0, 1 + 1e-6]: {min(probs)}..{max(probs)}"
        row = rows[int(draw * len(rows))]
        eta = float(cfg["eta"])
        if rec["command"] == "angular":
            if len(rows) != int(cfg["theta-n"]):
                return f"{len(rows)} rows, expected {cfg['theta-n']}"
            if cfg["delta"] == "auto":
                # delta_max is not in the output; the row's P must be the peak
                # of its delta profile
                theta, p = row[cols["theta"]], row[cols["probability"]]
                return None if oracle.at_peak(eta, eps, theta, p) else \
                    f"auto-delta P = {p} at theta = {theta} is not the profile peak"
            theta, delta = row[cols["theta"]], float(cfg["delta"])
        else:
            theta, delta = float(cfg["theta"]), row[cols["delta"]]
        want = abs(oracle.amplitudes(eta, eps, theta, [delta])["full"][0]) ** 2
        got = row[cols["probability"]]
        return None if oracle.probability_close(got, want) else \
            f"P({theta}, {delta}) = {got}, oracle {want}"
    if rec["command"] == "optical":
        row = rows[int(draw * len(rows))]
        gamma, sigma, im_f0 = oracle.optical_row(row[cols["eta"]], eps)
        got = (row[cols["gamma"]], row[cols["sigma"]], row[cols["im_f0"]])
        ok = all(abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, (gamma, sigma, im_f0)))
        return None if ok else f"optical row {got}, oracle {(gamma, sigma, im_f0)}"
    if rec["command"] == "energy-scan":
        energies = [row[cols["E_keV"]] for row in rows]
        rho = [row[cols["rho"]] for row in rows]
        if energies != sorted(energies) or any(b <= a for a, b in zip(rho, rho[1:])):
            return f"rho not increasing with energy: {rho}"
        if energies[0] != 3.8 or not (2.5e-7 / 2.0 <= rho[0] <= 2.5e-7 * 2.0):
            return f"rho(3.8 keV) = {rho[0]}, expected within a factor 2 of 2.5e-7"
        return None
    return f"no check for command {rec['command']}"


def check_grid_sweep(spec: dict, passes: list) -> list:
    eps = spec["eps"]
    failures = []
    for p in passes:
        if "records" not in p:
            continue
        ops = spec["passes"][p["index"]]
        # one op per pass, in turn, against the oracle and its exported file
        checked = (p["index"] + spec["seed"]) % len(ops)
        for rec in p["records"]:
            op = ops[rec["index"]]
            if "error" in rec:
                failures.append((p["index"], rec["index"], rec["error"].splitlines()[-1]))
                continue
            if rec["index"] != checked:
                continue
            message = _check_field(op, rec, eps)
            if message:
                failures.append((p["index"], rec["index"], message))
    return failures


def _check_field(op: dict, rec: dict, eps: float):
    amps = oracle.amplitudes(op["eta"], eps, rec["theta"], rec["deltas"])
    quantity = op["quantity"]
    for j, got in enumerate(rec["values"]):
        if quantity == "forward":
            ok = oracle.close(got, amps["forward"][j])
        elif quantity == "scatter":
            ok = oracle.probability_close(got, abs(amps["scatter"][j]) ** 2)
        else:
            want = abs(amps["full"][j]) ** 2
            scale = oracle.dcs_scale(op["eta"], eps) if quantity == "dcs" else 1.0
            ok = oracle.probability_close(got / scale, want)
        if not ok:
            return f"{quantity} at ({rec['theta']}, {rec['deltas'][j]}) = {got}"
    row, cols = op["check_row"], op["check_cols"]
    if op["export"] == "csv":
        _header, rows = _read_csv(rec["path"])
        if len(rows) != op["theta_n"] * op["delta_n"]:
            return f"CSV has {len(rows)} rows"
        exported = [rows[row * op["delta_n"] + c][2] for c in cols]
    else:
        with open(rec["path"], encoding="utf-8") as fh:
            values = json.load(fh)["values"]
        if len(values) != op["theta_n"] or len(values[0]) != op["delta_n"]:
            return "JSON matrix has the wrong shape"
        exported = [values[row][c] for c in cols]
    if exported != rec["values"]:
        return f"exported cells {exported} differ from the field {rec['values']}"
    return None


def check_point_eval(spec: dict, passes: list) -> list:
    eps = spec["eps"]
    failures = []
    ran = [(p, rec) for p in passes if "records" in p for rec in p["records"]]
    for p, rec in ran:
        if "error" in rec:
            failures.append((p["index"], rec["index"], rec["error"].splitlines()[-1]))
    # two seeded calls of every kind per run
    by_kind = {}
    for p, rec in ran:
        if "error" not in rec:
            op = spec["passes"][p["index"]][rec["index"]]
            by_kind.setdefault(op["kind"], []).append((p["index"], op, rec["value"]))
    k = 0
    for kind in workloads.POINT_KINDS:
        for _ in range(2):
            if not by_kind.get(kind):
                continue
            index, op, value = by_kind[kind][int(_draw(spec, k) * len(by_kind[kind]))]
            k += 1
            if not _check_point(spec, op, value, eps):
                failures.append((index, kind, f"{kind}{(op['theta'], op['delta'])} = {value}"))
    return failures


def _check_point(spec: dict, op: dict, value, eps: float) -> bool:
    eta = spec["pool_etas"][op["pool_index"]]
    theta, delta = op["theta"], op["delta"]
    kind = op["kind"]
    if kind == "delta_max_at":
        return oracle.peak_ok(eta, eps, theta, value[0], value[1])
    if kind == "scattering_amplitude_f":
        p = oracle.momentum(eta)
        return oracle.close(complex(*value), oracle.f_amplitude(eta, eps, theta),
                            scale=1.0 / (2.0 * eps * eps * p))
    amps = oracle.amplitudes(eta, eps, theta, [delta])
    if kind == "amplitude_forward":
        return oracle.close(value, amps["forward"][0])
    if kind == "amplitude_scatter":
        return oracle.close(complex(*value), amps["scatter"][0])
    want = abs(amps["full"][0]) ** 2
    if kind == "dcs":
        return oracle.probability_close(value / oracle.dcs_scale(eta, eps), want)
    return oracle.probability_close(value, want)


CHECKS = {"recipes": check_recipes, "grid-sweep": check_grid_sweep,
          "point-eval": check_point_eval}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values: list, q: float):
    """The q-quantile (0..1), or None when fewer than TAIL_SAMPLES lie beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def end_to_end(passes: list, failed: int, attempted: int) -> tuple:
    timed = [p for p in passes if "wall_s" in p and not p["traced"]]
    metrics = {
        "wall_cal": _median([p["wall_cal"] for p in timed]),
        "wall_s": _median([p["wall_s"] for p in timed]),
        # set-up in runs of worker.setup_kernel, times its nominal time
        "setup_s": _median([p["setup_s"] for p in passes if "setup_s" in p]),
        "setup_raw_s": _median([p["setup_raw_s"] for p in passes if "setup_s" in p]),
        "peak_rss_mib": _median([p["peak_rss_mib"] for p in timed]),
    }
    latencies = [r["latency_s"] * 1e3 for p in timed for r in p["records"]]
    extra = {
        "error_rate": failed / attempted if attempted else float("nan"),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p95_ms": percentile(latencies, 0.95),
        "op_samples": len(latencies),
        "passes": len(timed),
        "setup_samples": len([p for p in passes if "setup_s" in p]),
    }
    return metrics, extra


def per_layer(passes: list, names) -> dict:
    traced = [p["trace"] for p in passes if "trace" in p]
    untraced = [p["wall_s"] for p in passes if "wall_s" in p and not p["traced"]]
    walls = [p["wall_s"] for p in passes if "trace" in p]

    def med(key, default=0.0):
        return _median([t.get(key, default) for t in traced])

    out = {name: med(name) for name in names}
    out["specfun.legendre_rows.rows_per_angle"] = _median([
        t.get("specfun.legendre_rows.rows", 0.0)
        / max(t.get("specfun.legendre_rows.distinct_angles", 0), 1) for t in traced])
    out["partialwave.terms_per_s"] = _median([
        t.get("partialwave.terms", 0.0) / t["partialwave.series.self_s"]
        if t.get("partialwave.series.self_s") else 0.0 for t in traced])
    out["scan.TableCache.hit_ratio"] = _median([
        t.get("scan.TableCache.hits", 0.0) / t["scan.TableCache.lookups"]
        if t.get("scan.TableCache.lookups") else 0.0 for t in traced])
    out["tracing_overhead_s"] = _median(walls) - _median(untraced)
    return out


def missing_layers(workload: str, passes: list) -> list:
    return [key for p in passes if "trace" in p
            for key in REQUIRED_CALLS[workload] if not p["trace"].get(key)]


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def _cache_bytes() -> dict:
    """L2 and L3 sizes from the C library's sysconf (cpuid), without files."""
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        l2, l3 = libc.sysconf(191), libc.sysconf(194)
    except (OSError, AttributeError):
        return {"l2_bytes": None, "l3_bytes": None}
    return {"l2_bytes": l2 if l2 > 0 else None, "l3_bytes": l3 if l3 > 0 else None}


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(".git"):  # a checkout exported without history has none
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join("src", "coulscat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        **_cache_bytes(),
    }


# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coulscat benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not _checkout_ok():
        print("perfbench: not the root of a coulscat checkout "
              "(src/coulscat/, recipes/ and BENCHMARK.json are required)",
              file=sys.stderr)
        return 2

    # the build step: compile the package once so passes load bytecode
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                           capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        print(f"perfbench: compiling src/ failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    recipe_files = [f for f in os.listdir("recipes") if f.endswith(".cfg")]
    spec = workloads.make_spec(args.workload, args.seed, recipe_files)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(RUNS_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        passes = run_passes(spec, spec_path, run_dir, args.seconds, bool(args.trace),
                            started)
        failures = CHECKS[args.workload](spec, passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ran = [p for p in passes if not p["setup_only"]]
    attempted = sum(_planned_ops(spec, p["index"]) for p in ran)
    crashed = [p for p in passes if "crash" in p]
    failed_ops = {(f[0], f[1]) for f in failures}
    failed = len(failed_ops) + sum(_planned_ops(spec, p["index"]) for p in crashed
                                   if not p["setup_only"])
    metrics, extra = end_to_end(passes, failed, attempted)
    missing = missing_layers(args.workload, passes) if args.trace else []
    foreign = [p["coulscat_file"] for p in passes if "coulscat_file" in p
               and not os.path.abspath(p["coulscat_file"]).startswith(os.path.abspath("src"))]
    correct = not failures and not crashed and not missing and not foreign
    props = workloads.input_properties(spec, len(ran))
    facts = provenance(args.seed)

    e2e_units, layer_units = _metric_units()
    if args.trace:
        layer = per_layer(passes, layer_units)
        # the program's own repeats, beside the inputs' angle repeats
        rows_per_angle = layer["specfun.legendre_rows.rows_per_angle"]
        props["legendre_row_repeat_share"] = \
            1.0 - 1.0 / rows_per_angle if rows_per_angle else None
        shown = {k: (layer[k], u) for k, u in layer_units.items()}
    else:
        shown = {k: (metrics[k], u) for k, u in e2e_units.items()}

    print(f"perfbench {tag}: {len(ran)} passes "
          f"({sum(p['traced'] for p in ran)} traced), closed loop, one client")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    if not args.trace:
        for name in ("wall_s", "setup_raw_s"):
            print(f"  {name} = {_fmt(metrics[name])} s (not gated: moves with the host's speed)")
        print(f"  error_rate = {_fmt(extra['error_rate'])} ratio "
              f"({failed} failed of {attempted} attempted)")
        for name in ("op_p50_ms", "op_p95_ms"):
            note = "" if extra[name] is not None else \
                f" (fewer than {TAIL_SAMPLES} of {extra['op_samples']} samples beyond it)"
            print(f"  {name} = {_fmt(extra[name])} ms{note} "
                  f"[{extra['op_samples']} operations]")
    print(f"  inputs: {json.dumps(props)}")
    print(f"  machine: {json.dumps(facts)}")
    for f in failures[:10]:
        print(f"  FAILED pass {f[0]} op {f[1]}: {f[2]}")
    for p in crashed:
        print(f"  FAILED pass {p['index']}: {p['crash'][-300:]}")
    if missing:
        print(f"  FAILED layers with no calls: {sorted(set(missing))}")
    absent = sorted({a for p in passes for a in p.get("trace_absent", ())})
    hook_errors = sorted({a for p in passes for a in p.get("trace_hook_errors", ())})
    if absent:
        print(f"  not traced, absent from the package: {absent}")
    if hook_errors:
        print(f"  counters incomplete, arguments not understood: {hook_errors}")
    if foreign:
        print(f"  FAILED coulscat imported from outside src/: {foreign[0]}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": {k: v for k, (v, _u) in shown.items()},
        "end_to_end": metrics, "end_to_end_extra": extra, "inputs": props,
        "provenance": facts,
        "failures": [list(map(str, f)) for f in failures],
        "missing_layers": sorted(set(missing)),
        "trace_absent": absent, "trace_hook_errors": hook_errors,
        "passes": [{k: v for k, v in p.items() if k != "records"} for p in passes],
    }
    with open(os.path.join(RUNS_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
