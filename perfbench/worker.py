"""One benchmark pass in a fresh process: set up, run a workload, report.

    python3 perfbench/worker.py --spec SPEC.json --pass N --tmp DIR --out OUT.json
                                [--setup-only] [--trace]

Run from the root of a coulscat checkout; `src/` must be on PYTHONPATH.
The pass is a closed loop: one client sends its next call only after the
previous one returns.  Set-up (importing coulscat and building a first
table) is timed, and so is a pure-Python kernel right before and right
after it; set-up is reported raw and counted in kernel runs, to cancel the
host's swings.  Then one untimed warm-up call is made, then the workload's
operations are timed one by one.  Untraced passes sample the host's speed
with calibrate.Sampler and leave its kernel time out of every latency.
Traced passes record the spans and counters of tracer.py around the
operations (not around set-up) and do not sample.  Outputs the oracle
needs are written to OUT.json; the parent checks them.

calibrate and tracer import NumPy, so they are imported only after set-up,
whose timing includes NumPy's import.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


# a fixed, nominal time of one setup_kernel run; set-up counted in kernel
# runs, times this, reads in seconds.  The kernel took 2 to 5 ms on the
# 2-core x86_64 host the baseline was measured on.
SETUP_REFERENCE_KERNEL_S = 0.003
SETUP_KERNEL_RUNS = 5


def setup_kernel() -> float:
    """Pure-Python work like an import's module bodies; needs no NumPy."""
    table = {}
    for i in range(8000):
        table[str(i)] = (i, 2 * i)
    return float(sum(v[1] for v in table.values()))


def setup_kernel_time() -> float:
    """Median seconds of SETUP_KERNEL_RUNS setup_kernel runs, after an untimed one."""
    setup_kernel()
    times = []
    for _ in range(SETUP_KERNEL_RUNS):
        start = time.perf_counter()
        setup_kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[SETUP_KERNEL_RUNS // 2]


def _setup(eps: float):
    """Import coulscat and build a first table; returns (modules, table, seconds)."""
    start = time.perf_counter()
    import coulscat  # noqa: F401
    from coulscat import cli, kinematics, observables, partialwave, scan, specfun

    table = partialwave.build_table(kinematics.build_scenario_from_eta(10.0, eps),
                                    partialwave.PhaseShiftModel.coulomb_exact())
    seconds = time.perf_counter() - start
    modules = {"cli": cli, "kinematics": kinematics, "observables": observables,
               "partialwave": partialwave, "scan": scan, "specfun": specfun,
               "coulscat_file": coulscat.__file__}
    return modules, table, seconds


def _timed(record: dict, fn, clock):
    """Run one operation, adding its latency and any failure to `record`."""
    start = clock()
    try:
        value = fn()
    except Exception:  # an operation that raises is a failed operation
        value = None
        record["error"] = traceback.format_exc(limit=3)
    record["latency_s"] = clock() - start
    return value


def run_recipes(m: dict, spec: dict, tmp: str, _nproc: int, _ops, clock) -> list:
    cli = m["cli"]
    records = []
    for recipe in spec["recipes"]:
        out = os.path.join(tmp, recipe["file"] + ".out")
        argv = [recipe["command"], "--config", os.path.join("recipes", recipe["file"]),
                "--out", out]
        record = {"file": recipe["file"], "command": recipe["command"], "out": out}
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return cli.main(argv)

        record["exit_code"] = _timed(record, call, clock)
        if record["exit_code"] != 0 and "error" not in record:
            record["error"] = f"exit code {record['exit_code']}: {stderr.getvalue()[-500:]}"
        written = os.path.getsize(out) if os.path.exists(out) else 0
        record["bytes_written"] = (written + len(stdout.getvalue().encode())
                                   + len(stderr.getvalue().encode()))
        records.append(record)
    return records


def run_grid_sweep(m: dict, spec: dict, tmp: str, nproc: int, ops: list, clock) -> list:
    kinematics, partialwave, scan = m["kinematics"], m["partialwave"], m["scan"]
    model = partialwave.PhaseShiftModel.coulomb_exact()
    records = []
    for i, op in enumerate(ops):
        workers = nproc if op["workers"] == "N" else 1
        path = os.path.join(tmp, f"field{i}.{op['export']}")
        record = {"index": i, "path": path, "workers": workers}

        def call():
            table = partialwave.build_table(
                kinematics.build_scenario_from_eta(op["eta"], spec["eps"]), model)
            grid = scan.GridSpec(op["theta_min"], op["theta_max"], op["theta_n"],
                                 op["delta_min"], op["delta_max"], op["delta_n"])
            field = scan.sweep(table, grid, scan.Quantity(op["quantity"]),
                               workers=workers)
            export = scan.field_to_csv if op["export"] == "csv" else scan.field_to_json
            export(field, path)
            return field

        field = _timed(record, call, clock)
        if field is not None:
            row = op["check_row"]
            record["theta"] = float(field.grid.thetas[row])
            record["deltas"] = [float(field.grid.deltas[c]) for c in op["check_cols"]]
            record["values"] = [float(field.values[row, c]) for c in op["check_cols"]]
        records.append(record)
    return records


def run_point_eval(m: dict, spec: dict, _tmp: str, _nproc: int, ops: list,
                   clock) -> list:
    kinematics, observables = m["kinematics"], m["observables"]
    partialwave, scan = m["partialwave"], m["scan"]
    model = partialwave.PhaseShiftModel.coulomb_exact()
    scenarios = [kinematics.build_scenario_from_eta(eta, spec["eps"])
                 for eta in spec["pool_etas"]]
    cache = scan.TableCache()
    calls = {
        "probability": lambda t, th, d: partialwave.probability(t, th, d),
        "amplitude_forward": lambda t, th, d: partialwave.amplitude_forward(t, th, d),
        "amplitude_scatter": lambda t, th, d: partialwave.amplitude_scatter(t, th, d),
        "dcs": lambda t, th, d: observables.dcs(t, th, d),
        "delta_max_at": lambda t, th, _d: observables.delta_max_at(t, th),
        "scattering_amplitude_f":
            lambda t, th, _d: observables.scattering_amplitude_f(t, t.scenario, th),
    }
    records = []
    for i, op in enumerate(ops):
        record = {"index": i}
        fn = calls[op["kind"]]
        scenario = scenarios[op["pool_index"]]

        def call():
            table = cache.get_or_build(scenario, model)
            return fn(table, op["theta"], op["delta"])

        value = _timed(record, call, clock)
        if isinstance(value, complex):
            value = [value.real, value.imag]
        elif isinstance(value, tuple):
            value = list(value)
        record["value"] = value
        records.append(record)
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    before = setup_kernel_time()
    modules, table, setup_s = _setup(spec["eps"])
    kernel_s = 0.5 * (before + setup_kernel_time())
    result = {"setup_raw_s": setup_s, "setup_kernel_s": kernel_s,
              "setup_s": setup_s / kernel_s * SETUP_REFERENCE_KERNEL_S,
              "coulscat_file": modules["coulscat_file"]}
    if not args.setup_only:
        # untimed warm-up call
        modules["partialwave"].probability(table, 0.5, 0.0)
        nproc = os.cpu_count() or 1
        workload = spec["workload"]
        run = {"recipes": run_recipes, "grid-sweep": run_grid_sweep,
               "point-eval": run_point_eval}[workload]
        ops = None if workload == "recipes" else spec["passes"][args.pass_index]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install(modules)
            records = run(modules, spec, args.tmp, nproc, ops, time.perf_counter)
        else:
            import calibrate  # after set-up; see the module docstring

            with calibrate.Sampler() as sampler:
                records = run(modules, spec, args.tmp, nproc, ops, sampler.clock)
            result["wall_cal"] = sampler.calibrated()
            result["samples"] = len(sampler.samples)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = sum(r["latency_s"] for r in records)
        if tracer is not None:
            tracer.uninstall()
            result["trace_absent"] = tracer.absent
            result["trace_hook_errors"] = sorted(tracer.hook_errors)
            result["trace"] = tracer.summary()
            result["trace"]["cli.bytes_written"] = sum(
                r.get("bytes_written", 0) for r in records)
        result["records"] = records
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
