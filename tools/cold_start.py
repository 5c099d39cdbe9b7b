"""Time the eight published recipes as users run them: each run a fresh
interpreter that imports `coulscat.cli` and calls `main` once, as the
`coulscat` console script does.

    PYTHONPATH=src python tools/cold_start.py [-n N]

Run from the root of a checkout.  Each recipe runs N times (default 7);
one line per recipe gives the median wall time of a run, the median peak
resident set of the child and the number of modules it had loaded when
`main` returned.  Two reference lines do the same for `import numpy` alone
and `import coulscat.cli` alone, a third ("8 recipes, one process") for
one child that runs every recipe through `main` in turn, a process whose
evaluations come in several sizes, and a fourth for a sweep as a library
user runs one: a 48 x 800 `scan.sweep` at eta = 800, then `field_to_json`
of the field (to the null device).  The lines take
turns, one run each per round, so a drift in the host's speed moves every
line alike.  The package is compiled to bytecode
first, so no run pays for compiling it.  Out files go to a temporary
directory that is removed afterwards.  Exit status 1 when a run exits
non-zero (each line prints its exit codes), else 0.  Standard library only;
peak memory is read with `os.wait4`, so this runs on Unix only.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# this tool's directory is on sys.path when it runs as a script
from digests import find_recipes

# each child reports its module count on a line of its own, last on stderr
_REPORT = "print('modules', len(sys.modules), file=sys.stderr)"
_SWEEP = """import os, sys
from coulscat import scan
from coulscat.kinematics import build_scenario_from_eta
from coulscat.partialwave import PhaseShiftModel, build_table
table = build_table(build_scenario_from_eta(800.0, 1e-3), PhaseShiftModel.coulomb_exact())
field = scan.sweep(table, scan.GridSpec(0.2, 2.2, 48, -4.0, 10.0, 800),
                   scan.Quantity.PROBABILITY)
scan.field_to_json(field, os.devnull)
"""
REFERENCES = {
    "import numpy": "import sys\nimport numpy\n" + _REPORT,
    "import coulscat.cli": "import sys\nimport coulscat.cli\n" + _REPORT,
    "sweep 48 x 800, json": _SWEEP + _REPORT,
}
_RECIPE = ("import sys\nfrom coulscat.cli import main\ncode = main({argv!r})\n"
           + _REPORT + "\nsys.exit(code)")
# every recipe in one child; it exits with the first non-zero exit code
_ALL_RECIPES = ("import sys\nfrom coulscat.cli import main\n"
                "codes = [main(argv) for argv in {argvs!r}]\n"
                + _REPORT + "\nsys.exit(next((c for c in codes if c), 0))")


def run_child(script: str, log: Path) -> tuple:
    """(exit code, wall seconds, peak RSS in MiB, modules loaded) of one
    fresh `python -c script`, its stderr kept in `log`."""
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own rusage; getrusage(RUSAGE_CHILDREN)
        # would give the largest of all children so far
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        last = (err.read().decode(errors="replace").splitlines() or [""])[-1].split()
    modules = int(last[1]) if len(last) == 2 and last[0] == "modules" else -1
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, modules


def report(name: str, results: list) -> list:
    """Print one line for the `run_child` results of one script; return
    their exit codes."""
    codes = [r[0] for r in results]
    print(f"{name:<34} wall {statistics.median(r[1] for r in results) * 1e3:7.1f} ms"
          f"  rss {statistics.median(r[2] for r in results):6.1f} MiB"
          f"  modules {results[-1][3]:4d}  exit {','.join(map(str, sorted(set(codes))))}")
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", "--runs", type=int, default=7,
                        help="fresh runs per line (default 7)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    recipes = find_recipes(Path("recipes"))
    # found, not imported: a child's peak resident set, as wait4 reports it,
    # includes this process's at the fork, so this process stays the smaller
    spec = importlib.util.find_spec("coulscat")
    if spec is None or spec.origin is None:
        print("coulscat is not importable; run with PYTHONPATH=src", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.dirname(spec.origin), quiet=1)

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "stderr"
        lines = dict(REFERENCES)
        argvs = [[command, "--config", str(recipe), "--out", str(Path(tmp) / "out")]
                 for recipe, command in recipes]
        lines[f"{len(recipes)} recipes, one process"] = _ALL_RECIPES.format(argvs=argvs)
        for (recipe, _command), argv in zip(recipes, argvs):
            lines[recipe.name] = _RECIPE.format(argv=argv)
        results = {name: [] for name in lines}
        for _ in range(args.runs):
            for name, script in lines.items():
                results[name].append(run_child(script, log))
    failed = [name for name, rs in results.items() if any(report(name, rs))]
    if failed:
        print("non-zero exit: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
