"""Property test of the CLI's input boundary: whatever arguments the six
commands that take them are given, `main()` returns 0, 2, 3 or 4 and never
raises.  `selftest` takes no arguments and runs for seconds, so it is left
out.

Grids stay small (at most 400 angles), `--eps` lies in [0.01, 0.09] (so
L <= 600) and `--workers` is at most 2, so no example allocates much memory
or starts more than two threads.  Energies run up to 300 MeV and sphere
grids to 400 intervals, so that `energy-scan` finds energies inside the
strength bound and `conservation` resolves the forward peak: every command
reaches exit 0 in some examples.  Invalid values (reversed or out-of-range
bounds, zero or negative sizes, NaN and infinities) are drawn on purpose.
The examples are derandomized, so every run of the suite draws the same
200.
"""

import math
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coulscat.cli import main

ODD = [math.nan, math.inf, -math.inf]


def _mostly(valid, invalid):
    """`valid` seven times in eight, else `invalid`, so that most examples
    run a command to the end and the rest probe its checks."""
    return st.tuples(st.integers(0, 7), valid, invalid).map(
        lambda t: t[2] if t[0] == 0 else t[1])


def _num(lo, hi):
    return _mostly(st.floats(lo, hi), st.sampled_from(ODD))


def _flag(name, values):
    """`[name=value]` or nothing, with the value drawn from `values`; the `=`
    form lets values such as `-inf` and `-1e-05` reach the program, which
    argparse would otherwise take for flags."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


# the commands that take the model flags (energy, --model, --l-max and the
# square well's) and `--format`; every command takes `--eps` and
# `--tail-tol`, and only `angular` takes `--workers` (see cli.build_parser)
_TAKES_MODEL = {"profile-delta", "angular", "conservation", "optical", "table-dump"}
_TAKES_FORMAT = {"profile-delta", "angular", "optical", "energy-scan"}


@st.composite
def _common(draw, command, model):
    """The flags `command` takes besides its own; `optical` takes an energy
    and a well radius in its square-well mode only."""
    argv = [f"--eps={draw(st.floats(0.01, 0.09))}"]
    tail_tol = _flag("--tail-tol", _mostly(st.sampled_from([1e-12, 1e-6]),
                                           st.sampled_from([0.0, -1.0, *ODD])))
    if command == "angular":
        argv += draw(_flag("--workers", _mostly(st.integers(1, 2), st.integers(-1, 0))))
    if command in _TAKES_FORMAT:
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command not in _TAKES_MODEL:
        return argv + draw(tail_tol)
    argv += ["--model", model]
    l_max = _flag("--l-max", _mostly(st.integers(50, 400), st.integers(-2, 49)))
    # at most one of the two truncation flags, or both, which the CLI rejects
    argv += draw(_mostly(st.one_of(tail_tol, l_max),
                         st.tuples(tail_tol, l_max).map(lambda t: t[0] + t[1])))
    if command == "optical" and model != "square-well":
        return argv
    energy = draw(_mostly(st.just("--eta"),
                          st.sampled_from(["--energy-kev", "--energy-mev", None])))
    if energy == "--eta":
        argv += [f"--eta={draw(_mostly(st.floats(-3.0, 3.0), _num(-100.0, 100.0)))}"]
    elif energy is not None:
        argv += [f"{energy}={draw(_num(-1.0, 50.0))}"]
    if model == "square-well":
        argv += [f"--well-radius-fm={draw(_num(-1.0, 50.0))}"]
        argv += draw(_flag("--well-depth-mev", _num(-1.0, 5.0)))
    return argv


@st.composite
def _command(draw):
    command = draw(st.sampled_from(["profile-delta", "angular", "conservation",
                                    "optical", "energy-scan", "table-dump"]))
    model = draw(_mostly(st.sampled_from(["coulomb-exact", "coulomb-asym"]),
                         st.just("square-well")))
    argv = [command]
    if command == "profile-delta":
        argv += [f"--theta={draw(_mostly(st.floats(0.0, 3.14), _num(-0.5, 3.5)))}"]
        argv += draw(_flag("--delta-step", _mostly(st.floats(0.1, 2.0),
                                                   st.sampled_from([0.0, -0.2, *ODD]))))
        argv += draw(_flag("--delta-min", _num(-30.0, 30.0)))
        argv += draw(_flag("--delta-max", _num(-30.0, 30.0)))
    elif command == "angular":
        argv += draw(_flag("--delta", st.one_of(st.just("auto"), _num(-20.0, 20.0))))
        argv += draw(_flag("--theta-min", _mostly(st.floats(0.0, 1.5), _num(-0.5, 3.5))))
        argv += draw(_flag("--theta-max", _mostly(st.floats(1.5, 3.14), _num(-0.5, 3.5))))
        argv += [f"--theta-n={draw(_mostly(st.integers(1, 12), st.integers(-1, 0)))}"]
    elif command == "conservation":
        argv += [f"--sphere-n={draw(_mostly(st.integers(1, 400), st.integers(-1, 0)))}"]
    elif command == "optical" and model != "square-well":
        argv += [f"--eta-min={draw(_mostly(st.floats(0.01, 1.0), _num(-1.0, 20.0)))}"]
        argv += [f"--eta-max={draw(_mostly(st.floats(1.0, 3.0), _num(-1.0, 20.0)))}"]
        argv += [f"--eta-n={draw(_mostly(st.integers(1, 3), st.integers(-1, 0)))}"]
    elif command == "energy-scan":
        if draw(st.booleans()):
            energies = draw(st.lists(_num(-5.0, 3e5), min_size=1, max_size=3))
            argv += ["--energies-kev=" + ",".join(map(str, energies))]
        else:
            argv += draw(_flag("--e-min-kev", _num(-5.0, 3e5)))
            argv += draw(_flag("--e-max-kev", _num(-5.0, 3e5)))
            argv += [f"--e-n={draw(_mostly(st.integers(1, 3), st.integers(-1, 0)))}"]
    out = draw(_mostly(st.just("file"), st.sampled_from(["-", None])))
    return argv + draw(_common(command, model)), out


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_command())
def test_main_returns_an_exit_status_and_never_raises(case):
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # flat-profile and numpy overflow warnings are outputs, not failures
        warnings.simplefilter("ignore")
        if out == "file":
            argv = argv + ["--out", f"{tmp}/out"]
        elif out == "-":
            argv = argv + ["--out", "-"]
        assert main(argv) in (0, 2, 3, 4)
