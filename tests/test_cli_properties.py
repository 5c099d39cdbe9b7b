"""Property test of the CLI's input boundary: whatever arguments the six
commands that take them are given, `main()` returns 0, 2, 3 or 4 and never
raises.  `selftest` takes no arguments and runs for seconds, so it is left
out.

Grids that run stay small (at most 400 angles) and `--eps` lies in
[0.01, 0.09] (so L <= 600), so no example allocates much memory.  Energies
run up to 300 MeV and sphere grids to 400 intervals, so that `energy-scan`
finds energies inside the strength bound and `conservation` resolves the
forward peak: every command reaches exit 0 in some examples.  Invalid
values (reversed or out-of-range bounds, zero or negative sizes, NaN and
infinities) are drawn on purpose.  So are `--theta-n` (`angular`) and
`--sphere-n` (`conservation`) of at least 2^27 angles, which need over
6 GB even with one delta, and `--eta-n` (`optical`) and `--e-n`
(`energy-scan`) of at least 2^27 etas or energies, which need over 26 GB
with their rows, so the memory budget refuses them (exit 4) before any
angle, eta or energy exists.
So are masses and energies from the whole positive float range, subnormals
and 1e308 included, and charges past the float range, whose derived
kinematics (p, beta, sigma_x, R) overflow or underflow, and `profile-delta`
steps and bounds of extreme magnitude, whose count of deltas overflows a
float or the memory budget.
The examples are derandomized, but they are not fixed: Hypothesis mixes
constants from the source of the modules loaded in the process into its
float draws, so which 200 are drawn depends on what else the run
imported, and running this file alone can draw other examples than the
whole suite does.
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


# every positive float, with the extremes drawn for sure
_WIDE = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                  st.sampled_from([5e-324, 1e-300, 1e300, 1e308]))


# magnitudes at the ends of the float range, subnormals and the largest
# finite float included, for profile-delta's steps and bounds: with them a
# scan's count of deltas is either beyond any float or the memory budget,
# or below 4e4 (a step of at least 1e304), so no example allocates much
_TINY = st.floats(min_value=0.0, max_value=1e-9, exclude_min=True)
_HUGE = st.floats(min_value=1e304, allow_infinity=False)
_EXTREME_STEP = st.one_of(_TINY, _HUGE, st.sampled_from([5e-324, 1e-310, 1e307, 1e308]))
_EXTREME_BOUND = st.one_of(_TINY, _HUGE, st.sampled_from([1e300, 1e308, 1.7e308])).flatmap(
    lambda x: st.sampled_from([x, -x]))


# a count argparse refuses, or one the memory budget refuses before any
# angle, eta or energy exists
_BAD_COUNT = st.one_of(st.integers(-1, 0), st.integers(2 ** 27, 2 ** 40))


def _flag(name, values):
    """`[name=value]` or nothing, with the value drawn from `values`; the `=`
    form lets values such as `-inf` and `-1e-05` reach the program, which
    argparse would otherwise take for flags."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


# the commands that take the model flags (energy, --model, --l-max and the
# square well's) and `--format`; every command takes `--eps` and
# `--tail-tol` (see cli.build_parser)
_TAKES_MODEL = {"profile-delta", "angular", "conservation", "optical", "table-dump"}
_TAKES_FORMAT = {"profile-delta", "angular", "optical", "energy-scan"}


@st.composite
def _common(draw, command, model):
    """The flags `command` takes besides its own; `optical` takes an energy
    and a well radius in its square-well mode only."""
    argv = [f"--eps={draw(st.floats(0.01, 0.09))}"]
    argv += draw(_flag("--mass-mev", st.one_of(st.floats(0.5, 1e4), _WIDE)))
    for name in ("--Z1", "--Z2"):
        argv += draw(_flag(name, _mostly(st.integers(-100, 100),
                                         st.sampled_from([10 ** 310, -(10 ** 400)]))))
    tail_tol = _flag("--tail-tol", _mostly(st.sampled_from([1e-12, 1e-6]),
                                           st.sampled_from([0.0, -1.0, *ODD])))
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
        argv += [f"{energy}={draw(st.one_of(_num(-1.0, 50.0), _WIDE))}"]
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
        argv += draw(_flag("--delta-step", st.one_of(
            _mostly(st.floats(0.1, 2.0), st.sampled_from([0.0, -0.2, *ODD])), _EXTREME_STEP)))
        argv += draw(_flag("--delta-min", st.one_of(_num(-30.0, 30.0), _EXTREME_BOUND)))
        argv += draw(_flag("--delta-max", st.one_of(_num(-30.0, 30.0), _EXTREME_BOUND)))
    elif command == "angular":
        argv += draw(_flag("--delta", st.one_of(st.just("auto"), _num(-20.0, 20.0))))
        argv += draw(_flag("--theta-min", _mostly(st.floats(0.0, 1.5), _num(-0.5, 3.5))))
        argv += draw(_flag("--theta-max", _mostly(st.floats(1.5, 3.14), _num(-0.5, 3.5))))
        argv += [f"--theta-n={draw(_mostly(st.integers(1, 12), _BAD_COUNT))}"]
    elif command == "conservation":
        argv += [f"--sphere-n={draw(_mostly(st.integers(1, 400), _BAD_COUNT))}"]
    elif command == "optical" and model != "square-well":
        argv += [f"--eta-min={draw(_mostly(st.floats(0.01, 1.0), _num(-1.0, 20.0)))}"]
        argv += [f"--eta-max={draw(_mostly(st.floats(1.0, 3.0), _num(-1.0, 20.0)))}"]
        argv += [f"--eta-n={draw(_mostly(st.integers(1, 3), _BAD_COUNT))}"]
    elif command == "energy-scan":
        if draw(st.booleans()):
            energies = draw(st.lists(st.one_of(_num(-5.0, 3e5), _WIDE),
                                     min_size=1, max_size=3))
            argv += ["--energies-kev=" + ",".join(map(str, energies))]
        else:
            argv += draw(_flag("--e-min-kev", _num(-5.0, 3e5)))
            argv += draw(_flag("--e-max-kev", _num(-5.0, 3e5)))
            argv += [f"--e-n={draw(_mostly(st.integers(1, 3), _BAD_COUNT))}"]
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
