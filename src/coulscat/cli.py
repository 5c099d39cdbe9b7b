"""Command-line front end.

Commands reproduce the headline data sets (delta profiles, angular curves,
conservation checks, optical-theorem ratio, energy scans, per-l table dumps)
and emit CSV or JSON for external plotting.  CSV bodies are deterministic:
17 significant digits, no timestamps (the JSON envelope carries one).

Exit status: 0 success, 2 configuration error, 3 tolerance breach,
4 resource limit (the memory budget, or an allocation that failed).  The
parser checks each number that one flag can be checked for alone, before
any work; a command checks the rules between its flags, and the library
the rules its own callers also need.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from . import observables, partialwave, scan
from .errors import (
    CoulscatWarning,
    MatchingError,
    NonConvergenceError,
    ResourceLimitError,
    ScenarioError,
    StrengthBoundError,
    UndefinedRatioError,
)
from .kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    HBARC_MEV_FM,
    build_scenario,
    build_scenario_from_eta,
)
from .partialwave import PhaseShiftModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_RESOURCE = 4

_MODEL_CHOICES = ("coulomb-exact", "coulomb-asym", "square-well")


def _typed(convert, ok, rule: str):
    """An argparse `type`: the value `convert` makes of the text, if ok(value);
    else an error that argparse reports in one line naming the flag."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


_count = _typed(int, lambda n: n >= 1, "an integer >= 1")
# a charge a float holds exactly, so that Z1 Z2 alpha is a finite float
_charge = _typed(int, lambda z: abs(z) <= 2 ** 53, "an integer of magnitude at most 2**53")
_finite = _typed(float, math.isfinite, "a finite number")
_positive = _typed(float, lambda x: math.isfinite(x) and x > 0.0,
                   "a positive finite number")
_delta = _typed(lambda text: text if text == "auto" else float(text),
                lambda d: d == "auto" or math.isfinite(d), "'auto' or a finite number")


def _energies(text: str) -> list[float]:
    """Comma-separated energies, each checked as `_positive` checks one."""
    return [_positive(e) for e in text.split(",")]


# bytes an eta of `optical`'s sweep and an energy of `energy-scan`'s hold
# at the command's peak: its float64 and its row, a tuple of four floats in
# a list (and an energy's numpy float in the list of energies).  tracemalloc
# on CPython 3.11 with numpy 2.4 read 193 and 208 bytes an item (the peak's
# growth from 10^4 to 3 x 10^4 etas and from 5,000 to 15,000 energies)
_ETA_BYTES = 200
_ENERGY_BYTES = 216


def _check_count(count: int, item_bytes: int, items: str) -> None:
    """Refuse a sweep of `count` items of `item_bytes` each that would not
    fit in the memory budget (exit 4), before numpy makes any of them."""
    need = count * item_bytes
    if need > partialwave.DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(f"{count} {items} need {need} bytes (their values and "
                                 f"rows), budget is {partialwave.DEFAULT_MEMORY_BUDGET}")


def _write_table(args, columns: str, rows, **meta) -> None:
    """Write `rows` as CSV under the comma-separated `columns` header or, with
    `--format json`, as one document: the command, `meta`, columns and rows,
    a non-finite value as null (JSON has no infinity).  Either way the rows
    are written as they come, none held."""
    if args.format in (None, "csv"):
        scan.write_csv(args.out, columns, rows)
    else:
        scan.write_json(args.out, {
            "command": args.command, **meta, "columns": columns.split(","),
            "rows": ([v if math.isfinite(v) else None for v in map(float, row)]
                     for row in rows),
        })


def _summarize(data_on_stdout: bool, *lines: str) -> None:
    """Print summary lines to stdout, or to stderr when the data go there."""
    print(*lines, sep="\n", file=sys.stderr if data_on_stdout else sys.stdout)


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    """The flags every command with arguments reads: the config file, the
    particles and eps."""
    parser.add_argument("--config", help="key = value file; flags given on the "
                        "command line override it")
    parser.add_argument("--Z1", type=_charge, default=79)
    parser.add_argument("--Z2", type=_charge, default=2)
    parser.add_argument("--mass-mev", type=float, default=ALPHA_PARTICLE_MASS_MEV)
    parser.add_argument("--eps", type=float, default=1e-3)


def _add_model(parser: argparse.ArgumentParser) -> None:
    """The flags that pick one table: its energy, its phase-shift model and
    its truncation, by `--tail-tol` or `--l-max` (argparse rejects both)."""
    energy = parser.add_mutually_exclusive_group()
    energy.add_argument("--energy-kev", type=float)
    energy.add_argument("--energy-mev", type=float)
    energy.add_argument("--eta", type=float)
    parser.add_argument("--model", choices=_MODEL_CHOICES, default="coulomb-exact")
    truncation = parser.add_mutually_exclusive_group()
    truncation.add_argument("--tail-tol", type=float)
    truncation.add_argument("--l-max", type=int)
    parser.add_argument("--well-depth-mev", type=float)
    parser.add_argument("--well-radius-fm", type=float)


def _add_output(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    """`--out`, and `--format` for the commands that write either format."""
    parser.add_argument("--out", help="output path ('-' or omitted = stdout)")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"))


def _reject_given(mode: str, flags) -> None:
    """Reject the first of `flags`, (flag, value) pairs of flags that default
    to None, that was given: `mode` does not read it."""
    for flag, value in flags:
        if value is not None:
            raise ValueError(f"{flag} does not apply to {mode}")


def _scenario_from_args(args):
    if args.eta is not None:
        return build_scenario_from_eta(args.eta, args.eps, Z1=args.Z1, Z2=args.Z2,
                                       m0=args.mass_mev)
    if args.energy_kev is None and args.energy_mev is None:
        raise ValueError("specify one of --energy-kev, --energy-mev or --eta")
    e_mev = args.energy_mev if args.energy_mev is not None else args.energy_kev * 1e-3
    return build_scenario(args.Z1, args.Z2, args.mass_mev, e_mev, args.eps)


def _check_l_max(args, scenario) -> None:
    """Refuse a given `--l-max` below `choose_l_max(eps, 1e-3)`, where the
    weights' tail beyond it, exp(-2 eps^2 (l_max + 1/2)^2), exceeds 1e-3, the
    ceiling of `--tail-tol`: a series cut inside its weights' width sums to
    numbers that mean nothing.  `table-dump` sums nothing and takes any."""
    if args.l_max is None or args.command == "table-dump":
        return
    floor = partialwave.choose_l_max(scenario.eps, 1e-3)
    if args.l_max < floor:
        raise ValueError(f"--l-max {args.l_max} cuts the series inside its weights "
                         f"at eps = {scenario.eps:g}; the smallest admissible is {floor}")


def _model_from_args(args, scenario) -> PhaseShiftModel:
    """The phase-shift model the flags ask for, after `_check_l_max`."""
    _check_l_max(args, scenario)
    if args.model != "square-well":
        _reject_given(f"--model {args.model}",
                      (("--well-depth-mev", args.well_depth_mev),
                       ("--well-radius-fm", args.well_radius_fm)))
        if args.model == "coulomb-exact":
            return PhaseShiftModel.coulomb_exact()
        return PhaseShiftModel.coulomb_asymptotic()
    if args.well_radius_fm is None:
        raise ValueError("square-well model requires --well-radius-fm")
    radius = args.well_radius_fm / HBARC_MEV_FM
    depth = 0.5 if args.well_depth_mev is None else args.well_depth_mev
    # the phase shifts cover the table's l_max, resolved before they are made
    l_max = partialwave.resolve_l_max(scenario.eps, args.tail_tol, args.l_max)
    return partialwave.square_well_phase_shifts(depth, radius, scenario, l_max)


def _table_from_args(args, scenario=None):
    """(scenario, table) the flags ask for; `scenario` replaces the flags'."""
    if scenario is None:
        scenario = _scenario_from_args(args)
    model = _model_from_args(args, scenario)
    table = partialwave.build_table(scenario, model, tail_tol=args.tail_tol,
                                    l_max=args.l_max)
    return scenario, table


def cmd_profile_delta(args) -> int:
    if args.theta is None:
        raise ValueError("profile-delta requires --theta (flag or config file)")
    if (args.delta_min is not None and args.delta_max is not None
            and args.delta_min > args.delta_max):
        raise ValueError(f"--delta-min must be <= --delta-max, got "
                         f"{args.delta_min:g} > {args.delta_max:g}")
    scenario, table = _table_from_args(args)
    # a given bound widens to cover [-8, 8]; None is the default window's
    lo = None if args.delta_min is None else min(args.delta_min, -8.0)
    hi = None if args.delta_max is None else max(args.delta_max, 8.0)
    # the table is the profile's own coarse scan: one Legendre row, one set
    # of moments
    prof = observables.delta_profile(table, [args.theta], (lo, hi), args.delta_step)
    _write_table(args, "delta,probability",
                 zip(prof.deltas.tolist(), prof.p_scan[0].tolist()), theta=args.theta,
                 eta=scenario.eta, eps=scenario.eps, delta_max=float(prof.delta_max[0]),
                 p_max=float(prof.p_max[0]))
    _summarize(args.out in (None, "-"), f"theta={args.theta:g} eta={scenario.eta:g}: "
               f"delta_max={prof.delta_max[0]:+.4f} p_max={prof.p_max[0]:.6e}")
    return EXIT_OK


def cmd_angular(args) -> int:
    auto = args.delta == "auto"
    dval = 0.0 if auto else args.delta
    # both delta modes check the angle bounds here, before any evaluation
    grid = scan.GridSpec(args.theta_min, args.theta_max, args.theta_n, dval, dval, 1)
    scenario, table = _table_from_args(args)
    if auto:
        # the budget before the angles, and no coarse scan kept
        prof = observables.delta_peaks(table, grid.theta_n, lambda: grid.thetas)
        thetas, probs = prof.thetas, prof.p_max
    else:
        # the sweep checks the budget before it builds its angles, and the
        # weights keep P within its unitarity check (tests/test_scan.py)
        probs = scan.sweep(table, grid, scan.Quantity.PROBABILITY).values[:, 0]
        thetas = grid.thetas
    pref = observables.dcs_factor(scenario)

    def rows():
        for t, p in zip(map(float, thetas), map(float, probs)):
            ruth = observables.rutherford_probability(scenario, t)
            yield (t, p, ruth, p * pref, observables.rutherford_dcs(scenario, t),
                   p / ruth if ruth else 0.0)

    _write_table(args, "theta,probability,rutherford_probability,dcs,rutherford_dcs,ratio",
                 rows(), eta=scenario.eta, eps=scenario.eps)
    return EXIT_OK


def cmd_conservation(args) -> int:
    scenario, table = _table_from_args(args)
    # L ~ 6/eps intervals, pi eps / 6 wide, resolve the forward peak, about
    # 2 eps wide
    n = args.sphere_n or partialwave.choose_l_max(scenario.eps)
    wsum = observables.conservation_weight_sum(table)
    # the budget before the angles, and no coarse scan kept
    sphere = observables.probability_sphere_integral(table, observables.delta_peaks(
        table, n, lambda: observables.midpoint_thetas(n)))
    # the sum rule holds to O(eps^2); 1e-5 is the eps = 1e-3 allowance
    wsum_tol = max(1e-5, scenario.eps ** 2)
    wsum_ok = abs(wsum - 1.0) <= wsum_tol
    sphere_ok = abs(sphere - 1.0) <= 0.01
    _summarize(args.out == "-",
               f"weight sum        = {wsum:.9f}  (|.-1| <= {wsum_tol:g}: "
               f"{'ok' if wsum_ok else 'BREACH'})",
               f"sphere integral   = {sphere:.6f}  ({n} midpoint intervals, "
               f"|.-1| <= 0.01: {'ok' if sphere_ok else 'BREACH'})")
    if args.out:
        scan.write_json(args.out, {
            "command": "conservation", "eta": scenario.eta, "eps": scenario.eps,
            "weight_sum": wsum, "sphere_integral": sphere,
            "sphere_intervals": n,
        })
    return EXIT_OK if (wsum_ok and sphere_ok) else EXIT_TOLERANCE


def cmd_optical(args) -> int:
    if args.model == "square-well":
        _reject_given("the square-well check, which takes one energy and "
                      "writes JSON",
                      (("--eta-min", args.eta_min), ("--eta-max", args.eta_max),
                       ("--eta-n", args.eta_n), ("--format", args.format)))
        scenario = _scenario_from_args(args)
        model = _model_from_args(args, scenario)
        check = observables.optical_theorem_check_short_range(model, scenario)
        _summarize(args.out == "-", f"sigma             = {check.sigma:.10e}",
                   f"(4 pi / p) Im f0  = {check.optical_sigma:.10e}",
                   f"relative diff     = {check.rel_diff:.3e}")
        if args.out:
            scan.write_json(args.out, {
                "command": "optical", "model": "square-well",
                "sigma": check.sigma, "optical_sigma": check.optical_sigma,
                "rel_diff": check.rel_diff,
            })
        return EXIT_OK
    _reject_given("the Coulomb sweep, which runs from --eta-min to --eta-max",
                  (("--energy-kev", args.energy_kev), ("--energy-mev", args.energy_mev),
                   ("--eta", args.eta)))
    if args.eta_min is None or args.eta_max is None:
        raise ValueError("optical sweep requires --eta-min and --eta-max")
    if args.eta_max < args.eta_min:
        raise ValueError(f"optical sweep requires --eta-max >= --eta-min, got "
                         f"{args.eta_max:g} < {args.eta_min:g}")
    n_eta = args.eta_n or 25
    _check_count(n_eta, _ETA_BYTES, "etas")
    etas = np.geomspace(args.eta_min, args.eta_max, n_eta)
    rows = []
    for eta in etas:
        scenario, table = _table_from_args(args, build_scenario_from_eta(
            float(eta), args.eps, Z1=args.Z1, Z2=args.Z2, m0=args.mass_mev))
        gamma = observables.optical_ratio(table)
        sigma = observables.total_cross_section(table, scenario)
        f0 = observables.scattering_amplitude_f(table, scenario, 0.0)
        rows.append((float(eta), gamma, sigma, f0.imag))
    _write_table(args, "eta,gamma,sigma,im_f0", rows, eps=args.eps)
    return EXIT_OK


def cmd_energy_scan(args) -> int:
    family = observables.ScenarioFamily(args.Z1, args.Z2, args.mass_mev, args.eps)
    if args.energies_kev is not None:
        _reject_given("--energies-kev, which lists the energies",
                      (("--e-min-kev", args.e_min_kev), ("--e-max-kev", args.e_max_kev),
                       ("--e-n", args.e_n)))
        energies = args.energies_kev
    else:
        e_min, e_max = args.e_min_kev or 3.8, args.e_max_kev or 200.0
        if e_max < e_min:
            raise ValueError(f"energy scan requires --e-max-kev >= --e-min-kev, got "
                             f"{e_max:g} < {e_min:g}")
        e_n = args.e_n or 6
        _check_count(e_n, _ENERGY_BYTES, "energies")
        energies = list(np.geomspace(e_min, e_max, e_n))
    rows = []
    for ek in energies:
        try:
            rho, eta, dmax = observables.energy_ratio_rho(
                family, ek * 1e-3, tail_tol=args.tail_tol)
        except (StrengthBoundError, ScenarioError, UndefinedRatioError) as exc:
            # past the strength bound, or kinematics or a ratio this energy
            # leaves undefined: the other energies still have their rows
            print(f"warning: skipping E={ek:g} keV: {exc}", file=sys.stderr)
            continue
        rows.append((float(ek), eta, dmax, rho))
    if not rows:
        raise ValueError("every energy exceeds the strength bound or has no defined rho; "
                         "no table written")
    _write_table(args, "E_keV,eta,delta_max,rho", rows, eps=args.eps)
    return EXIT_OK


def cmd_table_dump(args) -> int:
    if args.out in (None, "-"):
        raise ValueError("table-dump requires --out")
    _scenario, table = _table_from_args(args)
    scan.write_csv(args.out, "l,weight,cos2sigma,sin2sigma,xi",
                   zip(range(table.l_max + 1), table.weight.tolist(),
                       table.phase_cos.tolist(), table.phase_sin.tolist(),
                       table.xi.tolist()))
    print(f"wrote l_max={table.l_max} table to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here: the acceptance oracles load scipy.special, which no
    # other command needs
    from . import acceptance

    results = acceptance.run_all(report=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_TOLERANCE


_ENERGY_KEYS = ("energy-kev", "energy-mev", "eta")


def _config_tokens(path: str, energy_given: bool) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` tokens, with
    `_` in a key read as `-`; the `=` form lets values such as -10 reach
    argparse, which would otherwise take them for flags.  With
    `energy_given`, the file's energy lines are dropped."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key == "config":
                raise ValueError(f"{path}: a config file cannot name another (key 'config')")
            if not (energy_given and key in _ENERGY_KEYS):
                tokens.append(f"--{key}={value.strip()}")
    return tokens


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line on stderr, without the
    usage block; `--help` still prints the full text."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing does not change it."""
    parser = _Parser(
        prog="coulscat",
        description="Wavepacket Coulomb scattering by partial-wave summation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile-delta", help="P(theta, delta) profile at fixed theta")
    _add_scenario(p)
    _add_model(p)
    _add_output(p)
    p.add_argument("--theta", type=float, help="scattering angle (radians); "
                   "required here or in the config file")
    p.add_argument("--delta-min", type=_finite)
    p.add_argument("--delta-max", type=_finite)
    p.add_argument("--delta-step", type=_positive,
                   help="exact spacing of the deltas (default: the delta-peak "
                   "search's own scan, the one delta_max_at, conservation and "
                   "angular's auto delta run)")
    p.set_defaults(func=cmd_profile_delta)

    p = sub.add_parser("angular", help="angular curve at fixed or auto delta")
    _add_scenario(p)
    _add_model(p)
    _add_output(p)
    p.add_argument("--delta", type=_delta, default="auto",
                   help="fixed delta value or 'auto' (per-theta peak)")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--theta-n", type=_count, default=200)
    p.set_defaults(func=cmd_angular)

    p = sub.add_parser("conservation", help="weight sum and sphere integral")
    _add_scenario(p)
    _add_model(p)
    _add_output(p, formats=False)
    p.add_argument("--sphere-n", type=_count,
                   help="midpoint intervals on [0, pi] (default: choose_l_max(eps))")
    p.set_defaults(func=cmd_conservation)

    p = sub.add_parser("optical", help="optical-theorem ratio gamma(eta)")
    _add_scenario(p)
    _add_model(p)
    _add_output(p)
    # gamma is undefined at eta = 0, the free case
    p.add_argument("--eta-min", type=_positive)
    p.add_argument("--eta-max", type=_finite)
    p.add_argument("--eta-n", type=_count)
    p.set_defaults(func=cmd_optical)

    p = sub.add_parser("energy-scan", help="rho(E) over an energy range")
    _add_scenario(p)
    p.add_argument("--tail-tol", type=float)
    _add_output(p)
    p.add_argument("--energies-kev", type=_energies, help="comma-separated energies in keV")
    # the range's flags default to None, so that one given beside
    # --energies-kev is seen and refused
    p.add_argument("--e-min-kev", type=_positive)
    p.add_argument("--e-max-kev", type=_positive)
    p.add_argument("--e-n", type=_count)
    p.set_defaults(func=cmd_energy_scan)

    p = sub.add_parser("table-dump", help="per-l weights, phases and shifts")
    _add_scenario(p)
    _add_model(p)
    _add_output(p, formats=False)
    p.set_defaults(func=cmd_table_dump)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse `argv`.  A `--config` file's lines go in as flags right after
    the command name, so argparse checks them as it checks flags and a flag
    on the command line wins; an energy on the command line replaces the
    file's energy."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    energy_given = any(getattr(args, key.replace("-", "_"), None) is not None
                       for key in _ENERGY_KEYS)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + _config_tokens(args.config, energy_given)
                             + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # each warning is one `warning:` line, printed as it is raised: the
    # package's every time, any other as the caller's filters say
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        warnings.filterwarnings("always", category=CoulscatWarning)
        try:
            args = _parse(argv)
            return args.func(args)
        except SystemExit as exc:
            # argparse has printed its one-line error (or --help)
            return exc.code
        except (ResourceLimitError, MemoryError) as exc:
            # a count too large to allocate is over a limit as the budget is
            print(f"resource error: {exc or 'out of memory'}", file=sys.stderr)
            return EXIT_RESOURCE
        except (ValueError, OSError, MatchingError, NonConvergenceError) as exc:
            # an unreadable config file, and a square well whose matching
            # fails or whose phase shifts outlast the l window, are bad
            # inputs, as is any ValueError
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
