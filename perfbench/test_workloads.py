"""Tests of the benchmark's own code: input generation, spans, oracle.

    PYTHONPATH=src python3 -m pytest perfbench -q

Kept outside the package's `tests/` so the tier-1 suite does not run them.
"""

import json
import math
import os
import threading

import pytest

import calibrate
import oracle
import tracer
import workloads

RECIPES = ["angular-eta1-weak.cfg", "energy-scan.cfg", "optical-gamma.cfg",
           "profile-eta10-theta0.03.cfg"]


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.make_spec(workload, 7, RECIPES)
        b = workloads.make_spec(workload, 7, list(reversed(RECIPES)))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_other_seed_gives_other_inputs():
    for workload in ("grid-sweep", "point-eval"):
        a = workloads.make_spec(workload, 7)
        b = workloads.make_spec(workload, 8)
        assert a["passes"] != b["passes"]


def test_recipes_are_not_changed_by_the_seed():
    a = workloads.make_spec("recipes", 1, RECIPES)
    b = workloads.make_spec("recipes", 2, RECIPES)
    assert a["recipes"] == b["recipes"]
    assert [r["command"] for r in a["recipes"]] == [
        "angular", "energy-scan", "optical", "profile-delta"]


def test_grid_passes_fix_the_cost_and_alternate_workers():
    spec = workloads.make_spec("grid-sweep", 3)
    for ops in spec["passes"]:
        shapes = [(op["theta_n"], op["delta_n"], op["workers"], op["export"])
                  for op in ops]
        assert shapes == list(workloads.GRID_SHAPES)
        assert [op["workers"] == 1 for op in ops] == [True, False] * 3
        assert {op["quantity"] for op in ops} == set(workloads.QUANTITIES)
        assert {op["eta"] for op in ops} == set(workloads.GRID_ETAS)


def test_point_eval_never_repeats_an_angle():
    spec = workloads.make_spec("point-eval", 5)
    thetas = [op["theta"] for ops in spec["passes"] for op in ops]
    assert len(set(thetas)) == len(thetas)
    assert all(0.0 < t < math.pi for t in thetas)
    for ops in spec["passes"]:
        kinds = [op["kind"] for op in ops]
        assert all(kinds.count(k) == workloads.POINT_ROUNDS for k in workloads.POINT_KINDS)
    props = workloads.input_properties(spec, 3)
    assert props["input_angle_repeat_share"] == 0.0
    assert props["tablecache_pool"] == len(workloads.POOL_BANDS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("sweep", 0.0, 10.0, None),
        # two pool threads overlap inside the sweep
        ("series", 1.0, 5.0, "sweep"),
        ("series", 2.0, 6.0, "sweep"),
        ("legendre", 0.5, 1.5, "sweep"),
        # nested span of the same layer folds into the union
        ("series", 3.0, 4.0, "series"),
    ]
    assert tracer.self_time(spans, "sweep") == 10.0 - 5.5
    assert tracer.self_time(spans, "series") == 5.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_wrapped_call_records_a_span_and_a_count():
    import types

    mod = types.SimpleNamespace(main=lambda argv: 0)
    t = tracer.Tracer()
    traced = t._wrap("cli", mod.main, None)
    assert traced([]) == 0 and traced([]) == 0
    assert t.counts["cli.calls"] == 2
    assert len(t.spans) == 2


def test_install_skips_targets_the_package_no_longer_has():
    import types

    calls = []
    modules = {name: types.SimpleNamespace() for name in
               ("cli", "observables", "scan", "partialwave", "specfun")}
    modules["specfun"].legendre_rows = lambda thetas, l_max: calls.append(l_max)
    t = tracer.Tracer().install(modules)
    try:
        # the counter hook reads the arguments; a call it cannot read still runs
        modules["specfun"].legendre_rows(thetas="not angles", l_max=3)
    finally:
        t.uninstall()
    assert calls == [3]
    assert t.counts["specfun.legendre_rows.calls"] == 1
    assert "partialwave._delta_factors" in t.absent
    assert "scan.TableCache.get_or_build" in t.absent
    assert t.hook_errors


def test_setup_kernel_runs_before_numpy_is_imported():
    import subprocess
    import sys

    code = ("import sys, worker; t = worker.setup_kernel_time(); "
            "assert t > 0 and 'numpy' not in sys.modules")
    here = os.path.dirname(os.path.abspath(__file__))
    subprocess.run([sys.executable, "-c", code], cwd=here, check=True, timeout=60)


def test_calibrated_time_counts_work_between_samples_in_kernel_runs():
    sampler = calibrate.Sampler()
    sampler.samples = [(0.0, 1.0), (3.0, 1.0), (7.0, 3.0)]
    # (3 - 0 - 1) / 1 + (7 - 3 - 1) / 2
    assert sampler.calibrated() == 3.5


def test_sampler_skips_samples_while_other_threads_run():
    sampler = calibrate.Sampler()
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        sampler._sample()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert sampler.samples == []
    sampler._sample()
    assert len(sampler.samples) == 1 and sampler.kernel_s > 0.0


def test_oracle_free_forward_amplitude_is_one():
    # eta = 0, theta = 0, delta = 0: A = 2 eps^2 sum (2l+1) e^{-2 eps^2 (l+1/2)^2} = 1 + O(eps^2)
    amps = oracle.amplitudes(0.0, 1e-3, 0.0, [0.0])
    assert abs(amps["full"][0] - 1.0) < 1e-5
    assert abs(amps["scatter"][0]) == 0.0


def test_tracer_sees_calls_inside_the_package_and_uninstalls():
    pytest.importorskip("coulscat")
    from coulscat import cli, kinematics, observables, partialwave, scan, specfun

    modules = {"cli": cli, "observables": observables, "partialwave": partialwave,
               "scan": scan, "specfun": specfun}
    original = specfun.legendre_rows
    table = partialwave.build_table(kinematics.build_scenario_from_eta(10.0, 1e-3),
                                    partialwave.PhaseShiftModel.coulomb_exact())
    t = tracer.Tracer().install(modules)
    try:
        scan.TableCache().get_or_build(table.scenario, table.model)
        partialwave.probability(table, 0.5, 0.0)
    finally:
        t.uninstall()
    assert specfun.legendre_rows is original
    summary = t.summary()
    assert summary["specfun.legendre_rows.calls"] == 1
    assert summary["partialwave.terms"] == table.l_max + 1
    assert summary["scan.TableCache.lookups"] == 1
    parents = {name: parent for name, _a, _b, parent in t.spans}
    assert parents["specfun.legendre_rows"] == "partialwave.series"
    assert parents["partialwave.build_table"] is None
