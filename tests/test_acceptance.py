"""Acceptance gate: one test per criterion in the registry.

All 16 criteria are expected to pass.  The negative controls below corrupt
one input at a time and check that the criterion guarding it fails: the
strength-bound formula (criterion 1), the per-l time shifts (criterion 5)
and the Gaussian weights (criterion 8).
"""

import dataclasses

import numpy as np
import pytest

from coulscat import acceptance, kinematics, partialwave


@pytest.mark.parametrize("cid,name", [(c, n) for c, n, _fn in acceptance.CRITERIA],
                         ids=[f"criterion_{c:02d}_{n.replace(' ', '_')}"
                              for c, n, _fn in acceptance.CRITERIA])
def test_criterion(cid, name):
    result = acceptance.run_criterion(cid)
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {cid}: {result.detail}")
    assert result.passed, f"criterion {cid} ({name}): {result.detail}"


def test_determinism_criterion_sweeps_on_more_than_one_thread(monkeypatch):
    """Criterion 15 compares sweeps on 1, 4 and 8 workers; each chunk's
    reduction is split over the plan's threads, at most one per CPU."""
    threads = []
    check = partialwave._check_budget

    def recording(*args):
        plan = check(*args)
        threads.append(plan[1])
        return plan

    # four CPUs, so the plan shows the workers rather than the host
    monkeypatch.setattr(partialwave.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(partialwave, "_check_budget", recording)
    assert acceptance.run_criterion(15).passed
    # workers 1, 4, 8 and the rerun on 4
    assert threads == [1, 4, 4, 4]


def test_negative_control_corrupted_constant(monkeypatch):
    """A corrupted strength-bound formula must fail exactly criterion 1."""
    monkeypatch.setattr(kinematics, "eta_bound", lambda eps: 900.0)
    bad = acceptance.run_criterion(1)
    assert not bad.passed
    # an unrelated criterion is untouched by the corruption
    assert acceptance.run_criterion(4).passed


def _patch_tables(monkeypatch, corrupt):
    """Route every acceptance table through `corrupt(table)`."""
    original = acceptance._table_for_eta
    monkeypatch.setattr(acceptance, "_table_for_eta",
                        lambda eta, eps=acceptance.EPS_REF:
                        corrupt(original(eta, eps)))


def test_negative_control_scaled_time_shifts(monkeypatch):
    """xi scaled by 3.5 moves the eta = 10 peak near the old +0.4 pin and
    must fail criterion 5.  A replaced table derives its xi afresh, here
    through a scaled `_time_shifts`."""
    shifts = partialwave._time_shifts
    monkeypatch.setattr(partialwave, "_time_shifts", lambda *args: 3.5 * shifts(*args))
    _patch_tables(monkeypatch, dataclasses.replace)
    bad = acceptance.run_criterion(5)
    assert not bad.passed, bad.detail
    assert acceptance.run_criterion(4).passed


def test_negative_control_halved_weight_exponent(monkeypatch):
    """Weights (2l+1) e^{-eps^2 (l+1/2)^2} halve the shadow exponent and must
    fail criterion 8."""
    def corrupt(t):
        x = np.arange(t.l_max + 1) + 0.5
        return dataclasses.replace(t, weight=2.0 * x * np.exp(-(t.eps * x) ** 2))
    _patch_tables(monkeypatch, corrupt)
    bad = acceptance.run_criterion(8)
    assert not bad.passed, bad.detail
    assert acceptance.run_criterion(4).passed


def test_runner_reports_every_criterion(capsys):
    lines = []
    results = acceptance.run_all(report=lines.append)
    assert len(results) == len(acceptance.CRITERIA)
    assert len(lines) == len(results)
    assert all(line.startswith("[PASS]") or line.startswith("[FAIL]")
               for line in lines)
