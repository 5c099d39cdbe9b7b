import dataclasses
import functools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from coulscat import (
    MatchingError,
    PhaseShiftModel,
    ResourceLimitError,
    StrengthBoundError,
    TruncationMismatchError,
    amplitude,
    amplitude_forward,
    amplitude_scatter,
    build_scenario,
    build_scenario_from_eta,
    build_table,
    choose_l_max,
    probability,
    scattering_amplitude_f,
    specfun,
    square_well_phase_shifts,
)
from coulscat import observables, partialwave, scan
from coulscat.kinematics import ALPHA_PARTICLE_MASS_MEV

EPS = 1e-3

# regression pin from the first verified run; cross-validated by the
# conservation sum rule and the classical-orbit transit oracle
GOLDEN_P_ETA10 = 0.0012907501770205564  # P(theta=0.03, delta=0.4) at eta=10


class TestBuildTable:
    def test_free_table(self, table_free):
        assert np.all(table_free.xi == 0.0)
        assert np.all(table_free.phase_cos == 1.0)
        assert np.all(table_free.phase_sin == 0.0)
        # truncation policy lands near 6 / eps
        assert abs(table_free.l_max - 6.0 / EPS) <= 0.1 * 6.0 / EPS

    def test_xi0_matches_finite_difference_derivative(self, table_eta10):
        h = 1e-5
        dsig = (specfun.coulomb_sigma_exact(0, 10.0 + h)
                - specfun.coulomb_sigma_exact(0, 10.0 - h)) / (2.0 * h)
        expected = 4.0 * EPS * 10.0 * (1.5 * math.log(1.0 / EPS) - 1.0 - dsig)
        assert table_eta10.xi[0] == pytest.approx(expected, rel=1e-6)

    def test_strength_bound_enforcement(self):
        ok = build_scenario_from_eta(844.0, EPS)
        build_table(ok, PhaseShiftModel.coulomb_exact(), l_max=50)
        for bad_eta in (845.0, -845.0):
            with pytest.raises(StrengthBoundError):
                build_table(build_scenario_from_eta(bad_eta, EPS),
                            PhaseShiftModel.coulomb_exact(), l_max=50)

    def test_short_table_rejected(self):
        sc = build_scenario_from_eta(0.0, EPS)
        model = PhaseShiftModel.short_range(np.zeros(100), np.zeros(100))
        with pytest.raises(TruncationMismatchError):
            build_table(sc, model)

    def test_tail_tolerance_policy(self):
        assert choose_l_max(EPS) == 6000
        l_tt = choose_l_max(EPS, tail_tol=1e-6)
        assert math.exp(-2.0 * EPS * EPS * (l_tt + 0.5) ** 2) < 1e-6
        assert math.exp(-2.0 * EPS * EPS * (l_tt - 0.5) ** 2) >= 1e-6
        with pytest.raises(ValueError):
            choose_l_max(EPS, tail_tol=0.5)

    def test_a_table_equals_only_itself(self):
        sc = build_scenario_from_eta(10.0, EPS)
        a, b = (build_table(sc, PhaseShiftModel.coulomb_exact(), l_max=50)
                for _ in range(2))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_a_replaced_table_is_read_only(self, table_eta10):
        t = table_eta10
        for field in ("weight", "phase_cos", "phase_sin"):
            new = dataclasses.replace(t, **{field: 3.5 * getattr(t, field)})
            assert not getattr(new, field).flags.writeable
            with pytest.raises(ValueError):
                getattr(new, field)[0] = 0.0
        # xi is derived data, not a field: a replaced table builds its own,
        # read-only, and neither replace nor assignment can set it
        new = dataclasses.replace(t)
        assert new.xi is not t.xi and np.array_equal(new.xi, t.xi)
        assert not new.xi.flags.writeable
        with pytest.raises(ValueError):
            new.xi[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            new.xi = 3.5 * t.xi
        with pytest.raises(TypeError, match="xi"):
            dataclasses.replace(t, xi=3.5 * t.xi)

    def test_a_short_range_model_holds_read_only_copies(self):
        # the caller's arrays stay the caller's: writing them after the
        # table is built, before its xi is first read, changes nothing
        sc = build_scenario_from_eta(0.0, EPS)
        delta_l, ddelta_dk = np.zeros(6001), np.zeros(6001)
        model = PhaseShiftModel.short_range(delta_l, ddelta_dk)
        table = build_table(sc, model)
        want = probability(build_table(sc, PhaseShiftModel.short_range(
            np.zeros(6001), np.zeros(6001))), 0.3, 0.0)
        delta_l[:], ddelta_dk[:] = 0.5, 1.0
        assert np.all(table.xi == 0.0)
        assert probability(table, 0.3, 0.0) == want > 0.0
        for field in ("delta_l", "ddelta_dk"):
            held = getattr(model, field)
            assert np.all(held == 0.0) and not held.flags.writeable
            with pytest.raises(ValueError):
                held[0] = 1.0

    def test_forward_kernel_is_a_read_only_view_of_the_weights(self, table_eta10):
        kern = table_eta10._kernel("forward")
        assert kern.shape == (1, table_eta10.l_max + 1)
        assert kern.base is table_eta10.weight and not kern.flags.writeable
        assert table_eta10._kernel("forward") is kern

    @pytest.mark.parametrize("model", ["coulomb", "square-well"])
    def test_full_kernel_is_forward_plus_i_scatter(self, model, table_eta10):
        # e^{2i sigma} = 1 + i (sin 2 sigma + i (1 - cos 2 sigma)): the
        # imaginary component is the same product, and the real one differs
        # only by the rounding of 1 - cos, w (1 - cos) and w - w (1 - cos),
        # at most 2 + 2 + 1 units u = 2^-53 of w, plus the 1 u of w cos:
        # 6 u w.  The largest measured is 3.7 u w at eta = 800 (3.4 at
        # eta = 10, 2.1 on this well)
        table = table_eta10
        if model == "square-well":
            sc = table.scenario
            table = build_table(sc, square_well_phase_shifts(
                5.0, 200.0 / sc.p, sc, l_max=table.l_max))
            assert np.count_nonzero(table.phase_sin) > 100
        full, forward, scatter = (table._kernel(p) for p in ("full", "forward", "scatter"))
        assert np.array_equal(scatter[0], full[1])
        assert np.all(np.abs(forward[0] - scatter[1] - full[0])
                      <= 6 * 2.0 ** -53 * table.weight)

    @pytest.mark.parametrize("eta", [0.0, 10.0, -800.0])
    def test_sin2_sums_equal_the_direct_sums(self, eta):
        # the same sums, each term rounded as `sin2_sums` rounds it
        t = build_table(build_scenario_from_eta(eta, EPS), PhaseShiftModel.coulomb_exact())
        l = np.arange(t.l_max + 1, dtype=float)
        x = l + 0.5
        base = (2.0 * l + 1.0) * (0.5 * (1.0 - t.phase_cos))
        want = tuple(float(np.sum(base * np.exp(c * EPS * EPS * x * x)))
                     for c in (-4.0, -2.0))
        assert t.sin2_sums == want

    def test_table_invariants(self, table_eta800):
        t = table_eta800
        assert np.all(t.weight > 0.0)
        norm = t.phase_cos ** 2 + t.phase_sin ** 2
        assert np.max(np.abs(norm - 1.0)) <= 1e-12
        assert t.weight[-1] / t.weight.max() < 1e-3
        assert 0.0 < t.tail_bound < 1e-20


class TestResolveLMax:
    """`resolve_l_max` is the one rule from a request to a table's l_max."""

    def test_given_or_chosen(self):
        assert partialwave.resolve_l_max(EPS) == choose_l_max(EPS) == 6000
        assert partialwave.resolve_l_max(EPS, tail_tol=1e-6) == choose_l_max(EPS, 1e-6)
        assert partialwave.resolve_l_max(EPS, l_max=50) == 50
        assert type(partialwave.resolve_l_max(EPS, l_max=np.int64(50))) is int
        with pytest.raises(ValueError, match="l_max must be >= 0"):
            partialwave.resolve_l_max(EPS, l_max=-1)
        # a float l_max is refused where it enters, not by a slice inside
        # `probability`
        for l_max in (700.0, 650.5):
            with pytest.raises(TypeError):
                partialwave.resolve_l_max(EPS, l_max=l_max)
            with pytest.raises(TypeError):
                build_table(build_scenario_from_eta(10.0, EPS),
                            PhaseShiftModel.coulomb_exact(), l_max=l_max)

    def test_tail_tol_and_l_max_together_are_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            partialwave.resolve_l_max(EPS, 1e-30, 200)
        with pytest.raises(ValueError, match="not both"):
            build_table(build_scenario_from_eta(10.0, EPS), PhaseShiftModel.coulomb_exact(),
                        tail_tol=1e-30, l_max=200)

    def test_a_table_over_the_budget_is_refused_before_anything_is_built(
            self, monkeypatch):
        built = []
        sigma = specfun.coulomb_sigma_table
        monkeypatch.setattr(specfun, "coulomb_sigma_table",
                            lambda *args: built.append(args) or sigma(*args))
        need = 8 * partialwave._TABLE_ROWS * 6001
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", need - 1)
        sc = build_scenario_from_eta(10.0, EPS)
        with pytest.raises(ResourceLimitError, match="l_max = 6000"):
            build_table(sc, PhaseShiftModel.coulomb_exact())
        assert built == []
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", need)
        assert build_table(sc, PhaseShiftModel.coulomb_exact()).l_max == 6000

    @pytest.mark.parametrize("eta", [10.0, 800.0])
    def test_the_count_covers_a_table_and_all_its_derived_data(self, eta):
        # K = 22 at eta = 800, the most the box radius allows
        assert partialwave._hermite_terms(partialwave._BOX_RADIUS)[0] == 22
        sc = build_scenario_from_eta(eta, EPS)
        tracemalloc.start()
        try:
            table = build_table(sc, PhaseShiftModel.coulomb_exact())
            assert table.n_hermite <= 22
            for part in ("full", "forward", "scatter"):
                table._kernel(part)
            table.sin2_sums
            table._default_scan
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * partialwave._TABLE_ROWS * (table.l_max + 1)

    def test_dropped_tables_leave_the_caches_within_their_bound(self, monkeypatch):
        # the per-l_max caches (`_eps_arrays`, `specfun._scalar_steps` and
        # `specfun._ring_operands`, 32 + 80 + 128 bytes a degree) keep four
        # entries each of l_max up to `specfun._CACHED_L_MAX`, so they hold
        # at most 4 x 256 bytes a degree of it.  At its real 2^15 the traced
        # run takes seconds, so the cap is lowered here (`raising=False`:
        # caches that keep every l_max have no cap).  Caches that kept every
        # l_max held 1.85 MB after the tables of 2 cap on CPython 3.11,
        # against the 1.05 MB bound, and 192 MB after four of l_max 200,000
        cap = 1024
        monkeypatch.setattr(specfun, "_CACHED_L_MAX", cap, raising=False)
        bound = 4 * 256 * cap

        def held_after(l_maxes):
            tracemalloc.start()
            try:
                for i, l_max in enumerate(l_maxes):
                    table = build_table(build_scenario_from_eta(1.0, (i + 1) * 1e-2),
                                        PhaseShiftModel.coulomb_exact(), l_max=l_max)
                    table.sin2_sums
                    specfun.legendre_rows(0.5, l_max)
                    specfun.legendre_rows(np.linspace(0.1, 3.0, 30), l_max)
                    del table
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # four entries at the cap are kept, within the bound
        assert held_after([cap - i for i in range(4)]) <= bound
        # and none above it: what stays is CPython's free list of five-tuples
        # (82 KB here)
        assert held_after([2 * cap + i for i in range(4)]) <= bound // 4


class TestEvaluationBudget:
    """What an evaluation holds at its peak is no more than `_check_budget`
    counts for it: a budget one byte short of the traced peak refuses the
    same request.  1 MiB Legendre chunks (218 rows at L = 600) cut 5000
    angles into 23, so the grid-sized output weighs against a chunk as it
    does in a large request."""

    GRID = scan.GridSpec(0.01, 3.0, 5000, -4.0, 4.0, 50)

    @pytest.fixture(scope="class")
    def table(self):
        table = build_table(build_scenario_from_eta(10.0, 1e-2),
                            PhaseShiftModel.coulomb_exact())
        # the table's own data and the recurrence's per-l_max operands are
        # built by a first evaluation, once per table and per process
        partialwave.probability_grid(table, [0.5] * 30, [0.0])
        for part in ("full", "forward", "scatter"):
            table._kernel(part)
        return table

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda t, g: partialwave.probability_grid(t, g.thetas, g.deltas),
                     id="probability_grid"),
        pytest.param(lambda t, g: observables.delta_profile(t, g.thetas),
                     id="delta_profile"),
        *(pytest.param(functools.partial(scan.sweep, quantity=q), id=f"sweep-{q.value}")
          for q in scan.Quantity),
        pytest.param(functools.partial(scan.sweep, quantity=scan.Quantity.PROBABILITY,
                                       workers=2), id="sweep-probability-2-workers"),
    ])
    def test_the_peak_is_within_the_count(self, table, evaluate, monkeypatch):
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 1 << 20)
        monkeypatch.setattr(partialwave.os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            evaluate(table, self.GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grid-sized output is held at the peak
        assert peak > 8 * self.GRID.theta_n * self.GRID.delta_n
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", peak - 1)
        with pytest.raises(ResourceLimitError):
            evaluate(table, self.GRID)


def _on_a_new_thread(fn):
    """fn() on a thread of its own, which starts with no row buffer."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and result, "the thread hung or raised"
    return result[0]


class TestRowBuffer:
    """Each thread writes every chunk of Legendre rows into one buffer,
    kept between its evaluations and grown only to a larger plan's chunk."""

    def test_a_fitting_evaluation_allocates_no_rows(self):
        # 2000 x 1 cells at L = 600 (eps = 1e-2): a 9.6 MB row block, one
        # chunk, against about 1 MB of moments, output and temporaries
        table = build_table(build_scenario_from_eta(10.0, 1e-2),
                            PhaseShiftModel.coulomb_exact())
        thetas = np.linspace(0.01, 3.0, 2000)
        block = 8 * thetas.size * (table.l_max + 1)
        partialwave.probability_grid(table, thetas[:30], [0.0])  # the table's own data

        def rise(evaluate):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                evaluate()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def twice():
            first = rise(lambda: partialwave.probability_grid(table, thetas, [0.0]))
            buffer = partialwave._row_buffer(0)
            # sized for the plan, not for a full chunk of _CHUNK_BYTES
            assert buffer.size == thetas.size * (table.l_max + 1)
            fits = [rise(lambda: partialwave.probability_grid(table, thetas, [0.5])),
                    rise(lambda: observables.delta_profile(table, thetas[::7])),
                    rise(lambda: scan.sweep(table, scan.GridSpec(0.1, 3.0, 1500, 0.0, 1.0, 2),
                                            scan.Quantity.FORWARD_PART))]
            return first, fits, partialwave._row_buffer(0) is buffer

        first, fits, kept = _on_a_new_thread(twice)
        assert first > block and kept
        assert all(peak < block for peak in fits), (block, fits)

    def test_the_budget_counts_a_new_buffer(self, monkeypatch):
        # `TestEvaluationBudget` on a thread with no buffer yet, so that the
        # traced peak holds the rows its first plan allocates
        table = build_table(build_scenario_from_eta(10.0, 1e-2),
                            PhaseShiftModel.coulomb_exact())
        partialwave.probability_grid(table, [0.5] * 30, [0.0])  # the table's own data
        grid = TestEvaluationBudget.GRID
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 1 << 20)

        def peak():
            tracemalloc.start()
            try:
                partialwave.probability_grid(table, grid.thetas, grid.deltas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced = _on_a_new_thread(peak)
        chunk = partialwave._check_budget(table, grid.theta_n, grid.delta_n)[0][0]
        assert traced > 8 * (chunk[1] - chunk[0]) * (table.l_max + 1)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", traced - 1)
        with pytest.raises(ResourceLimitError):
            partialwave.probability_grid(table, grid.thetas, grid.deltas)

    def test_it_grows_to_a_larger_plan_alone(self, table_eta10):
        def grow():
            sizes = []
            for n in (5, 40, 12, 60):
                partialwave.probability_grid(table_eta10, np.linspace(0.1, 3.0, n), [0.0])
                sizes.append(partialwave._row_buffer(0).size // (table_eta10.l_max + 1))
            return sizes

        assert _on_a_new_thread(grow) == [5, 40, 40, 60]

    def test_two_threads_at_once_equal_one_after_the_other(self, monkeypatch, table_eta10):
        # 3-row chunks; both threads write a chunk of rows, wait for each
        # other, then take its moments, so a buffer shared between them
        # would hand one thread the other's rows
        grids = [(np.linspace(0.02, 3.0, 17), np.linspace(-4.0, 6.0, 5)),
                 (np.linspace(0.5, 2.5, 17)[::-1].copy(), np.array([0.0, 0.4]))]
        alone = [partialwave.probability_grid(table_eta10, *g) for g in grids]
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 3 * 8 * (table_eta10.l_max + 1))
        rows, barrier = specfun.legendre_rows, threading.Barrier(2, timeout=60)

        def rows_then_wait(*args, **kwargs):
            out = rows(*args, **kwargs)
            barrier.wait()
            return out

        monkeypatch.setattr(specfun, "legendre_rows", rows_then_wait)
        results = [None, None]

        def run(i):
            results[i] = partialwave.probability_grid(table_eta10, *grids[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, alone):
            assert got.tobytes() == want.tobytes()

    def test_a_grid_after_a_larger_one_equals_single_points(self, table_eta10):
        thetas, deltas = [0.03, 0.9, 2.5], [-1.0, 0.4]

        def small_after_large():
            partialwave.probability_grid(table_eta10, np.linspace(0.01, 3.1, 300), [0.2])
            return partialwave.probability_grid(table_eta10, thetas, deltas)

        grid = _on_a_new_thread(small_after_large)
        for i, theta in enumerate(thetas):
            for j, delta in enumerate(deltas):
                assert grid[i, j] == probability(table_eta10, theta, delta)


class TestAmplitude:
    def test_free_forward_value(self, table_free):
        a = amplitude(table_free, 0.0, 0.0)
        # leading-order normalization: 1 + eps^2/6 exactly at this order
        assert a.imag == 0.0
        assert a.real == pytest.approx(1.0 + EPS ** 2 / 6.0, abs=1e-9)

    def test_golden_pin_eta10(self, table_eta10):
        assert probability(table_eta10, 0.03, 0.4) == pytest.approx(
            GOLDEN_P_ETA10, rel=1e-12)

    def test_modulus_bounded(self, table_eta10, rng):
        thetas = rng.uniform(0.0, math.pi, 40)
        deltas = rng.uniform(-8.0, 8.0, 40)
        p = np.diag(partialwave.probability_grid(table_eta10, thetas, deltas))
        assert np.all(p >= 0.0)
        assert np.all(p <= 1.0 + 1e-6)

    def test_probability_is_squared_amplitude(self, table_eta10):
        a = amplitude(table_eta10, 0.7, 1.1)
        p = probability(table_eta10, 0.7, 1.1)
        assert p == a.real * a.real + a.imag * a.imag

    @pytest.mark.parametrize("call", [
        lambda t: probability(t, 0.5, 0.0),
        lambda t: amplitude(t, 0.5, 0.0),
        lambda t: amplitude_forward(t, 0.5, 0.0),
        lambda t: amplitude_scatter(t, 0.5, 0.0),
        lambda t: scattering_amplitude_f(t, t.scenario, 0.5),
    ], ids=["probability", "amplitude", "forward", "scatter", "f"])
    def test_single_point_counts_against_the_memory_budget(self, monkeypatch,
                                                           table_eta10, call):
        # one Legendre row of 6001 degrees is 48 kB
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 1000)
        with pytest.raises(ResourceLimitError):
            call(table_eta10)

    def test_invalid_theta(self, table_free):
        with pytest.raises(ValueError):
            probability(table_free, -0.1, 0.0)
        with pytest.raises(ValueError):
            amplitude(table_free, 3.5, 0.0)


class TestFreeField:
    def test_matches_gaussian_product(self, table_free):
        thetas = np.linspace(0.0, 10.0 * EPS, 11)
        deltas = np.linspace(-4.0, 4.0, 9)
        field = partialwave.probability_grid(table_free, thetas, deltas)
        free = np.exp(-(thetas[:, None] ** 2) / (4.0 * EPS ** 2)) * np.exp(
            -(deltas[None, :] ** 2) / 4.0)
        assert np.max(np.abs(field - free)) <= 5.0 * EPS ** 2


class TestWeakCoupling:
    def test_eta_0p1_profile_is_nearly_free(self):
        table = build_table(build_scenario_from_eta(0.1, EPS),
                            PhaseShiftModel.coulomb_exact())
        thetas = np.linspace(0.0, 3.0 * EPS, 7)
        p = partialwave.probability_grid(table, thetas, np.array([0.0]))[:, 0]
        expected = p[0] * np.exp(-(thetas ** 2) / (4.0 * EPS ** 2))
        assert np.max(np.abs(p / expected - 1.0)) <= 0.10


class TestDecomposition:
    def test_free_case_has_no_scatter_part(self, table_free):
        assert amplitude_scatter(table_free, 0.5, 0.3) == 0.0
        assert amplitude_forward(table_free, 0.5, 0.3) == pytest.approx(
            amplitude(table_free, 0.5, 0.3).real, abs=1e-15)

    def test_identity_on_random_sample(self, table_eta10, rng):
        thetas = rng.uniform(0.0, math.pi, 100)
        deltas = rng.uniform(-6.0, 6.0, 100)
        for th, de in zip(thetas, deltas):
            a = amplitude(table_eta10, th, de)
            af = amplitude_forward(table_eta10, th, de)
            asc = amplitude_scatter(table_eta10, th, de)
            assert abs(a - (af + 1j * asc)) <= 1e-10

    def test_forward_peaks_cancel(self, table_eta10):
        # near theta=0 the forward part and Im of the scatter part form
        # matching narrow peaks of width ~eps while Re of the scatter part
        # stays far smaller; their near-cancellation builds the shadow
        peak = amplitude_forward(table_eta10, 0.0, 0.4)
        assert peak > 0.9
        for theta in (0.0, 0.002, 0.005):
            af = amplitude_forward(table_eta10, theta, 0.4)
            asc = amplitude_scatter(table_eta10, theta, 0.4)
            shape = peak * math.exp(-theta * theta / (8.0 * EPS ** 2))
            assert af == pytest.approx(shape, rel=0.02)
            assert asc.imag == pytest.approx(af, rel=0.01)
            assert abs(asc.real) < 0.01 * af


class TestSymmetries:
    def test_charge_conjugation(self, table_eta10, table_eta_m10):
        for theta, delta in ((0.03, 0.4), (0.5, -1.2), (2.9, 3.3)):
            p_plus = probability(table_eta10, theta, delta)
            p_minus = probability(table_eta_m10, theta, -delta)
            assert abs(p_plus - p_minus) <= 1e-10 * max(p_plus, 1e-300)

    def test_truncation_robustness(self, table_eta10, rng):
        sc = table_eta10.scenario
        bigger = build_table(sc, PhaseShiftModel.coulomb_exact(),
                             l_max=2 * table_eta10.l_max)
        thetas = rng.uniform(0.0, math.pi, 20)
        deltas = rng.uniform(-4.0, 4.0, 20)
        p1 = np.diag(partialwave.probability_grid(table_eta10, thetas, deltas))
        p2 = np.diag(partialwave.probability_grid(bigger, thetas, deltas))
        assert np.max(np.abs(p1 - p2)) < 1e-8

    def test_rebuild_determinism(self, table_eta10):
        again = build_table(table_eta10.scenario, PhaseShiftModel.coulomb_exact())
        assert np.array_equal(table_eta10.weight, again.weight)
        assert np.array_equal(table_eta10.phase_cos, again.phase_cos)
        assert np.array_equal(table_eta10.xi, again.xi)
        assert probability(table_eta10, 0.37, 1.1) == probability(again, 0.37, 1.1)


class TestConservationOracle:
    def test_double_integral_matches_weight_sum(self):
        """Full (theta, delta) integral of P against the closed-form sum rule.

        Independent quadrature oracle for the entire evaluator: Legendre
        orthogonality and the Gaussian delta overlaps must conspire to give
        8 eps^2 sum (l+1/2) exp(-4 eps^2 (l+1/2)^2) whatever the phases are.
        Run at eps = 0.01 to keep the angular structure resolvable.
        """
        eps = 1e-2
        table = build_table(build_scenario_from_eta(5.0, eps),
                            PhaseShiftModel.coulomb_exact())
        deltas = np.linspace(-12.0, 12.0, 193)
        # composite Gauss-Legendre in theta; forward structure has width ~eps
        x1, w1 = np.polynomial.legendre.leggauss(1200)
        x2, w2 = np.polynomial.legendre.leggauss(600)
        t1 = 0.075 * (x1 + 1.0)
        t2 = 0.15 + 0.5 * (math.pi - 0.15) * (x2 + 1.0)
        w1 = w1 * 0.075
        w2 = w2 * 0.5 * (math.pi - 0.15)
        thetas = np.concatenate([t1, t2])
        weights = np.concatenate([w1, w2])
        field = partialwave.probability_grid(table, thetas, deltas)
        per_theta = np.trapezoid(field, deltas, axis=1)
        integral = float(np.sum(weights * np.sin(thetas) * per_theta))
        integral /= 2.0 * eps ** 2 * math.sqrt(4.0 * math.pi)
        x = np.arange(table.l_max + 1, dtype=float) + 0.5
        sum_rule = 8.0 * eps ** 2 * float(np.sum(x * np.exp(-4.0 * eps * eps * x * x)))
        assert integral == pytest.approx(sum_rule, abs=5e-4)


class TestXiVariants:
    def test_literal_asymptotic_offset(self):
        """The literal asymptotic shift differs from the exact one by 4 eps eta.

        The asymptotic shift formula carries a second constant offset beyond
        what differentiating the asymptotic phase gives; both variants are
        provided and their divergence is pinned here rather than hidden.
        """
        sc = build_scenario_from_eta(10.0, EPS)
        exact = build_table(sc, PhaseShiftModel.coulomb_exact(), l_max=3000)
        lit = build_table(sc, PhaseShiftModel.coulomb_asymptotic(), l_max=3000)
        gap = exact.xi - lit.xi
        # exact digamma vs log-modulus differ by O(1/|l+1+i eta|) on top
        mod = np.abs(np.arange(1.0, 3002.0) + 10.0j)
        assert np.max(np.abs(gap - 4.0 * EPS * 10.0)) <= 4.0 * EPS * 10.0 * np.max(0.6 / mod)
        assert np.max(np.abs(gap - 4.0 * EPS * 10.0)) > 0.0

    def test_asymptotic_phases_close_to_exact_at_eta800(self):
        sc = build_scenario_from_eta(800.0, EPS)
        exact = build_table(sc, PhaseShiftModel.coulomb_exact(), l_max=2000)
        asym = build_table(sc, PhaseShiftModel.coulomb_asymptotic(), l_max=2000)
        dcos = np.max(np.abs(exact.phase_cos - asym.phase_cos))
        dsin = np.max(np.abs(exact.phase_sin - asym.phase_sin))
        assert max(dcos, dsin) <= 3e-4


class TestSquareWell:
    def _scenario(self, eps=EPS):
        return build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, eps)

    def test_zero_depth_gives_zero_shifts(self):
        sc = self._scenario()
        model = square_well_phase_shifts(0.0, 5.0 / sc.p, sc, l_max=30)
        assert np.max(np.abs(model.delta_l)) <= 1e-12
        assert np.max(np.abs(model.ddelta_dk)) <= 1e-8

    def test_s_wave_closed_form(self):
        sc = self._scenario()
        radius = 5.0 / sc.p
        depth = 2.0
        model = square_well_phase_shifts(depth, radius, sc, l_max=30)
        k = sc.p
        kp = math.sqrt(k * k + 2.0 * sc.m0 * depth)
        expected = math.atan(k / kp * math.tan(kp * radius)) - k * radius
        assert (model.delta_l[0] - expected) % math.pi == pytest.approx(
            0.0, abs=1e-10) or (model.delta_l[0] - expected) % math.pi == pytest.approx(
            math.pi, abs=1e-10)

    def test_barrier_above_the_energy_takes_the_modified_bessel_interior(self):
        # a -2 MeV well at E = 1 MeV: k'^2 < 0, the interior solution is
        # i_l, and the s wave obeys tan(k a + delta_0) = (k/kappa) tanh(kappa a)
        sc = self._scenario()
        radius = 5.0 / sc.p
        depth = -2.0
        model = square_well_phase_shifts(depth, radius, sc, l_max=30)
        k = sc.p
        kappa = math.sqrt(-(k * k + 2.0 * sc.m0 * depth))
        expected = math.atan(k / kappa * math.tanh(kappa * radius)) - k * radius
        assert math.sin(model.delta_l[0] - expected) == pytest.approx(0.0, abs=1e-10)
        assert np.all(np.isfinite(model.ddelta_dk))

    @pytest.mark.filterwarnings("error")
    def test_overflowed_exterior_solution_is_a_matching_error(self):
        # at k a = 1e-8, y_l overflows below the last matched l, 1 + 40
        sc = self._scenario()
        with pytest.raises(MatchingError, match="matching failed") as info:
            square_well_phase_shifts(0.5, 1e-8 / sc.p, sc, l_max=60)
        assert 41 in info.value.bad_l
        assert all(type(l) is int for l in info.value.bad_l)

    def test_shifts_vanish_at_high_momentum(self):
        sc = self._scenario()
        radius = 5.0 / sc.p
        fast = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 100.0, EPS)
        model = square_well_phase_shifts(0.5, radius, fast, l_max=60)
        # same well probed at 10x the reference momentum: weak shifts
        assert np.max(np.abs(model.delta_l[:6])) < 0.3
