import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from coulscat import (
    ALPHA_PARTICLE_MASS_MEV,
    GridSpec,
    Quantity,
    ResourceLimitError,
    TableCache,
    amplitude_forward,
    amplitude_scatter,
    build_scenario,
    build_scenario_from_eta,
    dcs,
    eta_bound,
    field_to_csv,
    field_to_json,
    probability,
    rutherford_probability,
    sweep,
)
import coulscat
from coulscat import partialwave, scan, specfun
from coulscat.partialwave import PhaseShiftModel, build_table
from coulscat.scan import FieldResult

EPS = 1e-3

# one point and a 40 x 2 grid on an L = 30000 table, written as raw bytes
_LONG_TABLE_SCRIPT = """
import sys
import numpy as np
from coulscat import PhaseShiftModel, build_scenario_from_eta, build_table, probability
from coulscat.partialwave import probability_grid
t = build_table(build_scenario_from_eta(0.0, 2e-4), PhaseShiftModel.coulomb_exact())
grid = probability_grid(t, np.linspace(0.001, 0.05, 40), [-0.3, 0.3])
sys.stdout.buffer.write(np.float64(probability(t, 0.01, 0.3)).tobytes() + grid.tobytes())
"""


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.5, 5, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 4.0, 5, 0.0, 1.0, 5)
        # counts are integers where they enter, not only inside `sweep`
        for count in (2.5, 3.0):
            with pytest.raises(TypeError):
                GridSpec(0.0, 1.0, count, 0.0, 1.0, 3)
            with pytest.raises(TypeError):
                GridSpec(0.0, 1.0, 3, 0.0, 1.0, count)
        g = GridSpec(0.0, 1.0, np.int64(3), 0.0, 1.0, np.int32(2))
        assert (type(g.theta_n), type(g.delta_n)) == (int, int)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 3, 4])
    def test_rejects_non_finite_bounds(self, bad, position):
        args = [0.1, 0.2, 3, -1.0, 1.0, 3]
        args[position] = bad
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*args)

    def test_degenerate_axes(self):
        g = GridSpec(0.3, 0.3, 1, -1.0, -1.0, 1)
        assert g.thetas.tolist() == [0.3]
        assert g.deltas.tolist() == [-1.0]


class TestSweep:
    def test_one_by_one_equals_direct_call(self, table_eta10):
        g = GridSpec(0.37, 0.37, 1, 1.1, 1.1, 1)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        assert field.values[0, 0] == probability(table_eta10, 0.37, 1.1)

    def test_every_cell_equals_direct_evaluation(self, table_eta10):
        g = GridSpec(0.01, 3.0, 7, -3.0, 3.0, 5)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        for i, t in enumerate(g.thetas):
            for j, d in enumerate(g.deltas):
                assert field.values[i, j] == probability(table_eta10, float(t), float(d))

    def test_worker_counts_bit_identical(self, table_eta10):
        g = GridSpec(0.0, 0.5, 64, -4.0, 4.0, 17)
        base = sweep(table_eta10, g, Quantity.PROBABILITY, workers=1)
        for w in (2, 4, 8):
            other = sweep(table_eta10, g, Quantity.PROBABILITY, workers=w)
            assert np.array_equal(base.values, other.values)

    @pytest.mark.parametrize("workers, error", [(0, ValueError), (-3, ValueError),
                                                (2.5, TypeError)])
    def test_workers_must_be_a_positive_integer(self, table_eta10, workers, error):
        # 0 and -3 ran on one thread, and 2.5 as a float thread count
        with pytest.raises(error):
            sweep(table_eta10, GridSpec(0.1, 0.2, 2, 0.0, 1.0, 2), Quantity.PROBABILITY,
                  workers=workers)

    @pytest.fixture
    def ten_row_chunks(self, monkeypatch, table_eta10):
        # 10 rows a chunk, so 35 angles span 4 chunks
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 10 * 8 * (table_eta10.l_max + 1))
        return GridSpec(0.1, 2.9, 35, -4.0, 4.0, 9)

    def test_worker_counts_bit_identical_across_chunks(self, table_eta10, ten_row_chunks):
        base = sweep(table_eta10, ten_row_chunks, Quantity.PROBABILITY, workers=1)
        for w in (2, 4):
            other = sweep(table_eta10, ten_row_chunks, Quantity.PROBABILITY, workers=w)
            assert np.array_equal(base.values, other.values)

    @pytest.mark.usefixtures("ten_row_chunks")
    @pytest.mark.parametrize("workers, cpus, theta_n", [
        (2, 8, 35),
        (16, 16, 35),
        (8, 3, 35),
        (4, None, 35),    # unknown CPU count
        (8, 8, 10),       # a single chunk
        (8, 8, 1),        # a single angle
    ])
    def test_no_thread_is_started(self, monkeypatch, table_eta10, workers, cpus, theta_n):
        # neither the worker count nor the host's CPU count starts a thread
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        g = GridSpec(0.1, 2.9, theta_n, 0.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY, workers=workers)
        assert started == []
        assert np.array_equal(field.values,
                              sweep(table_eta10, g, Quantity.PROBABILITY).values)

    def test_720_angles_are_two_chunks_of_360(self, table_eta10):
        # 698 rows fit in a chunk at L = 6000; the chunks are cut equal, so
        # no chunk is a short tail
        assert table_eta10.l_max == 6000
        assert partialwave._check_budget(table_eta10, 720, 24) == [(0, 360), (360, 720)]

    @pytest.mark.parametrize("n", [1, 697, 698, 699, 1396, 1397, 5000])
    def test_chunks_cover_the_angles_equal_within_one(self, table_eta10, n):
        chunks = partialwave._check_budget(table_eta10, n, 1)
        sizes = [i1 - i0 for i0, i1 in chunks]
        assert len(chunks) == math.ceil(n / 698) and max(sizes) - min(sizes) <= 1
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))

    def test_recurrence_and_moments_run_on_the_calling_thread(
            self, monkeypatch, table_eta10, ten_row_chunks):
        calls = []

        def on(name, fn):
            return lambda *args, **kwargs: (calls.append((name, threading.get_ident()))
                                             or fn(*args, **kwargs))

        monkeypatch.setattr(specfun, "legendre_rows", on("rows", specfun.legendre_rows))
        monkeypatch.setattr(partialwave, "_moments", on("moments", partialwave._moments))
        monkeypatch.setattr(partialwave, "_combine", on("combine", partialwave._combine))
        field = sweep(table_eta10, ten_row_chunks, Quantity.PROBABILITY, workers=2)
        caller = threading.get_ident()
        # 35 angles in 4 chunks, each reduced whole on the caller, whatever
        # the worker count
        assert calls == [("rows", caller), ("moments", caller), ("combine", caller)] * 4
        monkeypatch.undo()
        assert np.array_equal(field.values,
                              sweep(table_eta10, ten_row_chunks, Quantity.PROBABILITY).values)

    def test_one_chunk_is_reduced_whole_on_the_caller(self, monkeypatch, table_eta800,
                                                      tmp_path):
        # 400 angles are one chunk at L = 6000; on two workers all 400 rows
        # are combined at once on the calling thread
        grid = GridSpec(0.01, 3.0, 400, -8.0, 24.0, 161)
        base = sweep(table_eta800, grid, Quantity.PROBABILITY, workers=1)
        combine, seen = partialwave._combine, []

        def recording(moments, h):
            seen.append((threading.get_ident(), moments.shape[1]))
            return combine(moments, h)

        monkeypatch.setattr(partialwave, "_combine", recording)
        field = sweep(table_eta800, grid, Quantity.PROBABILITY, workers=2)
        assert seen == [(threading.get_ident(), 400)]
        field_to_csv(base, tmp_path / "w1.csv")
        field_to_csv(field, tmp_path / "w2.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_box_longer_than_ten_thousand_terms(self):
        # eps = 2e-4 at eta = 0: L = 30000 with one xi, which one box would
        # hold; boxes stop at 8192 terms, so no moment's dot is long enough
        # for BLAS to split it across its own threads; 150 angles span two
        # Legendre chunks
        table = build_table(build_scenario_from_eta(0.0, 2e-4),
                            PhaseShiftModel.coulomb_exact())
        sizes = np.diff(table.box_edges)
        assert table.box_edges[-1] == 30001 and sizes.max() <= 8192
        g = GridSpec(0.001, 0.05, 150, -1.0, 1.0, 3)
        assert len(partialwave._check_budget(table, g.theta_n, 0)) == 2
        base = sweep(table, g, Quantity.PROBABILITY, workers=1)
        assert np.array_equal(base.values,
                              sweep(table, g, Quantity.PROBABILITY, workers=2).values)
        thetas, deltas = g.thetas, g.deltas
        for i in (0, 75, 149):
            for j in range(3):
                assert base.values[i, j] == probability(table, float(thetas[i]),
                                                        float(deltas[j]))

    def test_results_do_not_depend_on_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(coulscat.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run([sys.executable, "-c", _LONG_TABLE_SCRIPT], check=True,
                           capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        ]
        assert len(outputs[0]) == 8 * (1 + 40 * 2)
        assert outputs[0] == outputs[1]

    def test_dcs_prefactor(self, table_eta10):
        g = GridSpec(0.5, 1.5, 3, 0.0, 0.0, 1)
        prob = sweep(table_eta10, g, Quantity.PROBABILITY)
        xsec = sweep(table_eta10, g, Quantity.DCS)
        sc = table_eta10.scenario
        assert np.allclose(xsec.values,
                           prob.values / (16.0 * sc.eps ** 4 * sc.p ** 2),
                           rtol=1e-15)

    def test_dcs_cells_equal_the_single_point_dcs(self, table_eta10):
        g = GridSpec(0.1, 3.0, 40, -1.0, 1.0, 9)
        field = sweep(table_eta10, g, Quantity.DCS)
        want = [[dcs(table_eta10, float(t), float(d)) for d in g.deltas]
                for t in g.thetas]
        assert field.values.tolist() == want

    def test_forward_and_scatter_quantities(self, table_eta10):
        g = GridSpec(0.002, 0.002, 1, 0.4, 0.4, 1)
        fwd = sweep(table_eta10, g, Quantity.FORWARD_PART)
        sct = sweep(table_eta10, g, Quantity.SCATTER_PART)
        assert fwd.values[0, 0] == amplitude_forward(table_eta10, 0.002, 0.4)
        asc = amplitude_scatter(table_eta10, 0.002, 0.4)
        assert sct.values[0, 0] == asc.real * asc.real + asc.imag * asc.imag

    def test_shadow_zone_in_field(self, table_eta10):
        # narrow zone of suppressed probability around the forward direction
        g = GridSpec(0.0, 0.06, 61, 0.4, 0.4, 1)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        thetas = g.thetas
        inner = field.values[thetas <= 0.01, 0]
        ring = field.values[(thetas >= 0.02) & (thetas <= 0.05), 0]
        assert inner.max() < 0.05 * ring.max()

    def test_short_range_values_follow_the_phase_shifts(self):
        # a copy of the phase shifts sweeps to the same values bit for bit;
        # moving one delta_l moves the field
        sc = build_scenario_from_eta(0.0, 0.05)
        model = partialwave.square_well_phase_shifts(0.5, 5.0 / sc.p, sc, l_max=130)
        moved = np.array(model.delta_l)
        moved[3] += 1e-9
        g = GridSpec(0.1, 0.2, 2, 0.0, 1.0, 2)

        def values(delta_l):
            short = PhaseShiftModel.short_range(delta_l, model.ddelta_dk)
            return sweep(build_table(sc, short), g, Quantity.PROBABILITY).values

        base = values(model.delta_l)
        assert np.array_equal(values(model.delta_l.copy()), base)
        assert not np.array_equal(values(moved), base)

    def test_forward_part_equals_the_single_points(self, table_eta10):
        # A_F is real, reduced from the re component alone
        g = GridSpec(0.1, 0.2, 4, 0.0, 1.0, 3)
        field = sweep(table_eta10, g, Quantity.FORWARD_PART)
        assert field.values.tolist() == [
            [amplitude_forward(table_eta10, float(t), float(d)) for d in g.deltas]
            for t in g.thetas]

    def test_memory_budget(self, monkeypatch, table_eta10):
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 1000)
        g = GridSpec(0.0, 1.0, 100, 0.0, 1.0, 100)
        with pytest.raises(ResourceLimitError):
            sweep(table_eta10, g, Quantity.PROBABILITY)

    def test_memory_budget_counts_rows_and_hermite_functions(self, monkeypatch,
                                                              table_eta10):
        # 2 x 3 output is 48 bytes; the budget fits it ten times over, but
        # not the two Legendre rows (96 kB) the sweep holds
        g = GridSpec(0.1, 0.2, 2, 0.0, 1.0, 3)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 480)
        with pytest.raises(ResourceLimitError):
            sweep(table_eta10, g, Quantity.PROBABILITY)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 1 << 20)
        sweep(table_eta10, g, Quantity.PROBABILITY)

    def test_memory_budget_counts_the_hermite_functions_once(self, monkeypatch,
                                                             table_eta10):
        # 4 x 3 grid in 2 chunks of 2 rows: one chunk is in flight, beside
        # one set of Hermite functions, (K + 5) n_box values per delta with
        # the recurrence's temporaries
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table_eta10.l_max + 1))
        g = GridSpec(0.1, 0.2, 4, 0.0, 1.0, 3)
        assert partialwave._check_budget(table_eta10, g.theta_n, 0) == [(0, 2), (2, 4)]
        boxes, k = table_eta10.box_centres.size, table_eta10.n_hermite
        # the expansion at L = 6000: K = 11 Hermite functions, one box
        assert (table_eta10.l_max, k, boxes) == (6000, 11, 1)
        # per row: its Legendre row, the recurrence's ring, its moments and
        # six per delta; 8 per degree; numpy's buffers
        row = table_eta10.l_max + 6 + 2 * specfun._RING_DEGREES + 2 * boxes * k + 6 * 3
        need = 8 * (4 * (3 + 5) + 2 * row + 8 * (table_eta10.l_max + 1) + (1 << 14)
                    + boxes * (k + 5) * 3)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", need)
        sweep(table_eta10, g, Quantity.PROBABILITY)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError):
            sweep(table_eta10, g, Quantity.PROBABILITY)

    def test_field_validation(self, table_eta10):
        g = GridSpec(0.1, 0.2, 2, 0.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        with pytest.raises(ValueError):
            FieldResult(grid=g, quantity=Quantity.PROBABILITY,
                        values=np.zeros((3, 2)), scenario=field.scenario,
                        model_kind=field.model_kind, l_max=field.l_max)
        with pytest.raises(ValueError):
            FieldResult(grid=g, quantity=Quantity.PROBABILITY,
                        values=np.full((2, 2), 2.0), scenario=field.scenario,
                        model_kind=field.model_kind, l_max=field.l_max)


def _bound_tables():
    for eps in (1e-4, 1e-3, 1e-2, 0.05, 0.0999):
        sc = build_scenario_from_eta(0.5 * eta_bound(eps), eps)
        for model in (PhaseShiftModel.coulomb_exact(), PhaseShiftModel.coulomb_asymptotic()):
            for l_max in (None, 2 * partialwave.choose_l_max(eps)):
                yield pytest.param(sc, model, l_max,
                                   id=f"{eps:g}-{model.kind.name}-{l_max or 'default'}")
    sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, 1e-2)
    well = partialwave.square_well_phase_shifts(5.0, 20.0 / sc.p, sc,
                                                partialwave.choose_l_max(1e-2))
    yield pytest.param(sc, well, None, id="0.01-SQUARE_WELL")


@pytest.mark.parametrize("scenario, model, l_max", _bound_tables())
def test_weights_keep_probability_within_its_check(scenario, model, l_max):
    # |A| <= 2 eps^2 sum_l w_l, so P stays within FieldResult's unitarity
    # allowance max(1e-6, eps^2) while (2 eps^2 sum_l w_l)^2 - 1 does, and a
    # probability sweep accepts every grid a fixed-delta `angular` writes.
    # Over 800 eps in [2e-4, 0.0999] the worst ratio to the allowance was
    # 0.335, at eps = 0.0999; half the allowance leaves room
    table = build_table(scenario, model, l_max=l_max)
    eps = scenario.eps
    assert (2 * eps ** 2 * table.weight.sum()) ** 2 - 1 <= 0.5 * max(1e-6, eps ** 2)


class TestEtaSweep:
    """Tables looked up per eta in a TableCache, as a sweep over eta does."""

    def test_single_eta_matches_table(self, table_eta10):
        cache = TableCache()
        table = cache.get_or_build(build_scenario_from_eta(10.0, EPS),
                                   PhaseShiftModel.coulomb_exact())
        assert probability(table, 0.5, 0.0) == probability(table_eta10, 0.5, 0.0)

    def test_cache_hits_are_bit_identical(self):
        cache = TableCache()
        model = PhaseShiftModel.coulomb_exact()
        scenarios = [build_scenario_from_eta(eta, EPS) for eta in (4.0, 7.0)]
        first = [cache.get_or_build(sc, model) for sc in scenarios]
        assert cache.misses == 2 and cache.hits == 0
        second = [cache.get_or_build(sc, model) for sc in scenarios]
        assert cache.misses == 2 and cache.hits == 2
        assert all(a is b for a, b in zip(first, second))
        assert [probability(t, 0.8, 0.1) for t in first] == [
            probability(build_table(sc, model), 0.8, 0.1) for sc in scenarios]

    def test_key_covers_every_scenario_field(self):
        # same eps and eta, other projectile: another p, sigma_x and R
        cache = TableCache()
        model = PhaseShiftModel.coulomb_exact()
        alpha = build_scenario_from_eta(10.0, 1e-3)
        proton = build_scenario_from_eta(10.0, 1e-3, m0=938.272)
        assert proton.eta == alpha.eta and proton.p != alpha.p
        t_alpha = cache.get_or_build(alpha, model)
        t_proton = cache.get_or_build(proton, model)
        assert cache.misses == 2 and cache.hits == 0
        assert t_alpha.scenario.p == alpha.p and t_proton.scenario.p == proton.p
        assert dcs(t_proton, 0.5, 0.2) == dcs(build_table(proton, model), 0.5, 0.2)

    def test_equal_models_share_one_table_of_the_default_l_max(self):
        cache = TableCache()
        sc = build_scenario_from_eta(10.0, EPS)
        chosen = cache.get_or_build(sc, PhaseShiftModel.coulomb_exact())
        assert chosen.l_max == partialwave.choose_l_max(EPS) == 6000
        assert cache.get_or_build(sc, PhaseShiftModel.coulomb_exact()) is chosen
        assert cache.get_or_build(sc, PhaseShiftModel.coulomb_asymptotic()) is not chosen
        assert (cache.misses, cache.hits) == (2, 1)

    def test_short_range_tables_are_keyed_by_their_phase_shifts(self):
        cache = TableCache()
        sc = build_scenario_from_eta(0.0, 0.05)
        a = PhaseShiftModel.short_range(np.full(200, 0.1), np.zeros(200))
        b = PhaseShiftModel.short_range(np.full(200, 0.2), np.zeros(200))
        t_a = cache.get_or_build(sc, a)
        assert cache.get_or_build(sc, PhaseShiftModel.short_range(a.delta_l, a.ddelta_dk)) is t_a
        assert cache.get_or_build(sc, b).phase_cos[0] == math.cos(0.4)
        assert (cache.misses, cache.hits) == (2, 1)

    def test_tracks_rutherford_in_agreement_window(self):
        # low-to-moderate eta at theta = pi/2 sits outside the shadow zone;
        # by eta ~ 100 the suppression reaches ~50% and tracking ends
        model = PhaseShiftModel.coulomb_exact()
        for eta in (1.0, 3.0, 10.0, 30.0):
            sc = build_scenario_from_eta(eta, EPS)
            p = probability(build_table(sc, model), math.pi / 2.0, 0.0)
            assert abs(p / rutherford_probability(sc, math.pi / 2.0) - 1.0) <= 0.20


class TestSerialization:
    def test_csv_round_trip_and_determinism(self, table_eta10, tmp_path):
        g = GridSpec(0.1, 0.3, 3, -1.0, 1.0, 3)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        field_to_csv(field, p1)
        field_to_csv(sweep(table_eta10, g, Quantity.PROBABILITY), p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "theta,delta,value"
        assert len(lines) == 1 + 9
        theta, delta, value = (float(x) for x in lines[1].split(","))
        assert value == field.values[0, 0]

    def test_json_repeats_byte_for_byte(self, table_eta10, tmp_path, monkeypatch):
        # the envelope holds the inputs and the values, nothing a run
        # measures, so two sweeps of the same inputs write the same bytes
        g = GridSpec(0.1, 0.3, 3, -1.0, 1.0, 3)
        monkeypatch.setattr(scan.time, "time", lambda: 1700000000.125)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        field_to_json(sweep(table_eta10, g, Quantity.PROBABILITY), p1)
        field_to_json(sweep(table_eta10, g, Quantity.PROBABILITY), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()).keys() == {
            "quantity", "scenario", "model", "l_max", "grid", "values", "generated_unix"}

    @staticmethod
    def _reference_csv(field):
        return "theta,delta,value\n" + "".join(
            "{:.17g},{:.17g},{:.17g}\n".format(t, d, v)
            for t, row in zip(field.grid.thetas.tolist(), field.values.tolist())
            for d, v in zip(field.grid.deltas.tolist(), row))

    @pytest.mark.parametrize("quantity", list(Quantity))
    def test_csv_bytes_equal_the_per_cell_rendering(self, quantity, monkeypatch,
                                                    table_eta10, tmp_path, capsys):
        # 10 rows a chunk, so the 13 angles come from two Legendre chunks
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 10 * 8 * (table_eta10.l_max + 1))
        field = sweep(table_eta10, GridSpec(0.0, 3.0, 13, -6.5, 7.25, 7), quantity)
        if quantity is Quantity.FORWARD_PART:
            assert field.values.min() < 0.0
        want = self._reference_csv(field)
        path = tmp_path / "field.csv"
        field_to_csv(field, path)
        assert path.read_bytes() == want.encode()
        capsys.readouterr()
        field_to_csv(field, "-")
        assert capsys.readouterr().out == want

    def test_csv_of_one_delta_and_one_angle(self, table_eta10, capsys):
        for grid in (GridSpec(0.5, 1.5, 3, 0.25, 0.25, 1), GridSpec(0.7, 0.7, 1, -1.0, 1.0, 4)):
            field = sweep(table_eta10, grid, Quantity.PROBABILITY)
            field_to_csv(field, None)
            assert capsys.readouterr().out == self._reference_csv(field)

    @pytest.mark.parametrize("target", ["path", "-", None])
    def test_writers_write_to_a_path_and_to_stdout(self, target, tmp_path, capsys):
        path = tmp_path / "out" if target == "path" else target
        rows = [(1, 0.1, -2.5e-300), (2, 1.0 / 3.0, 7.0)]
        scan.write_csv(path, "n,x,y", rows)
        text = path.read_text() if target == "path" else capsys.readouterr().out
        assert text == "n,x,y\n1,0.10000000000000001,-2.5e-300\n" \
                       "2,0.33333333333333331,7\n"
        scan.write_json(path, {"a": [1.5, -0.0]})
        text = path.read_text() if target == "path" else capsys.readouterr().out
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        assert doc["a"] == [1.5, -0.0] and "generated_unix" in doc

    @pytest.mark.parametrize("payload", [
        {},
        {"command": "angular", "eta": -10.0, "columns": ["a", "b"],
         "rows": [[0.0, None], [1.0 / 3.0, -0.0], [5e-324, -1e300]]},
        {"rows": [], "n": 3, "nested": {"x": [1, 2.5]}},
        # 129 rows of 20 values: batches of 51, 51 and 27 rows
        {"rows": [[i / 7.0 + j for j in range(20)] for i in range(129)]},
    ], ids=["empty", "table", "no-rows", "three-batches"])
    def test_json_streams_an_iterator_with_the_bytes_of_json_dumps(
            self, payload, monkeypatch, capsys):
        # a value given as an iterator is written item by item; the bytes
        # are those of one json.dumps of the whole, the timestamp last
        monkeypatch.setattr(scan.time, "time", lambda: 1700000000.125)
        want = json.dumps({**payload, "generated_unix": 1700000000.125}) + "\n"
        streamed = {k: iter(v) if k == "rows" else v for k, v in payload.items()}
        scan.write_json("-", streamed)
        assert capsys.readouterr().out == want
        scan.write_json("-", payload)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("items, sizes", [
        ([[0.5] * 20] * 129, [51, 51, 27]),
        ([1.0] * 2500, [1024, 1024, 452]),
        ([[0.5] * 4000, [0.5] * 3, 7.0, [0.5] * 4000], [1, 2, 1]),
        ([[0.5] * 1000, [0.5] * 24, [0.5]], [2, 1]),
        ([], []),
    ], ids=["rows", "scalars", "long-rows", "exact-fit", "empty"])
    def test_batches_hold_at_most_the_budget_or_one_item(self, items, sizes):
        # a list counts its length and anything else 1; a batch closes
        # before the item that would take it past the budget
        batches = list(scan._batches(iter(items)))
        assert [len(b) for b in batches] == sizes
        assert [item for b in batches for item in b] == items

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_refuses_non_finite_values(self, value, tmp_path):
        # JSON (RFC 8259) has no token for them
        for payload in ({"x": value}, {"rows": iter([[1.0, value]])}):
            with pytest.raises(ValueError, match="JSON compliant"):
                scan.write_json(tmp_path / "out.json", payload)

    @staticmethod
    def _traced_peak(export, field, path):
        tracemalloc.start()
        try:
            export(field, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def tall_field(self):
        # 2,000 x 20 probabilities, a 0.32 MB array, at eta = 1, eps = 0.05
        table = build_table(build_scenario_from_eta(1.0, 0.05), PhaseShiftModel.coulomb_exact())
        return sweep(table, GridSpec(0.01, 3.1, 2000, -4.0, 4.0, 20), Quantity.PROBABILITY)

    @pytest.mark.parametrize("export", [field_to_csv, field_to_json])
    def test_export_holds_a_few_rows(self, tall_field, export, tmp_path):
        # converting the whole grid with values.tolist() peaked at 1.97 MB
        # (CSV) and 5.86 MB (JSON) traced; batches of 51 rows peak at 0.52
        # and 0.31 MB
        assert self._traced_peak(export, tall_field, tmp_path / "field") < 1.0e6

    @pytest.fixture(scope="class")
    def wide_field(self):
        # 24 x 1200 probabilities, a 0.23 MB array, at eta = 1, eps = 1e-2:
        # each row is longer than a batch of `scan._BATCH_VALUES`
        table = build_table(build_scenario_from_eta(1.0, 1e-2), PhaseShiftModel.coulomb_exact())
        return sweep(table, GridSpec(0.01, 3.1, 24, -4.0, 4.0, 1200), Quantity.PROBABILITY)

    @pytest.mark.parametrize("export", [field_to_csv, field_to_json])
    def test_wide_export_holds_one_row(self, wide_field, export, tmp_path):
        # batches of 64 rows took in the whole grid and peaked at 1.18 MB
        # (CSV) and 4.12 MB (JSON) traced (`6f92119`); a budget of 1024
        # values converts and encodes one 1200-value row at a time, 0.30
        # and 0.22 MB.  The bound lies between the two
        assert self._traced_peak(export, wide_field, tmp_path / "field") < 0.6e6

    def test_json_bytes_equal_one_dumps_of_the_whole_grid(self, table_eta10, tmp_path,
                                                          monkeypatch):
        # 129 rows of 20 values convert and stream in batches of 51, 51 and
        # 27 rows
        field = sweep(table_eta10, GridSpec(0.1, 3.0, 129, -1.0, 1.0, 20), Quantity.PROBABILITY)
        path = tmp_path / "field.json"
        monkeypatch.setattr(scan.time, "time", lambda: 1700000000.125)
        field_to_json(field, path)
        doc = json.loads(path.read_text())
        doc["values"] = field.values.tolist()
        assert path.read_text() == json.dumps(doc) + "\n"

    def test_json_envelope(self, table_eta10, tmp_path):
        g = GridSpec(0.1, 0.3, 2, -1.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        path = tmp_path / "field.json"
        field_to_json(field, path)
        doc = json.loads(path.read_text())
        assert doc["quantity"] == "probability"
        assert doc["l_max"] == table_eta10.l_max
        assert np.allclose(doc["values"], field.values)
        assert "generated_unix" in doc
