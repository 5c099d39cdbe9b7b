import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from coulscat import (
    GridSpec,
    Quantity,
    ResourceLimitError,
    TableCache,
    amplitude_forward,
    amplitude_scatter,
    build_scenario_from_eta,
    dcs,
    field_to_csv,
    field_to_json,
    probability,
    rutherford_probability,
    sweep,
)
import coulscat
from coulscat import partialwave, scan
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
    @pytest.mark.parametrize("workers, cpus, theta_n, threads", [
        (2, 8, 35, 2),      # as asked
        (8, 8, 35, 4),      # one thread per chunk
        (8, 3, 35, 3),      # one thread per CPU
        (4, None, 35, None),  # unknown CPU count: inline
        (8, 8, 10, None),   # a single chunk runs inline
    ])
    def test_pool_size(self, monkeypatch, table_eta10, workers, cpus, theta_n, threads):
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(partialwave, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(partialwave.os, "cpu_count", lambda: cpus)
        g = GridSpec(0.1, 2.9, theta_n, 0.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY, workers=workers)
        assert sizes == ([] if threads is None else [threads])
        assert np.array_equal(field.values,
                              sweep(table_eta10, g, Quantity.PROBABILITY).values)

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
        assert len(partialwave._check_budget(table, g.theta_n, 0)[0]) == 2
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

    def test_terms_counter_and_checksum(self, table_eta10):
        g = GridSpec(0.1, 0.2, 4, 0.0, 1.0, 3)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        # the expansion's count at L = 6000, K = 11, one box: 4 angles'
        # moments, 4 * 2K(L+1), and 4 x 3 cells of 2 * n_box * K terms each
        assert (table_eta10.l_max, table_eta10.n_hermite, table_eta10.box_centres.size) \
            == (6000, 11, 1)
        assert field.terms_summed == 4 * 2 * 11 * 6001 + 4 * 3 * 2 * 1 * 11 == 528352
        again = sweep(table_eta10, g, Quantity.PROBABILITY, workers=4)
        assert field.checksum == again.checksum
        other = sweep(table_eta10, g, Quantity.DCS)
        assert other.checksum != field.checksum

    def test_short_range_checksum_covers_the_phase_shifts(self):
        sc = build_scenario_from_eta(0.0, 0.05)
        model = partialwave.square_well_phase_shifts(0.5, 5.0 / sc.p, sc, l_max=130)
        moved = np.array(model.delta_l)
        moved[3] += 1e-9
        g = GridSpec(0.1, 0.2, 2, 0.0, 1.0, 2)

        def checksum(delta_l):
            short = PhaseShiftModel.short_range(delta_l, model.ddelta_dk)
            return sweep(build_table(sc, short), g, Quantity.PROBABILITY).checksum

        assert checksum(model.delta_l) == checksum(model.delta_l.copy())
        assert checksum(moved) != checksum(model.delta_l)

    def test_forward_terms_counter_counts_the_real_component_only(self, table_eta10):
        # A_F is real: its moments and cells are summed for re alone, half
        # the (re, im) count above, and its values equal the single points
        g = GridSpec(0.1, 0.2, 4, 0.0, 1.0, 3)
        field = sweep(table_eta10, g, Quantity.FORWARD_PART)
        assert field.terms_summed == 4 * 1 * 11 * 6001 + 4 * 3 * 1 * 1 * 11 == 264176
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
        # 4 x 3 grid in 2 chunks of 2 rows on 2 threads: the threads share
        # one set of Hermite functions, n_box * K values per delta
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table_eta10.l_max + 1))
        monkeypatch.setattr(partialwave.os, "cpu_count", lambda: 2)
        g = GridSpec(0.1, 0.2, 4, 0.0, 1.0, 3)
        assert partialwave._check_budget(table_eta10, g.theta_n, 0, 2)[1] == 2
        n_hermite = table_eta10.box_centres.size * table_eta10.n_hermite
        need = 8 * (4 * 3 + 4 * (table_eta10.l_max + 1 + 6 * 3) + n_hermite * 3)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", need)
        field = sweep(table_eta10, g, Quantity.PROBABILITY, workers=2)
        assert np.array_equal(field.values, sweep(table_eta10, g, Quantity.PROBABILITY).values)
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError):
            sweep(table_eta10, g, Quantity.PROBABILITY, workers=2)

    def test_field_validation(self, table_eta10):
        g = GridSpec(0.1, 0.2, 2, 0.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        with pytest.raises(ValueError):
            FieldResult(grid=g, quantity=Quantity.PROBABILITY,
                        values=np.zeros((3, 2)), scenario=field.scenario,
                        model_kind=field.model_kind, l_max=field.l_max,
                        wall_time_s=0.0, checksum="x", terms_summed=0)
        with pytest.raises(ValueError):
            FieldResult(grid=g, quantity=Quantity.PROBABILITY,
                        values=np.full((2, 2), 2.0), scenario=field.scenario,
                        model_kind=field.model_kind, l_max=field.l_max,
                        wall_time_s=0.0, checksum="x", terms_summed=0)


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

    def test_requests_that_resolve_to_one_l_max_share_one_table(self):
        cache = TableCache()
        sc = build_scenario_from_eta(10.0, EPS)
        model = PhaseShiftModel.coulomb_exact()
        chosen = cache.get_or_build(sc, model)
        assert chosen.l_max == 6000
        assert cache.get_or_build(sc, model, l_max=6000) is chosen
        assert cache.get_or_build(sc, PhaseShiftModel.coulomb_exact()) is chosen
        assert (cache.misses, cache.hits) == (1, 2)
        assert cache.get_or_build(sc, model, tail_tol=1e-6) is not chosen
        assert cache.misses == 2

    def test_short_range_tables_are_keyed_by_their_phase_shifts(self):
        cache = TableCache()
        sc = build_scenario_from_eta(0.0, 0.05)
        a = PhaseShiftModel.short_range(np.full(200, 0.1), np.zeros(200))
        b = PhaseShiftModel.short_range(np.full(200, 0.2), np.zeros(200))
        t_a = cache.get_or_build(sc, a)
        assert cache.get_or_build(sc, PhaseShiftModel.short_range(a.delta_l, a.ddelta_dk)) is t_a
        assert cache.get_or_build(sc, b).phase_cos[0] == math.cos(0.4)
        assert (cache.misses, cache.hits) == (2, 1)

    def test_tail_tol_and_l_max_together_are_rejected(self):
        cache = TableCache()
        with pytest.raises(ValueError, match="not both"):
            cache.get_or_build(build_scenario_from_eta(10.0, EPS),
                               PhaseShiftModel.coulomb_exact(), tail_tol=1e-30, l_max=200)
        assert (cache.misses, cache.hits) == (0, 0)

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

    def test_json_envelope(self, table_eta10, tmp_path):
        g = GridSpec(0.1, 0.3, 2, -1.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY)
        path = tmp_path / "field.json"
        field_to_json(field, path)
        doc = json.loads(path.read_text())
        assert doc["quantity"] == "probability"
        assert doc["l_max"] == table_eta10.l_max
        assert doc["checksum"] == field.checksum
        assert np.allclose(doc["values"], field.values)
        assert "generated_unix" in doc
