import json
import math

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
    eta_sweep,
    field_to_csv,
    field_to_json,
    probability,
    rutherford_probability,
    sweep,
)
from coulscat import partialwave, scan
from coulscat.partialwave import PhaseShiftModel, build_table
from coulscat.scan import FieldResult

EPS = 1e-3


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

        monkeypatch.setattr(scan, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
        g = GridSpec(0.1, 2.9, theta_n, 0.0, 1.0, 2)
        field = sweep(table_eta10, g, Quantity.PROBABILITY, workers=workers)
        assert sizes == ([] if threads is None else [threads])
        assert np.array_equal(field.values,
                              sweep(table_eta10, g, Quantity.PROBABILITY).values)

    def test_box_longer_than_ten_thousand_terms(self):
        # eps = 2e-4 at eta = 0: L = 30000 in one box, so each moment is a
        # dot of 30001 terms, which BLAS may split across its own threads;
        # 150 angles span two Legendre chunks
        table = build_table(build_scenario_from_eta(0.0, 2e-4),
                            PhaseShiftModel.coulomb_exact())
        assert table.box_edges.tolist() == [0, 30001]
        g = GridSpec(0.001, 0.05, 150, -1.0, 1.0, 3)
        assert len(list(partialwave._theta_chunks(g.theta_n, table.l_max))) == 2
        base = sweep(table, g, Quantity.PROBABILITY, workers=1)
        assert np.array_equal(base.values,
                              sweep(table, g, Quantity.PROBABILITY, workers=2).values)
        thetas, deltas = g.thetas, g.deltas
        for i in (0, 75, 149):
            for j in range(3):
                assert base.values[i, j] == probability(table, float(thetas[i]),
                                                        float(deltas[j]))

    def test_dcs_prefactor(self, table_eta10):
        g = GridSpec(0.5, 1.5, 3, 0.0, 0.0, 1)
        prob = sweep(table_eta10, g, Quantity.PROBABILITY)
        xsec = sweep(table_eta10, g, Quantity.DCS)
        sc = table_eta10.scenario
        assert np.allclose(xsec.values,
                           prob.values / (16.0 * sc.eps ** 4 * sc.p ** 2),
                           rtol=1e-15)

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
        assert field.terms_summed == 4 * 3 * (table_eta10.l_max + 1)
        again = sweep(table_eta10, g, Quantity.PROBABILITY, workers=4)
        assert field.checksum == again.checksum
        other = sweep(table_eta10, g, Quantity.DCS)
        assert other.checksum != field.checksum

    def test_memory_budget(self, table_eta10):
        g = GridSpec(0.0, 1.0, 100, 0.0, 1.0, 100)
        with pytest.raises(ResourceLimitError):
            sweep(table_eta10, g, Quantity.PROBABILITY, memory_budget=1000)

    def test_memory_budget_counts_rows_and_hermite_functions(self, table_eta10):
        # 2 x 3 output is 48 bytes; the budget fits it ten times over, but
        # not the two Legendre rows (96 kB) the sweep holds
        g = GridSpec(0.1, 0.2, 2, 0.0, 1.0, 3)
        with pytest.raises(ResourceLimitError):
            sweep(table_eta10, g, Quantity.PROBABILITY, memory_budget=480)
        sweep(table_eta10, g, Quantity.PROBABILITY, memory_budget=1 << 20)

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
    def test_single_eta_matches_table(self, table_eta10):
        template = build_scenario_from_eta(1.0, EPS)
        res = eta_sweep(template, [10.0], 0.5, 0.0)
        assert res.probabilities[0] == probability(table_eta10, 0.5, 0.0)
        assert not res.errors

    def test_cache_hits_are_bit_identical(self):
        template = build_scenario_from_eta(1.0, EPS)
        cache = TableCache()
        first = eta_sweep(template, [4.0, 7.0], 0.8, 0.1, cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        second = eta_sweep(template, [4.0, 7.0], 0.8, 0.1, cache=cache)
        assert cache.hits == 2
        assert np.array_equal(first.probabilities, second.probabilities)

    def test_strength_bound_collected_not_fatal(self):
        template = build_scenario_from_eta(1.0, EPS)
        res = eta_sweep(template, [10.0, 900.0], 0.5, 0.0)
        assert math.isfinite(res.probabilities[0])
        assert math.isnan(res.probabilities[1])
        assert 900.0 in res.errors

    def test_tracks_rutherford_in_agreement_window(self):
        # low-to-moderate eta at theta = pi/2 sits outside the shadow zone;
        # by eta ~ 100 the suppression reaches ~50% and tracking ends
        template = build_scenario_from_eta(1.0, EPS)
        etas = [1.0, 3.0, 10.0, 30.0]
        res = eta_sweep(template, etas, math.pi / 2.0, 0.0)
        for eta, p in zip(etas, res.probabilities):
            ruth = rutherford_probability(build_scenario_from_eta(eta, EPS),
                                          math.pi / 2.0)
            assert abs(p / ruth - 1.0) <= 0.20


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
