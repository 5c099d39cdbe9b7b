"""The Hermite expansion in delta against the direct series.

`_delta_factors` and `_series_row` below are the direct evaluation the
expansion replaced: the (n_delta, L+1) matrix of e^{-(delta - xi_l)^2 / 8}
reduced against each Legendre row.  They are the oracle here.  The
expansion must match them within the table's recorded truncation bound
times the series' scale pref * sum_l |kern_l P_l| (pref = 2 eps^2, or
4 eps^2 for the scatter part), plus 8 ulp of that scale for the rounding of
the two sums.  The oracle sums 6001 terms pairwise (np.sum), whose error
bound grows like log2(6001) = 13 ulp of the scale.  The expansion computes
each moment as one BLAS dot product over its box, whose SIMD partial sums
each run through many terms, so its worst-case bound grows with the box
length instead.  Rounding errors of random sign grow only like the square
root of that depth; the largest error measured on these tables is 5 ulp of
the scale, 0.62 of the allowance.

The moments of a row must also not depend on how it is laid out or
batched: each is one dot product of a fixed length, so offsets, batch sizes
and threads leave it bit-identical.
"""

import contextlib
import dataclasses
import io
import math
import pathlib
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from coulscat import cli, partialwave, scan, specfun
from coulscat.kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    build_scenario,
    build_scenario_from_eta,
)
from coulscat.observables import delta_profile
from coulscat.partialwave import (
    PhaseShiftModel,
    amplitude_forward,
    amplitude_scatter,
    build_table,
    choose_l_max,
    probability,
    probability_grid,
    square_well_phase_shifts,
)

RECIPES = pathlib.Path(__file__).resolve().parents[1] / "recipes"
EPS = 1e-3
ETAS = [0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 800.0]
THETAS = np.concatenate(([0.0, 1e-3, 0.03, 0.5, 1.5, 3.0, math.pi],
                         np.linspace(0.01, 3.1, 13)))
PARTS = ["full", "forward", "scatter"]


def _delta_factors(table, deltas):
    """Gaussian time-shift factors exp(-(delta - xi_l)^2 / 8), shape (n_delta, L+1)."""
    d = np.asarray(deltas, dtype=float)[:, None] - table.xi[None, :]
    return np.exp(-(d * d) / 8.0)


def _series_row(table, p_row, g, kern_re, kern_im):
    """Reduce one theta row against a (n_delta, L+1) Gaussian factor matrix."""
    tre = kern_re * p_row
    tim = kern_im * p_row
    re = np.sum(g * tre[None, :], axis=1)
    im = np.sum(g * tim[None, :], axis=1)
    return re, im


def _direct(table, thetas, deltas, part):
    """The series `part` summed directly, and its scale pref * sum |kern_l P_l|
    per angle."""
    kernel, pref = partialwave._PARTS[part]
    kern = kernel(table)
    # a real part's kernel is one row: its imaginary part is zero
    kern_re, kern_im = kern if len(kern) == 2 else (kern[0], np.zeros_like(kern[0]))
    pref = pref * table.eps ** 2
    g = _delta_factors(table, deltas)
    rows = specfun.legendre_rows(np.asarray(thetas, dtype=float), table.l_max)
    amp = np.array([re + 1j * im for re, im in
                    (_series_row(table, row, g, kern_re, kern_im) for row in rows)])
    scale = np.array([np.sum(np.hypot(kern_re, kern_im) * np.abs(row)) for row in rows])
    return pref * amp, pref * scale


def _coulomb(eta):
    return build_table(build_scenario_from_eta(eta, EPS), PhaseShiftModel.coulomb_exact())


def _square_well():
    """A well whose xi is not monotone in l and needs several boxes."""
    sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, EPS)
    model = square_well_phase_shifts(5.0, 200.0 / sc.p, sc, l_max=choose_l_max(EPS))
    return build_table(sc, model)


@pytest.fixture(scope="module", params=ETAS + ["square-well"],
                ids=[f"eta={eta:g}" for eta in ETAS] + ["square-well"])
def table(request):
    if request.param == "square-well":
        return _square_well()
    return _coulomb(request.param)


def _window(table):
    """The default delta scan window widened by 4 on each side."""
    lo = min(-8.0, float(table.xi.min()) - 8.0)
    hi = max(8.0, float(table.xi.max()) + 8.0)
    return np.linspace(lo - 4.0, hi + 4.0, 161)


@pytest.mark.parametrize("part", PARTS)
def test_expansion_matches_direct_series(table, part):
    assert 1 <= table.n_hermite and 0.0 <= table.hermite_bound <= 2.0 ** -56
    deltas = _window(table)
    want, scale = _direct(table, THETAS, deltas, part)
    re, im = partialwave._eval_grid(table, THETAS, deltas, part)
    err = np.abs(re + 1j * im - want)
    allowed = table.hermite_bound * scale + 8.0 * np.spacing(scale)
    assert np.all(err <= allowed[:, None]), float(np.max(err / allowed[:, None]))


def test_boxes_partition_l_within_the_radius(table):
    edges = table.box_edges
    assert edges[0] == 0 and edges[-1] == table.l_max + 1
    assert np.all(np.diff(edges) >= 1)
    width = 2.0 * partialwave._BOX_RADIUS * math.sqrt(8.0)
    y = np.empty(table.l_max + 1)
    for (l0, l1), c in zip(zip(edges[:-1], edges[1:]), table.box_centres):
        xi = table.xi[l0:l1]
        assert xi.max() - xi.min() <= width
        y[l0:l1] = (xi - c) / math.sqrt(8.0)
    assert np.max(np.abs(y)) <= partialwave._BOX_RADIUS * (1.0 + 1e-12)
    assert table.y_powers.shape == (table.n_hermite, table.l_max + 1)
    n = min(3, table.n_hermite - 1)
    assert np.allclose(table.y_powers[n], y ** n / math.factorial(n), rtol=1e-14, atol=0.0)
    assert not table.y_powers.flags.writeable


def test_non_monotone_time_shifts_use_several_boxes():
    table = _square_well()
    steps = np.diff(table.xi)
    assert np.any(steps > 0.0) and np.any(steps < 0.0)
    assert table.box_centres.size > 1


def test_replacing_xi_rebuilds_the_expansion():
    base = _coulomb(10.0)
    scaled = dataclasses.replace(base, xi=3.5 * base.xi)
    assert scaled.box_centres[0] == pytest.approx(3.5 * base.box_centres[0])
    want, _scale = _direct(scaled, [0.5], [0.3], "full")
    got = partialwave.amplitude(scaled, 0.5, 0.3)
    assert abs(got - want[0, 0]) <= 1e-15


def test_free_case_needs_one_term():
    table = _coulomb(0.0)
    assert table.n_hermite == 1 and table.hermite_bound == 0.0
    assert table.box_centres.tolist() == [0.0]


class TestExpansionBuiltOnFirstRead:
    """A table builds its Hermite expansion on the first read that needs
    it, once, on the calling thread; sums at no time shift never build one.
    A spy on `_hermite_boxes` counts the builds."""

    @pytest.fixture
    def builds(self, monkeypatch):
        threads = []
        boxes = partialwave._hermite_boxes

        def spy(xi):
            threads.append(threading.get_ident())
            return boxes(xi)

        monkeypatch.setattr(partialwave, "_hermite_boxes", spy)
        return threads

    @staticmethod
    def _recipe(name, out):
        argv = [name.split("-")[0], "--config", str(RECIPES / f"{name}.cfg"),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return out.read_bytes()

    def test_optical_sweep_builds_none(self, builds, monkeypatch, tmp_path):
        lazy = self._recipe("optical-gamma", tmp_path / "lazy.csv")
        assert builds == []
        # the same recipe with every table's expansion built up front
        build = partialwave.build_table

        def eager(*args, **kwargs):
            table = build(*args, **kwargs)
            assert table.n_hermite >= 1
            return table

        monkeypatch.setattr(partialwave, "build_table", eager)
        assert self._recipe("optical-gamma", tmp_path / "eager.csv") == lazy
        assert len(builds) == 40

    def test_angular_recipe_builds_one(self, builds, tmp_path):
        self._recipe("angular-eta10-delta0.4", tmp_path / "ang.csv")
        assert builds == [threading.get_ident()]

    def test_two_chunk_sweep_on_two_threads_builds_one_on_the_caller(
            self, builds, monkeypatch):
        table = _coulomb(10.0)
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table.l_max + 1))
        monkeypatch.setattr(partialwave.os, "cpu_count", lambda: 2)
        grid = scan.GridSpec(0.1, 3.0, 4, -1.0, 0.5, 2)
        assert partialwave._check_budget(table, grid.theta_n, 0, 2) == ([(0, 2), (2, 4)], 2)
        field = scan.sweep(table, grid, scan.Quantity.PROBABILITY, workers=2)
        assert builds == [threading.get_ident()]
        assert np.array_equal(field.values,
                              probability_grid(_coulomb(10.0), grid.thetas, grid.deltas))

    def test_each_chunk_builds_what_its_threads_read_on_the_caller(self, monkeypatch):
        # nothing read first: the chunks' threads would each start a build
        table = _coulomb(10.0)
        builds, kernels = [], []
        expansion, (full, pref) = partialwave._hermite_expansion, partialwave._PARTS["full"]
        monkeypatch.setattr(partialwave, "_hermite_expansion",
                            lambda xi: builds.append(threading.get_ident()) or expansion(xi))
        monkeypatch.setitem(partialwave._PARTS, "full",
                            (lambda t: kernels.append(threading.get_ident()) or full(t), pref))
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table.l_max + 1))
        monkeypatch.setattr(partialwave.os, "cpu_count", lambda: 2)
        thetas = np.linspace(0.1, 3.0, 4)
        plan = partialwave._check_budget(table, thetas.size, 0, 2)
        assert plan == ([(0, 2), (2, 4)], 2)
        chunks = []
        partialwave._each_chunk(table, thetas, "full",
                                lambda i0, i1, _m: chunks.append((i0, i1)), plan)
        assert sorted(chunks) == [(0, 2), (2, 4)]
        assert builds == kernels == [threading.get_ident()]

    def test_budget_check_without_deltas_builds_none(self, builds):
        table = _coulomb(10.0)
        partialwave._check_budget(table, 5, 0)
        partialwave._check_budget(table, 1, 0, workers=2, grid_arrays=3)
        assert builds == [] and "_expansion" not in vars(table)
        partialwave._check_budget(table, 1, 1)
        assert len(builds) == 1 and "_expansion" in vars(table)

    @pytest.mark.parametrize("eta", [0.0, 10.0, 800.0])
    def test_built_arrays_equal_a_direct_build_and_are_read_only(self, builds, eta):
        table = _coulomb(eta)
        edges, centres, y = partialwave._hermite_boxes(table.xi)
        assert len(builds) == 1
        k, bound = partialwave._hermite_terms(float(np.max(np.abs(y))))
        powers = np.empty((k, y.size))
        powers[0] = 1.0
        for n in range(1, k):
            powers[n] = powers[n - 1] * y / n
        assert (table.n_hermite, table.hermite_bound) == (k, bound)
        for got, want in zip((table.box_edges, table.box_centres, table.y_powers),
                             (edges, centres, powers)):
            assert np.array_equal(got, want) and not got.flags.writeable
        # built once: later reads return the same arrays
        assert len(builds) == 2 and table.y_powers is table.y_powers
        assert len(builds) == 2


class TestSinglePointEqualsGridCell:
    """Every grid cell is the single-point evaluation, bit for bit, whatever
    the batch: n_delta of 1, 2, 24 and 161, and theta batches of 1, 31 and
    700 (700 crosses the 698-row Legendre chunk at L = 6000)."""

    DELTA = 3.7

    @pytest.fixture(scope="class")
    def table800(self):
        return _coulomb(800.0)

    @pytest.mark.parametrize("n_delta", [1, 2, 24, 161])
    def test_delta_batches(self, table800, n_delta):
        deltas = np.linspace(self.DELTA, 12.0, n_delta)
        thetas = np.linspace(0.2, 3.0, 31)
        grid = probability_grid(table800, thetas, deltas)
        for i in (0, 17, 30):
            for j in {0, n_delta - 1}:
                assert grid[i, j] == probability(table800, thetas[i], deltas[j])
        fwd = partialwave._eval_grid(table800, thetas, deltas, "forward")
        sca = partialwave._eval_grid(table800, thetas, deltas, "scatter")
        for i in (0, 30):
            assert fwd[0, i, 0] == amplitude_forward(table800, thetas[i], self.DELTA)
            assert complex(sca[0, i, 0], sca[1, i, 0]) == amplitude_scatter(
                table800, thetas[i], self.DELTA)

    @pytest.mark.parametrize("n_theta", [1, 31, 700])
    def test_theta_batches(self, table800, n_theta):
        thetas = np.linspace(0.1, 3.0, n_theta)
        deltas = np.array([-2.0, self.DELTA, 7.5])
        grid = probability_grid(table800, thetas, deltas)
        for i in sorted({0, n_theta // 2, 697, 698, n_theta - 1} & set(range(n_theta))):
            assert grid[i, 1] == probability(table800, thetas[i], self.DELTA)


class TestMomentsDoNotDependOnTheLayout:
    """A row's moments are bit-identical at any 8-byte offset in memory, in
    any batch, and when two threads reduce the halves of a block."""

    N_ROWS = 700

    @pytest.fixture(scope="class", params=[10.0, 800.0], ids=["eta=10", "eta=800"])
    def setup(self, request):
        table = _coulomb(request.param)
        rows = specfun.legendre_rows(np.linspace(0.05, 3.1, self.N_ROWS), table.l_max)
        want = np.stack([partialwave._moments(table, row[None].copy(), "full")[:, 0]
                         for row in rows], axis=1)
        return table, rows, want

    @pytest.mark.parametrize("offset", [1, 3, 5, 7])
    def test_rows_at_odd_offsets(self, setup, offset):
        table, rows, want = setup
        shifted = np.empty(rows.size + offset)[offset:].reshape(rows.shape)
        shifted[...] = rows
        for i in (0, 1, 350, self.N_ROWS - 1):
            assert np.array_equal(partialwave._moments(table, shifted[i : i + 1], "full"),
                                  want[:, i : i + 1])

    @pytest.mark.parametrize("batch", [1, 2, 31, 700])
    def test_batches(self, setup, batch):
        table, rows, want = setup
        got = np.concatenate([partialwave._moments(table, rows[i : i + batch], "full")
                              for i in range(0, self.N_ROWS, batch)], axis=1)
        assert np.array_equal(got, want)

    def test_two_threads_reduce_the_halves(self, setup):
        table, rows, want = setup
        half = self.N_ROWS // 2
        with ThreadPoolExecutor(max_workers=2) as pool:
            parts = list(pool.map(lambda r: partialwave._moments(table, r, "full"),
                                  (rows[:half], rows[half:])))
        assert np.array_equal(np.concatenate(parts, axis=1), want)


class TestOneCellFormsEqualTheArrayForms:
    """One cell (one row, one delta) runs `_hermite`'s recurrence and
    `_combine`'s sum on Python floats; every other shape runs them on
    arrays.  A 1x1 cell equals the same cell of a 1x2 and of a 2x1 batch,
    bit for bit: in the free case (K = 1), at eta = 10 (one box) and
    eta = 800 (4 boxes), for every part (the forward part has one
    component), with shared and per-row deltas, and at delta = +-1e300,
    where h_0 underflows to zero."""

    THETAS = (0.4, 2.3)
    DELTAS = (3.7, 1e300, -1e300)

    @pytest.fixture(scope="class", params=[0.0, 10.0, 800.0],
                    ids=["free", "eta=10", "eta=800"])
    def table(self, request):
        return _coulomb(request.param)

    def test_the_tables_cover_one_term_and_several_boxes(self, table):
        boxes, k = table.box_centres.size, table.n_hermite
        assert {0.0: (1, 1), 10.0: (1, 11), 800.0: (4, 22)}[table.scenario.eta] == (boxes, k)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_hermite_functions(self, table, delta):
        one = partialwave._hermite(table, [delta])
        assert one.shape == (table.box_centres.size * table.n_hermite, 1)
        assert np.array_equal(one, partialwave._hermite(table, [delta, -2.0])[:, :1])
        per_row = partialwave._hermite(table, [[delta]])
        assert per_row.shape == one.shape + (1,)
        assert np.array_equal(per_row, partialwave._hermite(table, [[delta], [-2.0]])[:, :1])
        assert np.array_equal(per_row, partialwave._hermite(table, [[delta, -2.0]])[..., :1])

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("part", PARTS)
    def test_shared_deltas(self, table, part, delta):
        theta = self.THETAS[0]
        cell = partialwave._eval_grid(table, [theta], [delta], part)
        assert cell.shape == (2, 1, 1)
        wide = partialwave._eval_grid(table, [theta], [delta, -2.0], part)
        tall = partialwave._eval_grid(table, self.THETAS, [delta], part)
        assert np.array_equal(cell, wide[:, :, :1])
        assert np.array_equal(cell, tall[:, :1])
        # the free case has no scattering part
        if delta == 3.7 and not (part == "scatter" and table.scenario.eta == 0.0):
            assert cell[0, 0, 0] != 0.0
        if part == "forward":
            assert np.all(wide[1] == 0.0)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("part", PARTS)
    def test_per_row_deltas(self, table, part, delta):
        rows = specfun.legendre_rows(np.array(self.THETAS), table.l_max)
        moments = partialwave._moments(table, rows, part)
        h = partialwave._hermite(table, np.array([[delta], [-2.0]]))
        both = partialwave._combine(moments, h)
        cell = partialwave._combine(moments[:, :1], h[:, :1])
        assert cell.shape == (len(moments), 1, 1)
        assert np.array_equal(cell, both[:, :1])
        wide = partialwave._combine(moments[:, :1],
                                    partialwave._hermite(table, np.array([[delta, -2.0]])))
        assert np.array_equal(cell, wide[..., :1])

    def test_a_one_angle_profile_equals_its_row_of_a_wider_one(self, table):
        # p_max re-evaluates P at each row's own peak: per-row deltas
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the free case is flat
            one = delta_profile(table, self.THETAS[:1])
            two = delta_profile(table, self.THETAS)
        assert one.delta_max[0] == two.delta_max[0]
        assert one.p_max[0] == two.p_max[0]


class TestDeltasMustBeFinite:
    """Every evaluation at a time shift takes its deltas through `_hermite`,
    which rejects a non-finite delta; a finite one far outside the xi hull,
    where h_0 underflows, still gives zero."""

    @pytest.mark.parametrize("call", [
        lambda t: probability(t, 0.5, math.inf),
        lambda t: partialwave.amplitude(t, 0.5, -math.inf),
        lambda t: amplitude_forward(t, 0.5, math.nan),
        lambda t: amplitude_scatter(t, 0.5, math.nan),
        lambda t: probability_grid(t, [0.5], [0.0, math.nan]),
    ], ids=["probability", "amplitude", "forward", "scatter", "grid"])
    def test_non_finite_delta_is_rejected(self, call):
        with pytest.raises(ValueError, match="delta must be finite"):
            call(_coulomb(10.0))

    @pytest.mark.parametrize("delta", [1e300, -1e300])
    def test_huge_finite_delta_gives_zero(self, delta):
        table = _coulomb(10.0)
        assert probability(table, 0.5, delta) == 0.0
        assert partialwave.amplitude(table, 0.5, delta) == 0.0
        assert np.all(probability_grid(table, [0.5, 2.0], [delta, delta]) == 0.0)
