"""The Hermite expansion in delta against the direct series.

`_delta_factors` and `_series_row` below are the direct evaluation the
expansion replaced: the (n_delta, L+1) matrix of e^{-(delta - xi_l)^2 / 8}
reduced against each Legendre row.  They are the oracle here.  The
expansion must match them within the table's recorded truncation bound
times the series' scale pref * sum_l |kern_l P_l| (pref = 2 eps^2, the
one prefactor of every part), plus 8 ulp of that scale for the rounding of
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

from coulscat import cli, observables, partialwave, scan, specfun
from coulscat.kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    build_scenario,
    build_scenario_from_eta,
)
from coulscat.observables import (
    dcs,
    dcs_factor,
    delta_max_at,
    delta_profile,
)
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
    kern = table._kernel(part)
    # a real part's kernel is one row: its imaginary part is zero
    kern_re, kern_im = kern if len(kern) == 2 else (kern[0], np.zeros_like(kern[0]))
    pref = 2.0 * table.eps ** 2
    g = _delta_factors(table, deltas)
    rows = specfun.legendre_rows(np.asarray(thetas, dtype=float), table.l_max)
    amp = np.array([re + 1j * im for re, im in
                    (_series_row(table, row, g, kern_re, kern_im) for row in rows)])
    scale = np.array([np.sum(np.hypot(kern_re, kern_im) * np.abs(row)) for row in rows])
    return pref * amp, pref * scale


def _spy_on_property(monkeypatch, name, calls):
    """Append the building thread's id to `calls` whenever the table
    property `name` is built (a `functools.cached_property`, whose `func`
    runs on a first read only)."""
    prop = vars(partialwave.PartialWaveTable)[name]
    build = prop.func
    monkeypatch.setattr(prop, "func",
                        lambda t: calls.append(threading.get_ident()) or build(t))


def _plan(table, thetas, deltas):
    """The `_check_budget` chunks of the grid."""
    return partialwave._check_budget(table, np.size(thetas), np.size(deltas))


def _series(table, thetas, deltas, part):
    """`_eval_grid` of the series `part`: complex, re + 1j * im of its two
    components, or real for the forward part, whose one component is its
    real part."""
    plan = _plan(table, thetas, deltas)
    if part == "forward":
        return partialwave._eval_grid(table, thetas, deltas, part, partialwave._real, plan)
    re, im = (partialwave._eval_grid(table, thetas, deltas, part, lambda *c, k=k: c[k], plan)
              for k in (0, 1))
    return re + 1j * im


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
    err = np.abs(_series(table, THETAS, deltas, part) - want)
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


def test_replacing_xi_rebuilds_the_expansion(monkeypatch):
    # a replaced table derives its own xi, here through a scaled `_time_shifts`
    base = _coulomb(10.0)
    centre = base.box_centres[0]
    shifts = partialwave._time_shifts
    monkeypatch.setattr(partialwave, "_time_shifts", lambda *args: 3.5 * shifts(*args))
    scaled = dataclasses.replace(base)
    assert np.array_equal(scaled.xi, 3.5 * base.xi)
    assert scaled.box_centres[0] == pytest.approx(3.5 * centre)
    want, _scale = _direct(scaled, [0.5], [0.3], "full")
    got = partialwave.amplitude(scaled, 0.5, 0.3)
    assert abs(got - want[0, 0]) <= 1e-15


def test_free_case_needs_one_term():
    table = _coulomb(0.0)
    assert table.n_hermite == 1 and table.hermite_bound == 0.0
    assert table.box_centres.tolist() == [0.0]


def _eager_xi(scenario, model, l_max):
    """xi_l as `build_table` once computed it for every table, eagerly."""
    eps, eta = scenario.eps, scenario.eta
    l = np.arange(l_max + 1, dtype=float)
    if model.kind is partialwave.PhaseShiftKind.SHORT_RANGE_TABLE:
        return (2.0 / scenario.sigma_x) * model.ddelta_dk[: l_max + 1]
    if eta == 0.0:
        return np.zeros(l_max + 1)
    ln2pr = math.log(2.0 * scenario.p * scenario.R)
    if model.kind is partialwave.PhaseShiftKind.COULOMB_EXACT:
        return 4.0 * eps * eta * (ln2pr - 1.0 - specfun.dsigma_deta_table(l_max, eta))
    lp1 = l + 1.0
    return 4.0 * eps * eta * (ln2pr - 1.0 - 0.5 * np.log(lp1 * lp1 + eta * eta) - 1.0)


class TestTimeShiftsBuiltOnFirstRead:
    """A table builds xi on its first read, once, on the calling thread;
    the sums at no time shift never read it, so a Coulomb table they use
    never builds its digamma table.  A spy on `specfun.dsigma_deta_table`
    counts the digamma tables."""

    @pytest.fixture
    def digammas(self, monkeypatch):
        threads = []
        table = specfun.dsigma_deta_table

        def spy(*args):
            threads.append(threading.get_ident())
            return table(*args)

        monkeypatch.setattr(specfun, "dsigma_deta_table", spy)
        return threads

    def test_sums_at_no_time_shift_build_none(self, digammas):
        table = _coulomb(10.0)
        assert digammas == [] and "xi" not in vars(table)
        observables.optical_ratio(table)
        observables.total_cross_section(table, table.scenario)
        observables.scattering_amplitude_f(table, table.scenario, 0.0)
        observables.scattering_amplitude_f(table, table.scenario, 0.7)
        assert digammas == [] and "xi" not in vars(table)

    def test_optical_sweep_builds_none(self, digammas, tmp_path):
        out = tmp_path / "optical.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["optical", "--eta-min", "1", "--eta-max", "3",
                             "--eta-n", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        assert digammas == []

    def test_first_read_builds_once_on_the_caller(self, digammas):
        table = _coulomb(10.0)
        xi = table.xi
        assert digammas == [threading.get_ident()]
        assert table.xi is xi and table.n_hermite >= 1
        probability(table, 0.5, 0.3)
        assert len(digammas) == 1

    def test_xi_and_the_shared_eps_arrays_are_read_only(self):
        table = _coulomb(10.0)
        shared = partialwave._eps_arrays(table.eps, table.l_max)
        assert table.weight is shared.weight
        for arr in (table.xi, shared.x, shared.weight, shared.damping4, shared.damping2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.xi = np.zeros(table.l_max + 1)

    @pytest.mark.parametrize("eta", [0.0, 10.0, -10.0, 800.0])
    @pytest.mark.parametrize("model", [PhaseShiftModel.coulomb_exact(),
                                       PhaseShiftModel.coulomb_asymptotic()],
                             ids=["exact", "asymptotic"])
    def test_xi_equals_the_eager_formula(self, eta, model):
        table = build_table(build_scenario_from_eta(eta, EPS), model)
        want = _eager_xi(table.scenario, model, table.l_max)
        assert _bits(table.xi) == _bits(want)

    def test_square_well_xi_equals_the_eager_formula(self):
        table = _square_well()
        want = _eager_xi(table.scenario, table.model, table.l_max)
        assert _bits(table.xi) == _bits(want)


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

    def test_two_chunk_sweep_on_two_workers_builds_one_on_the_caller(
            self, builds, monkeypatch):
        # each chunk of two rows is reduced on the caller, whatever the
        # worker count
        table = _coulomb(10.0)
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table.l_max + 1))
        grid = scan.GridSpec(0.1, 3.0, 4, -1.0, 0.5, 2)
        assert partialwave._check_budget(table, grid.theta_n, 0) == [(0, 2), (2, 4)]
        field = scan.sweep(table, grid, scan.Quantity.PROBABILITY, workers=2)
        assert builds == [threading.get_ident()]
        assert np.array_equal(field.values,
                              probability_grid(_coulomb(10.0), grid.thetas, grid.deltas))

    def test_two_chunks_build_the_expansion_and_kernel_once_on_the_caller(
            self, monkeypatch):
        # the expansion and the kernel serve every chunk's moments
        table = _coulomb(10.0)
        builds, kernels = [], []
        expansion = partialwave._hermite_expansion
        monkeypatch.setattr(partialwave, "_hermite_expansion",
                            lambda xi: builds.append(threading.get_ident()) or expansion(xi))
        _spy_on_property(monkeypatch, "_kern_full", kernels)
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table.l_max + 1))
        thetas = np.linspace(0.1, 3.0, 4)
        chunks = partialwave._check_budget(table, thetas.size, 0)
        assert chunks == [(0, 2), (2, 4)]
        field = partialwave._eval_grid(table, thetas, [0.0, 0.5], "full",
                                       partialwave._abs2, chunks)
        assert builds == kernels == [threading.get_ident()]
        assert np.array_equal(field, probability_grid(table, thetas, [0.0, 0.5]))
        seen = []
        for i0, i1, rows in partialwave._each_chunk(table, thetas, chunks):
            partialwave._moments(table, rows, "full")
            seen.append((i0, i1))
        assert seen == [(0, 2), (2, 4)]
        # kept with the table: the later reads built nothing
        assert builds == kernels == [threading.get_ident()]

    def test_one_pass_of_rows_serves_two_series(self, monkeypatch):
        # a caller that needs several series takes each one's moments from
        # the same yielded rows: they equal separate passes, bit for bit,
        # and reduce to the grid cells of each series
        table = _coulomb(10.0)
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 2 * 8 * (table.l_max + 1))
        grid = scan.GridSpec(0.1, 3.0, 4, -1.0, 0.5, 3)
        chunks = partialwave._check_budget(table, grid.theta_n, grid.delta_n)
        assert chunks == [(0, 2), (2, 4)]
        shared = {"full": [], "forward": []}
        for _i0, _i1, rows in partialwave._each_chunk(table, grid.thetas, chunks):
            for part, moments in shared.items():
                moments.append(partialwave._moments(table, rows, part))
        for part, moments in shared.items():
            alone = [partialwave._moments(table, rows, part)
                     for _i0, _i1, rows in partialwave._each_chunk(table, grid.thetas, chunks)]
            assert [_bits(m) for m in moments] == [_bits(m) for m in alone]
        h = partialwave._hermite(table, grid.deltas)
        full, forward = (np.concatenate(shared[part], axis=1) for part in ("full", "forward"))
        assert _bits(partialwave._abs2(*partialwave._combine(full, h))) == _bits(
            probability_grid(table, grid.thetas, grid.deltas))
        (forward_part,) = partialwave._combine(forward, h)
        assert _bits(forward_part) == _bits(
            scan.sweep(table, grid, scan.Quantity.FORWARD_PART).values)

    def test_kernels_and_default_scan_are_built_once_on_the_caller(self, monkeypatch):
        # every reader of a kernel or of the default scan, twice over
        names = ("_kern_full", "_kern_forward", "_kern_scatter", "_default_scan")
        calls = {name: [] for name in names}
        for name in names:
            _spy_on_property(monkeypatch, name, calls[name])
        table = _coulomb(10.0)
        grid = scan.GridSpec(0.1, 3.0, 4, -1.0, 0.5, 2)
        for _ in range(2):
            for quantity in scan.Quantity:
                scan.sweep(table, grid, quantity)
            delta_profile(table, [0.5, 1.5])
            delta_max_at(table, 2.5)
            observables.scattering_amplitude_f(table, table.scenario, 0.5)
        assert calls == {name: [threading.get_ident()] for name in names}

    def test_budget_check_without_deltas_builds_none(self, builds):
        table = _coulomb(10.0)
        partialwave._check_budget(table, 5, 0)
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
        fwd = _series(table800, thetas, deltas, "forward")
        sca = _series(table800, thetas, deltas, "scatter")
        for i in (0, 30):
            assert fwd[i, 0] == amplitude_forward(table800, thetas[i], self.DELTA)
            assert sca[i, 0] == amplitude_scatter(table800, thetas[i], self.DELTA)

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
    """A single point (`partialwave._point`) runs the Hermite recurrence
    (`_point_hermite`) and the sum over j (`_point_sum`) on Python floats;
    grids run `_hermite` and `_combine` on arrays.  The one cell equals the
    same cell of a 1x2 and of a 2x1 batch, bit for bit: in the free case
    (K = 1), at eta = 10 (one box) and eta = 800 (4 boxes), for every part
    (the forward part has one component), with shared and per-row deltas,
    and at delta = +-1e300, where h_0 underflows to zero."""

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
        one = np.array(partialwave._point_hermite(table, delta))
        assert one.shape == (table.box_centres.size * table.n_hermite,)
        assert _bits(one) == _bits(partialwave._hermite(table, [delta])[:, 0])
        assert _bits(one) == _bits(partialwave._hermite(table, [delta, -2.0])[:, 0])
        per_row = partialwave._hermite(table, [[delta], [-2.0]])
        assert _bits(one) == _bits(per_row[:, 0, 0])
        assert _bits(one) == _bits(partialwave._hermite(table, [[delta, -2.0]])[:, 0, 0])

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("part", PARTS)
    def test_shared_deltas(self, table, part, delta):
        theta = self.THETAS[0]
        cell = np.array(partialwave._point(table, theta, delta, part))
        # the forward part is real: it has no imaginary component at all
        assert cell.shape == ((1,) if part == "forward" else (2,))
        for grid in (_components(table, [theta], [delta], part),
                     _components(table, [theta], [delta, -2.0], part),
                     _components(table, self.THETAS, [delta], part)):
            assert _bits(cell) == _bits(grid[:, 0, 0])
        # the free case has no scattering part
        if delta == 3.7 and not (part == "scatter" and table.scenario.eta == 0.0):
            assert cell[0] != 0.0

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("part", PARTS)
    def test_per_row_deltas(self, table, part, delta):
        rows = specfun.legendre_rows(np.array(self.THETAS), table.l_max)
        moments = partialwave._moments(table, rows, part)
        cell = np.array(partialwave._point_sum(moments[:, 0],
                                               partialwave._point_hermite(table, delta)))
        both = partialwave._combine(moments, partialwave._hermite(
            table, np.array([[delta], [-2.0]])))
        assert _bits(cell) == _bits(both[:, 0, 0])
        wide = partialwave._combine(moments[:, :1],
                                    partialwave._hermite(table, np.array([[delta, -2.0]])))
        assert _bits(cell) == _bits(wide[:, 0, 0])

    def test_a_one_angle_profile_equals_its_row_of_a_wider_one(self, table):
        # p_max re-evaluates P at each row's own peak: per-row deltas, and a
        # one-row chunk's peak is a single point
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the free case is flat
            one = delta_profile(table, self.THETAS[:1])
            two = delta_profile(table, self.THETAS)
        assert one.delta_max[0] == two.delta_max[0]
        assert one.p_max[0] == two.p_max[0]


def _bits(values) -> bytes:
    """The float64 bytes of `values`, so that a zero's sign counts."""
    return np.asarray(values, dtype=float).tobytes()


def _components(table, thetas, deltas, part):
    """The series `part`'s components on the grid, through `_eval_grid`,
    stacked: shape (c, n_theta, n_delta)."""
    return np.stack([partialwave._eval_grid(table, thetas, deltas, part,
                                            lambda *c, k=k: c[k],
                                            _plan(table, thetas, deltas))
                     for k in range(len(table._kernel(part)))])


class TestPointSeriesEqualTheirGridCells:
    """The five single-point series equal their `_eval_grid` cells bit for
    bit, zeros' signs too: in the free case, at eta = 10 and 800 and on a
    square well of several Hermite boxes, at theta 0, 0.4, 2.3 and pi, and
    at delta = 3.7 and +-1e300."""

    THETAS = (0.0, 0.4, 2.3, math.pi)

    @pytest.fixture(scope="class", params=[0.0, 10.0, 800.0, "square-well"],
                    ids=["free", "eta=10", "eta=800", "square-well"])
    def table(self, request):
        if request.param == "square-well":
            table = _square_well()
            assert table.box_centres.size > 1
            return table
        return _coulomb(request.param)

    @pytest.mark.parametrize("delta", [3.7, 1e300, -1e300])
    def test_each_series(self, table, delta):
        deltas = [delta, -2.0]
        full = _components(table, self.THETAS, deltas, "full")
        (forward,) = _components(table, self.THETAS, deltas, "forward")
        scatter = _components(table, self.THETAS, deltas, "scatter")
        p_grid = partialwave.probability_grid(table, self.THETAS, deltas)
        factor = dcs_factor(table.scenario)
        for i, theta in enumerate(self.THETAS):
            cells = {
                "probability": (probability(table, theta, delta), p_grid[i, 0]),
                "dcs": (dcs(table, theta, delta), p_grid[i, 0] * factor),
                "amplitude": (partialwave.amplitude(table, theta, delta),
                              full[0, i, 0] + 1j * full[1, i, 0]),
                "amplitude_forward": (amplitude_forward(table, theta, delta),
                                      forward[i, 0]),
                "amplitude_scatter": (amplitude_scatter(table, theta, delta),
                                      scatter[0, i, 0] + 1j * scatter[1, i, 0]),
            }
            for name, (point, cell) in cells.items():
                assert type(point) is type(cell.item()), name
                parts = [point.real, point.imag] if isinstance(point, complex) else [point]
                cell_parts = [cell.real, cell.imag] if isinstance(point, complex) else [cell]
                assert _bits(parts) == _bits(cell_parts), (name, theta)


class TestDeltaMaxAtIsAProfileRow:
    """`delta_max_at(table, theta)` is `delta_profile(table, [theta])`'s
    one row, and the same row of a three-angle profile, bit for bit; the
    default window's scan is built once and kept with the table."""

    @pytest.fixture(scope="class", params=[0.0, 10.0, -10.0, 800.0, "square-well"],
                    ids=["free", "eta=10", "eta=-10", "eta=800", "square-well"])
    def table(self, request):
        if request.param == "square-well":
            return _square_well()
        return _coulomb(request.param)

    @pytest.mark.parametrize("theta", [0.0, 0.03, 1.1, math.pi])
    def test_equals_the_profile_rows(self, table, theta):
        thetas = [0.7, theta, 2.9]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the free case is flat
            point = delta_max_at(table, theta)
            one = delta_profile(table, [theta])
            three = delta_profile(table, thetas)
        assert _bits(point) == _bits([one.delta_max[0], one.p_max[0]])
        assert _bits(point) == _bits([three.delta_max[1], three.p_max[1]])
        assert type(point[0]) is float and type(point[1]) is float

    def test_the_default_scan_is_kept_with_the_table(self, table, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            first = delta_profile(table, [0.5])
            calls = []
            hermite = partialwave._hermite
            monkeypatch.setattr(partialwave, "_hermite",
                                lambda *args: calls.append(args) or hermite(*args))
            again = delta_profile(table, [1.5])
            delta_max_at(table, 2.5)
            assert again.deltas is first.deltas and not first.deltas.flags.writeable
            assert calls == []
            # an explicit window builds its own scan, equal to the default one
            lo, hi, _n = partialwave._scan_window(table)
            explicit = delta_profile(table, [0.5], (lo, hi))
        assert explicit.deltas is not first.deltas and len(calls) == 1
        assert np.array_equal(explicit.deltas, first.deltas)
        assert _bits(explicit.p_scan) == _bits(first.p_scan)


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
