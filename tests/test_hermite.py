"""The Hermite expansion in delta against the direct series.

`_delta_factors` and `_series_row` below are the direct evaluation the
expansion replaced: the (n_delta, L+1) matrix of e^{-(delta - xi_l)^2 / 8}
reduced against each Legendre row.  They are the oracle here.  The
expansion must match them within the table's recorded truncation bound
times the series' scale pref * sum_l |kern_l P_l| (pref = 2 eps^2, or
4 eps^2 for the scatter part), plus 8 ulp of that scale for the rounding of
the two sums: numpy's pairwise sum over 6001 terms may be off by about
log2(6001) = 13 ulp of the scale in either series.
"""

import dataclasses
import math

import numpy as np
import pytest

from coulscat import partialwave, specfun
from coulscat.kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    build_scenario,
    build_scenario_from_eta,
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
    kern_re, kern_im = kernel(table)
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
