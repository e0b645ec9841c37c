import itertools
from dataclasses import replace

import numpy as np
import pytest

from slaglab import charts
from slaglab.charts import (
    GridSamples,
    chart_jacobian,
    evaluate_chart,
    hessian_fit,
    l2_gram,
    pairing_structure,
    pullback_BW,
    sample_grid,
    tangent_cochains,
    transition_affine_fit,
)
from slaglab.dec import HodgeStructure
from slaglab.errors import InsufficientSamplesError, SingularJacobianError, SlagError
from slaglab.fixtures import cylinder_translation, interval_c1, two_handle
from slaglab.flux import ImmersionPath, tangent_one_form
from slaglab.immersion import ImmersionFamily, pullback_metric, reparametrize
from slaglab.meshes import CycleBasis, absolute_cycle_basis, relative_cycle_basis
from slaglab.runner import DEFAULT_TOLERANCES


def synthetic_grid(u_axis, v_of_u) -> GridSamples:
    """Grid with prescribed v(u) map; for negative controls."""
    m = 2
    pts = len(u_axis)
    shape = (pts,) * m
    u = np.zeros(shape + (m,))
    R = np.zeros(shape + (m,))
    S = np.zeros(shape + (m,))
    for idx in itertools.product(range(pts), repeat=m):
        uu = np.array([u_axis[i] for i in idx])
        u[idx] = uu
        R[idx] = uu
        S[idx] = v_of_u(uu)
    spacing = np.full(m, u_axis[1] - u_axis[0])
    return GridSamples(shape, spacing, u, R, S)


@pytest.fixture(scope="module")
def cyl():
    fx = cylinder_translation(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    pair = pairing_structure(hs, rel, ab)
    return fx, rel, pair.absolute, hs, pair


@pytest.fixture(scope="module")
def handles():
    fx = two_handle(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    pair = pairing_structure(hs, rel, ab)
    return fx, rel, pair.absolute, hs, pair


def test_pairing_is_certified_integer(cyl):
    fx, rel, ab, hs, pair = cyl
    assert pair.certification_residual < 1e-10
    assert pair.P.dtype == np.int64 and np.array_equal(pair.P, -np.eye(1))
    # the normalized absolute basis pairs to the identity
    assert np.array_equal(pairing_structure(hs, rel, ab).P, np.eye(1))


def test_pairing_interval():
    fx = interval_c1(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    pair = pairing_structure(hs, rel, ab)
    assert abs(round(np.linalg.det(pair.P))) == 1
    assert np.array_equal(pairing_structure(hs, rel, pair.absolute).P, np.eye(1))


def test_pairing_normalizes_a_sheared_basis_to_the_same_basis(handles):
    """A unimodular change of the absolute basis leaves the normalized basis unchanged."""
    fx, rel, ab, hs, pair = handles
    ab = absolute_cycle_basis(fx.mesh)
    sheared = CycleBasis(1, ab.chains @ np.array([[1, 1], [0, 1]]),
                         ab.dual @ np.array([[1, 0], [-1, 1]]))
    assert np.array_equal(sheared.dual.T @ sheared.chains, np.eye(2))
    plain, skew = pairing_structure(hs, rel, ab), pairing_structure(hs, rel, sheared)
    assert np.abs(skew.P).sum() == 3  # no signed permutation
    assert np.array_equal(skew.absolute.chains, plain.absolute.chains)
    assert np.array_equal(skew.absolute.dual, plain.absolute.dual)
    assert np.array_equal(plain.absolute.chains, pair.absolute.chains)
    assert np.array_equal(pairing_structure(hs, rel, skew.absolute).P, np.eye(2))


def test_pairing_without_an_integer_inverse_raises(handles):
    fx, rel, ab, hs, pair = handles
    doubled = replace(ab, dual=ab.dual * np.array([2, 1]))  # |det P| = 2
    with pytest.raises(SlagError, match="no integer inverse"):
        pairing_structure(hs, rel, doubled)


@pytest.mark.parametrize("build", [cylinder_translation, two_handle])
def test_pairing_sees_only_cohomology_classes(build):
    """Adding exact cochains to the cycle duals leaves P unchanged (Stokes)."""
    fx = build(1)
    mesh = fx.mesh
    rel, ab = relative_cycle_basis(mesh), absolute_cycle_basis(mesh)
    hs = HodgeStructure(mesh, pullback_metric(fx.model, fx.base))
    d0 = mesh.coboundary_operator(0)
    rng = np.random.default_rng(5)
    f_rel = rng.normal(size=(mesh.n_vertices, rel.m))
    f_rel[mesh.in_boundary(0)] = 0.0
    f_abs = rng.normal(size=(mesh.n_vertices, ab.m))
    shifted = pairing_structure(hs, replace(rel, dual=rel.dual + d0 @ f_rel),
                                replace(ab, dual=ab.dual + d0 @ f_abs))
    assert np.array_equal(shifted.P, pairing_structure(hs, rel, ab).P)
    assert shifted.certification_residual < 1e-12


def test_chart_at_origin_is_zero(cyl):
    fx, rel, ab, *_ = cyl
    sample = evaluate_chart(fx.model, fx.family, fx.lagrangians, [0.0], rel, ab, 33)
    assert np.abs(sample.R).max() == 0.0 and np.abs(sample.S).max() == 0.0


def test_chart_linearity_for_translation_family(cyl):
    fx, rel, ab, *_ = cyl
    s1 = evaluate_chart(fx.model, fx.family, fx.lagrangians, [0.1], rel, ab, 33)
    s2 = evaluate_chart(fx.model, fx.family, fx.lagrangians, [0.2], rel, ab, 33)
    assert np.allclose(2 * s1.R, s2.R, atol=1e-14)
    assert np.allclose(2 * s1.S, s2.S, atol=1e-14)


def test_jacobian_matches_periods(cyl):
    fx, rel, ab, hs, pair = cyl
    report = chart_jacobian(fx.model, fx.family, fx.lagrangians, hs, rel, ab)
    assert report.dR_error < 1e-12
    assert report.dS_error < 1e-12
    assert report.dR[0, 0] == pytest.approx(-0.5, abs=1e-12)


def test_singular_jacobian_for_duplicated_direction(cyl):
    fx, rel, ab, hs, pair = cyl
    dup = ImmersionFamily.translation(
        fx.base, [np.array([0, 1, 0, 0.0]), np.array([0, 1, 0, 0.0])]
    )
    with pytest.raises(SingularJacobianError):
        chart_jacobian(fx.model, dup, fx.lagrangians, hs, rel, ab)


def test_transition_translation(cyl):
    fx, rel, ab, *_ = cyl
    us = [np.array([x]) for x in (-0.08, -0.02, 0.05, 0.1)]
    shift = np.array([0.04])
    s1 = [evaluate_chart(fx.model, fx.family, fx.lagrangians, u, rel, ab, 33) for u in us]
    s2 = [
        evaluate_chart(fx.model, fx.family, fx.lagrangians, u - shift, rel, ab, 33,
                       base_shift=shift)
        for u in us
    ]
    shift_sample = evaluate_chart(fx.model, fx.family, fx.lagrangians, shift, rel, ab, 33)
    for coord in ("R", "S"):
        fit = transition_affine_fit(s1, s2, coord)
        assert np.abs(fit.A - np.eye(1)).max() < 1e-12
        expected_b = -(shift_sample.R if coord == "R" else shift_sample.S)
        assert np.abs(fit.b - expected_b).max() < 1e-12
        assert fit.residual < 1e-12
        assert fit.volume_defect < 1e-12


def test_transition_under_reparametrized_lift(cyl):
    """Rotating the lift acts trivially on classes: transition is the identity."""
    fx, rel, ab, *_ = cyl
    n_circ = 16
    psi = np.array([
        (v // n_circ) * n_circ + ((v % n_circ) + 2) % n_circ
        for v in range(fx.mesh.n_vertices)
    ])
    base2 = reparametrize(fx.base, psi)
    family2 = ImmersionFamily.translation(base2, [np.array([0, 1, 0, 0.0])])
    us = [np.array([x]) for x in (-0.06, 0.0, 0.04, 0.09)]
    s1 = [evaluate_chart(fx.model, fx.family, fx.lagrangians, u, rel, ab, 33) for u in us]
    s2 = [evaluate_chart(fx.model, family2, fx.lagrangians, u, rel, ab, 33) for u in us]
    fit = transition_affine_fit(s1, s2, "R")
    assert np.abs(fit.A - np.eye(1)).max() < 1e-12
    assert np.abs(fit.b).max() < 1e-14
    assert fit.volume_defect < 1e-12


def test_transition_rejects_degenerate_samples(cyl):
    fx, rel, ab, *_ = cyl
    one = evaluate_chart(fx.model, fx.family, fx.lagrangians, [0.1], rel, ab, 33)
    with pytest.raises(InsufficientSamplesError):
        transition_affine_fit([one], [one], "R")
    with pytest.raises(InsufficientSamplesError):
        transition_affine_fit([one, one, one], [one, one, one], "R")


def test_transition_negative_control_nonaffine():
    rng = np.random.default_rng(0)

    class FakeSample:
        def __init__(self, r):
            self.R = r

    xs = [FakeSample(rng.normal(size=2)) for _ in range(12)]
    ys = [FakeSample(np.array([x.R[0] ** 3, np.sin(3 * x.R[1])])) for x in xs]
    fit = transition_affine_fit(xs, ys, "R")
    assert fit.residual > 1e-2


@pytest.mark.parametrize("points, m", [(7, 2), (6, 2), (4, 3), (5, 1)])
def test_boustrophedon_visits_every_point_once_by_unit_steps(points, m):
    order = charts._boustrophedon(points, m)
    assert len({tuple(idx) for idx in order}) == len(order) == points ** m
    assert np.all(np.abs(np.diff(order, axis=0)).sum(axis=1) == 1)


@pytest.mark.parametrize("which, points, radius", [
    ("handles", 7, 0.08), ("handles", 6, 0.08), ("cyl", 7, 0.1),
])
def test_grid_is_one_flux_pass_matching_per_point_charts(which, points, radius, monkeypatch,
                                                         request):
    """The lattice walk's running sums are the straight-path charts, to rounding.

    An odd lattice has its centre at the basepoint; an even one has no node
    there, so its walk starts from the basepoint.
    """
    fx, rel, ab, _, _ = request.getfixturevalue(which)
    passes = []
    fluxes = charts.path_fluxes

    def spy(*args, **kwargs):
        passes.append(args[1].n_samples)
        return fluxes(*args, **kwargs)

    monkeypatch.setattr(charts, "path_fluxes", spy)
    grid = sample_grid(fx.model, fx.family, fx.lagrangians, rel, ab, radius=radius,
                       points_per_axis=points)
    nodes = points ** fx.family.n_params + (points % 2 == 0)  # an even lattice's walk starts at 0
    assert passes == [2 * nodes - 1]  # one Simpson panel per step
    monkeypatch.undo()
    for idx in itertools.product(range(points), repeat=fx.family.n_params):
        chart = evaluate_chart(fx.model, fx.family, fx.lagrangians, grid.u[idx], rel, ab, 17)
        np.testing.assert_allclose(grid.R[idx], chart.R, rtol=0, atol=1e-14)
        np.testing.assert_allclose(grid.S[idx], chart.S, rtol=0, atol=1e-14)


def test_bw_pullback_and_l2(cyl):
    fx, rel, ab, hs, pair = cyl
    grid = sample_grid(fx.model, fx.family, fx.lagrangians, rel, ab, radius=0.1, points_per_axis=5)
    emb = pullback_BW(grid)
    assert emb.W_max == 0.0
    thetas = tangent_cochains(fx.model, fx.family)
    L2 = l2_gram(hs, thetas)
    assert np.abs(emb.B_gram - L2).max() < 1e-12
    assert L2[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_bw_pullback_two_handles(handles):
    fx, rel, ab, hs, pair = handles
    grid = sample_grid(fx.model, fx.family, fx.lagrangians, rel, ab, radius=0.08, points_per_axis=5)
    emb = pullback_BW(grid)
    assert emb.W_max < 1e-14
    thetas = tangent_cochains(fx.model, fx.family)
    L2 = l2_gram(hs, thetas)
    assert np.allclose(np.diag(L2), fx.widths, atol=1e-12)
    assert np.abs(emb.B_gram - L2).max() < 1e-12


def test_bw_pullback_reads_b_at_the_centre_of_an_even_grid():
    """6 points leave a 4-wide interior: B is read at interior index 2, grid index 3."""
    axis = np.linspace(-0.1, 0.1, 6)
    # v = grad(u1^3 + u1 u2^2): dv/du = [[6 u1, 2 u2], [2 u2, 2 u1]] changes sign with u
    grid = synthetic_grid(axis, lambda u: np.array([3 * u[0] ** 2 + u[1] ** 2, 2 * u[0] * u[1]]))
    emb = pullback_BW(grid)
    h = axis[1] - axis[0]

    def jacobian(values):
        return np.stack([(values[4, 3] - values[2, 3]) / (2 * h),
                         (values[3, 4] - values[3, 2]) / (2 * h)], axis=-1)

    g = jacobian(grid.R).T @ jacobian(grid.S)
    np.testing.assert_allclose(emb.B_gram, 0.5 * (g + g.T), rtol=1e-14, atol=0)


def test_l2_gram_orthogonal_directions_and_zero_tangent(handles):

    fx, rel, ab, hs, pair = handles
    thetas = tangent_cochains(fx.model, fx.family)
    L2 = l2_gram(hs, thetas)
    assert abs(L2[0, 1]) < 1e-14
    still = ImmersionPath.straight(fx.family, np.zeros(2), 3)  # a zero-amplitude path
    zero = [tangent_one_form(fx.model, still, 0)]
    Lz = l2_gram(hs, zero)
    assert np.abs(Lz).max() == 0.0


def test_hessian_fit_exact_for_linear_graph(cyl):
    fx, rel, ab, hs, pair = cyl
    grid = sample_grid(fx.model, fx.family, fx.lagrangians, rel, ab, radius=0.1, points_per_axis=7)
    fit = hessian_fit(grid)
    assert fit.symmetry_residual == 0.0
    assert fit.gradient_residual < 1e-12
    assert fit.hessian[0, 0] == pytest.approx(2.0, rel=1e-6)
    assert fit.hessian_vs_B < 1e-6


def test_hessian_fit_two_handles(handles):
    fx, rel, ab, hs, pair = handles
    grid = sample_grid(fx.model, fx.family, fx.lagrangians, rel, ab, radius=0.08, points_per_axis=7)
    fit = hessian_fit(grid)
    assert fit.symmetry_residual < 1e-12
    assert np.allclose(fit.hessian, np.diag([2.0, 4.0]), atol=1e-5)


def test_hessian_fit_rejects_curl_field():
    grid = synthetic_grid(np.linspace(-0.1, 0.1, 5), lambda u: np.array([u[1], -u[0]]))
    fit = hessian_fit(grid)
    assert fit.symmetry_residual > DEFAULT_TOLERANCES["hessian_symmetry"]
    assert fit.symmetry_residual == 2.0


def test_hessian_fit_accepts_gradient_field():
    grid = synthetic_grid(
        np.linspace(-0.1, 0.1, 7),
        lambda u: np.array([2 * u[0] + u[1], u[0] + 3 * u[1]]),  # grad of quadratic
    )
    fit = hessian_fit(grid)
    assert fit.symmetry_residual < 1e-12
    assert np.allclose(fit.hessian, [[2, 1], [1, 3]], atol=1e-6)
