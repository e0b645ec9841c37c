import math
from types import SimpleNamespace

import numpy as np
import pytest

from slaglab.ambient import BoundaryLagrangian, make_model
from slaglab.dec import Cochain
from slaglab.errors import (
    ConfigError,
    DegreeMismatchError,
    LabelViolationError,
    NotAutomorphismError,
)
from slaglab.expressions import CoordinateMap, parse_expression
from slaglab.fixtures import cylinder_translation, interval_c1, two_handle
from slaglab.immersion import (
    Immersion,
    ImmersionFamily,
    _gram_volumes,
    permutation_on_cochains,
    pullback_metric,
    reparametrize,
    validate,
    wrapped_frames,
)
from slaglab.meshes import build_mesh
from slaglab.runner import _random_rigid_path


def pullback_form(model, immersion, form, degree):
    """Exact integral of a constant degree-k form over every image k-simplex."""
    mesh = immersion.mesh
    if not 0 < degree <= mesh.dim:
        raise DegreeMismatchError(
            f"cannot pull a {degree}-form back to a {mesh.dim}-complex"
        )
    if form.degree != degree:
        raise DegreeMismatchError(f"form degree {form.degree} != requested {degree}")
    frames = immersion.simplex_frames(model, degree)
    vals = form(frames) / math.factorial(degree)
    return Cochain(mesh, degree, vals)


def special_ok(report) -> bool:
    return report.ok and report.special_residual <= 1e-10


@pytest.fixture(scope="module")
def cyl():
    return cylinder_translation(1)


def cylinder_rotation(fx, steps=1):
    """Vertex permutation rotating the circumferential direction."""
    n_circ = 16
    psi = np.empty(fx.mesh.n_vertices, dtype=int)
    for v in range(fx.mesh.n_vertices):
        i, j = divmod(v, n_circ)
        psi[v] = i * n_circ + (j + steps) % n_circ
    return psi


def cylinder_axial_flip(fx):
    # composing the axial flip with a circumferential reflection maps the
    # diagonal split of each quad onto itself, giving a true automorphism
    n_circ, n_axial = 16, 8
    psi = np.empty(fx.mesh.n_vertices, dtype=int)
    for v in range(fx.mesh.n_vertices):
        i, j = divmod(v, n_circ)
        psi[v] = (n_axial - i) * n_circ + (-j) % n_circ
    return psi


def test_fixture_validates_cleanly(cyl):
    report = validate(cyl.model, cyl.base, cyl.lagrangians)
    assert report.ok and special_ok(report)
    assert report.lagrangian_residual <= 1e-14
    assert report.special_residual <= 1e-14
    assert report.boundary_distance <= 1e-14
    assert report.transversality_margin > 0.05


def test_two_handle_validates():
    fx = two_handle(1)
    report = validate(fx.model, fx.base, fx.lagrangians)
    assert report.ok and special_ok(report)


def test_displaced_boundary_detected(cyl):
    positions = cyl.base.positions.copy()
    boundary_circle = np.nonzero(cyl.mesh.boundary_component_of_vertex() == 1)[0]
    positions[boundary_circle, 3] += 1e-3  # off the y2 = 0 subtorus
    moved = Immersion(cyl.mesh, positions)
    report = validate(cyl.model, moved, cyl.lagrangians)
    assert report.boundary_distance == pytest.approx(1e-3, rel=1e-6)
    assert not report.ok


def test_tangent_boundary_lagrangian_kills_transversality(cyl):
    # a boundary condition whose plane contains the surface tangent plane
    tangent_lam = BoundaryLagrangian(
        1, np.zeros(4), np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=float)
    )
    lams = [tangent_lam, cyl.lagrangians[1]]
    report = validate(cyl.model, cyl.base, lams)
    assert report.transversality_margin < 1e-12
    assert not report.ok


def test_pullback_metric_scaling():
    # euclidean target: no wrap-around, so dilation acts linearly on every edge
    fx = interval_c1(1)
    model = make_model(1)
    base = Immersion(fx.mesh, fx.base.positions)
    metric = pullback_metric(model, base)
    dilated = Immersion(fx.mesh, 0.5 * fx.base.positions)
    metric2 = pullback_metric(model, dilated)
    assert np.allclose(metric2.gram, 0.25 * metric.gram)


def test_pullback_metric_conformal_mode():
    # rho = 2 leaves the metric g, so the pullback matches the rho = 1 fixture exactly
    plain, almost = interval_c1(1), interval_c1(1, almost_cy=True)
    assert almost.model.rho == 2.0
    assert np.array_equal(pullback_metric(almost.model, almost.base).gram,
                          pullback_metric(plain.model, plain.base).gram)


def test_pullback_forms_vanish_on_fixture(cyl):
    omega = pullback_form(cyl.model, cyl.base, cyl.model.omega, 2)
    im = pullback_form(cyl.model, cyl.base, cyl.model.im_omega_hat, cyl.model.n)
    assert np.abs(omega.values).max() <= 1e-14
    assert np.abs(im.values).max() <= 1e-14


def test_shear_has_nonzero_symplectic_pullback(cyl):
    # tilt the surface in y1 proportionally to the circumference coordinate
    positions = cyl.base.positions.copy()
    kappa = 0.1
    positions[:, 1] += kappa * positions[:, 2]
    sheared = Immersion(cyl.mesh, positions)
    omega = pullback_form(cyl.model, sheared, cyl.model.omega, 2)
    vals = np.abs(omega.values)
    assert vals.max() > 0
    # away from the wrap seam the 2x2 determinant formula gives kappa times
    # half the coordinate cell area
    interior = vals[vals < vals.max() / 2]
    assert interior.min() == pytest.approx(kappa * (0.5 / 8) * (1 / 16) / 2, rel=1e-10)


def test_two_form_rejected_on_curves():
    fx = interval_c1(1)
    with pytest.raises(DegreeMismatchError):
        pullback_form(fx.model, fx.base, fx.model.omega, 2)


def test_identity_reparametrization(cyl):
    psi = np.arange(cyl.mesh.n_vertices)
    same = reparametrize(cyl.base, psi)
    assert np.array_equal(same.positions, cyl.base.positions)


def test_rotation_preserves_validation_exactly(cyl):
    psi = cylinder_rotation(cyl, steps=3)
    rotated = reparametrize(cyl.base, psi)
    r1 = validate(cyl.model, cyl.base, cyl.lagrangians)
    r2 = validate(cyl.model, rotated, cyl.lagrangians)
    assert r1.lagrangian_residual == r2.lagrangian_residual
    assert r1.special_residual == r2.special_residual
    assert r1.boundary_distance == r2.boundary_distance
    assert r1.transversality_margin == pytest.approx(r2.transversality_margin, abs=1e-14)


def test_rotation_permutes_pullback_metric(cyl):
    psi = cylinder_rotation(cyl, steps=5)
    rotated = reparametrize(cyl.base, psi)
    g1 = pullback_metric(cyl.model, cyl.base)
    g2 = pullback_metric(cyl.model, rotated)
    # the flat fixture metric is triangle-wise congruent, so equality is exact
    assert np.allclose(np.sort(g1.gram.ravel()), np.sort(g2.gram.ravel()))


def test_boundary_swap_is_label_violation(cyl):
    psi = cylinder_axial_flip(cyl)
    with pytest.raises(LabelViolationError):
        reparametrize(cyl.base, psi)


def test_non_simplicial_map_rejected(cyl):
    psi = np.arange(cyl.mesh.n_vertices)
    psi[0], psi[40] = psi[40], psi[0]  # swap two far-apart vertices
    with pytest.raises(NotAutomorphismError):
        reparametrize(cyl.base, psi)
    with pytest.raises(NotAutomorphismError):
        reparametrize(cyl.base, np.zeros(cyl.mesh.n_vertices, dtype=int))


def test_permutation_on_cochains_is_signed_bijection(cyl):
    psi = cylinder_rotation(cyl, steps=1)
    idx, sgn = permutation_on_cochains(cyl.mesh, psi, 1)
    assert sorted(idx.tolist()) == list(range(cyl.mesh.n_simplices(1)))
    assert set(np.abs(sgn)) == {1.0}


def test_family_expressions_match_translation(cyl):
    family = ImmersionFamily.from_expressions(
        cyl.base, 2, {"y1": "y1 + a*u1"}, ["u1"], constants={"a": 1.0}
    )
    u = [0.37]
    expected = cyl.base.positions.copy()
    expected[:, 1] += 0.37
    assert np.allclose(family.positions(u), expected)
    vel = family.velocity(u, [1.0])
    assert np.allclose(vel[:, 1], 1.0)
    assert np.abs(vel[:, [0, 2, 3]]).max() == 0.0


def _rigid_random_family():
    """The family of a seeded random oracle path: translation plus slides."""
    path = _random_rigid_path(SimpleNamespace(fixture=cylinder_translation(1)),
                              np.random.default_rng(3), 9)
    return path.family, path.u, path.du


def _array_case(build, family_of, m):
    def case():
        rng = np.random.default_rng(7)
        w = rng.uniform(-1.0, 1.0, size=(9, m))
        w[::3, 0] = 0.0  # the expression map skips a parameter only where no point moves it
        return family_of(build(1)), rng.uniform(-0.3, 0.3, size=(9, m)), w
    return case


_ARRAY_FAMILIES = {
    "cylinder_translation": _array_case(cylinder_translation, lambda fx: fx.family, 1),
    "two_handle": _array_case(two_handle, lambda fx: fx.family, 2),
    "expressions": _array_case(cylinder_translation, lambda fx: ImmersionFamily.from_expressions(
        fx.base, 2, {"y1": "y1 + sin(u1) * x1 + u2", "x2": "x2 + exp(u1 * u2) / 3"},
        ["u1", "u2"]), 2),
    "random_rigid_path": _rigid_random_family,
    "field_translation": _array_case(cylinder_translation, lambda fx: ImmersionFamily.translation(
        fx.base, [np.sin(3.0 * fx.base.positions), np.array([0.0, 1.0, 0.0, 0.0])]), 2),
    "expressions_of_coordinates": _array_case(
        cylinder_translation, lambda fx: ImmersionFamily.from_expressions(
            fx.base, 2, {"x1": "x1*(w0 + eps*sin(2*pi*u1))/w0", "y1": "y1 + u1*cos(2*pi*x2)"},
            ["u1"], constants={"w0": 0.5, "eps": 0.1}), 1),
}


@pytest.mark.parametrize("key", sorted(_ARRAY_FAMILIES))
def test_family_on_a_parameter_array_equals_per_point_calls(key):
    family, u, w = _ARRAY_FAMILIES[key]()
    assert np.array_equal(family.positions(u), np.stack([family.positions(p) for p in u]))
    assert np.array_equal(family.velocity(u, w),
                          np.stack([family.velocity(p, d) for p, d in zip(u, w)]))


@pytest.mark.parametrize("key", sorted(_ARRAY_FAMILIES))
def test_family_positions_of_some_vertices_are_those_of_all(key):
    """positions(u, vertices) evaluates those vertices only, with the bits of all of them."""
    family, u, _ = _ARRAY_FAMILIES[key]()
    n_vertices = family.mesh.n_vertices
    rng = np.random.default_rng(13)
    subsets = [np.unique(rng.integers(0, n_vertices, size=n)) for n in (1, 9, 40)]
    subsets += [np.arange(n_vertices), rng.permutation(n_vertices)[:7], np.array([5, 5, 2])]
    everything = family.positions(u)
    for vertices in subsets:
        for points in (u, u[0], u[None, :3]):
            got = family.positions(points, vertices)
            assert got.shape == np.shape(points)[:-1] + (len(vertices), everything.shape[-1])
            assert np.array_equal(got, family.positions(points)[..., vertices, :])
    assert np.array_equal(family.positions(u, np.arange(n_vertices)), everything)


def test_expression_velocity_chain_rule(cyl):
    family = ImmersionFamily.from_expressions(
        cyl.base, 2, {"y1": "y1 + sin(u1)"}, ["u1"]
    )
    vel = family.velocity([0.2], [1.0])
    assert np.allclose(vel[:, 1], np.cos(0.2))


def test_expression_rejects_unknown_symbols():
    with pytest.raises(ConfigError):
        parse_expression("y1 + q*t", ["y1", "t"])


def test_coordinate_map_defaults_keep_coordinates():
    cmap = CoordinateMap({"y1": "y1 + u1"}, 2, ["u1"])
    base = np.random.default_rng(0).normal(size=(5, 4))
    out = cmap.positions(base, [0.0])
    assert np.allclose(out, base)


# -- frame and volume kernels ------------------------------------------------------------


def _per_degree_frames(model, mesh, positions, k):
    """Frames and too-large mask of degree k from its own subtraction and wrap."""
    simp = mesh.simplices[k]
    disp = positions[..., simp[:, 1:], :] - positions[..., simp[:, :1], :]
    if model.lattice is None:
        return disp, np.zeros(disp.shape[:-3], dtype=bool)
    wrapped = model.wrap_displacement(disp)
    limit = 0.5 * np.linalg.norm(model.lattice, axis=1).min()
    return wrapped, (np.linalg.norm(wrapped, axis=-1) > limit).any(axis=(-2, -1))


def _dim3_torus():
    """The boundary of the 4-simplex, small and jittered in the flat 6-torus."""
    mesh = build_mesh(5, [tuple(v for v in range(5) if v != i) for i in range(5)], {})
    base = np.random.default_rng(5).normal(scale=0.1, size=(5, 6))
    return SimpleNamespace(mesh=mesh, model=make_model(3, topology="torus"),
                           base=Immersion(mesh, base))


def _edge_samples(fx):
    """(4, V, 2n) samples: the base; the base jittered and shifted by whole lattice vectors
    per vertex; and all vertices but vertex 0 moved to one point whose offset (0.3, 0.4 +- 1e-9)
    from vertex 0 is just over, then just under, half a lattice vector."""
    base, rng = fx.base.positions, np.random.default_rng(11)
    samples = np.repeat(base[None], 4, axis=0)
    samples[1] += rng.normal(scale=1e-3, size=base.shape) + rng.integers(-1, 2, size=base.shape)
    for sample, step in zip(samples[2:], (0.4 + 1e-9, 0.4 - 1e-9)):
        sample[1:] = sample[0]
        sample[1:, :2] += [0.3, step]
    return samples


@pytest.mark.parametrize("build", [interval_c1, cylinder_translation, two_handle,
                                   lambda level: _dim3_torus()],
                         ids=["interval_c1", "cylinder_translation", "two_handle", "dim3"])
def test_edge_gathered_frames_equal_per_degree_frames(build):
    fx = build(1)
    samples = _edge_samples(fx)
    degrees = range(fx.mesh.dim + 1)
    lifted = wrapped_frames(fx.model, fx.mesh, samples, degrees)
    assert sorted(lifted) == list(degrees)
    for k in degrees:
        frames, too_large = lifted[k]
        ref_frames, ref_too_large = _per_degree_frames(fx.model, fx.mesh, samples, k)
        assert frames.shape == (4, fx.mesh.n_simplices(k), k, 2 * fx.model.n)
        assert np.array_equal(frames, ref_frames), k
        assert np.array_equal(too_large, ref_too_large), k
        # a degree-0 frame is empty; every other degree has frame edges from vertex 0
        assert too_large.tolist() == [False, False, k > 0, False], k
        one = Immersion(fx.mesh, samples[1]).simplex_frames(fx.model, k)
        assert np.array_equal(one, ref_frames[1])


def _gram_frames(k, rng):
    """(3, 4, k, 4) frames: generic ones, slivers whose last edge is the first within 0.1,
    needles with one edge 1e-6 long, and tiny ones 1e-8 across."""
    frames = rng.normal(size=(3, 4, k, 4))
    frames[1, :, -1] = frames[1, :, 0] + 0.1 * rng.normal(size=(4, 4))
    frames[2, :, -1] *= 1e-6
    frames[2, :2] *= 1e-8
    return frames


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_volumes_match_the_gram_determinant(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(4, 4))
    g = a @ a.T + 4.0 * np.eye(4)
    frames = _gram_frames(k, rng)
    expected = np.sqrt(np.abs(np.linalg.det(frames @ g @ np.swapaxes(frames, -1, -2))))
    got = _gram_volumes(frames, g)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
