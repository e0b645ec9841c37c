import math
import tracemalloc

import numpy as np
import pytest

from slaglab import flux
from slaglab.ambient import AmbientModel, make_model
from slaglab.dec import Cochain, HodgeStructure, hodge_star, period_matrix
from slaglab.errors import (
    DegenerateSimplexError,
    EndpointMismatchError,
    NonLagrangianSampleError,
    NonSpecialSampleError,
    SlagError,
    VelocityUnavailableError,
)
from slaglab.fixtures import cylinder_translation, interval_c1, two_handle
from slaglab.flux import (
    ImmersionPath,
    dual_form,
    homotopy_invariance_harness,
    path_fluxes,
    relative_flux,
    special_flux,
    swept_rf_oracle,
    swept_sf_oracle,
    tangent_one_form,
)
from slaglab.immersion import (
    ImmersionFamily,
    permutation_on_cochains,
    pullback_metric,
    reparametrize,
)
from slaglab.meshes import CycleBasis, absolute_cycle_basis, build_mesh, relative_cycle_basis


def _basis(degree, chains):
    """A cycle basis of ad-hoc integer chains, whose duals no oracle or pass reads."""
    return CycleBasis(degree, chains, np.zeros_like(chains))


@pytest.fixture(scope="module")
def cyl():
    fx = cylinder_translation(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    return fx, rel, ab


def test_static_path_has_zero_fluxes(cyl):
    fx, rel, ab = cyl
    path = ImmersionPath.straight(fx.family, [0.0], n_samples=9)
    assert np.abs(relative_flux(fx.model, path, rel).period_vector).max() == 0.0
    assert np.abs(special_flux(fx.model, path, ab).period_vector).max() == 0.0
    assert swept_rf_oracle(fx.model, path, rel).tolist() == [0.0]
    assert swept_sf_oracle(fx.model, path, ab).tolist() == [0.0]


def test_tangent_form_on_fixture_edges(cyl):
    """Vertical unit motion: theta = -(axial edge extent), zero circumferentially."""
    fx, rel, ab = cyl
    path = ImmersionPath.straight(fx.family, [1.0], n_samples=3)
    theta = tangent_one_form(fx.model, path, 0)
    frames = fx.base.simplex_frames(fx.model, 1)
    assert np.allclose(theta.values, -frames[:, 0, 0], atol=1e-15)
    phi = dual_form(fx.model, path, 0)
    assert np.allclose(phi.values, frames[:, 0, 2], atol=1e-15)


def test_fixture_periods_closed_form(cyl):
    fx, rel, ab = cyl
    a = 0.3
    path = ImmersionPath.straight(fx.family, [a], n_samples=33)
    rf = relative_flux(fx.model, path, rel)
    sf = special_flux(fx.model, path, ab)
    assert rf.period_vector[0] == pytest.approx(-a * 0.5, abs=1e-14)
    assert abs(sf.period_vector[0]) == pytest.approx(a, abs=1e-14)
    assert rf.diagnostics["max_sample_closedness"] == 0.0
    assert rf.diagnostics["max_sample_boundary_value"] == 0.0
    assert sf.diagnostics["max_sample_closedness"] == 0.0
    assert rf.diagnostics["rule"] == "simpson"
    assert rf.diagnostics["richardson_error"] <= 1e-15


def test_even_sample_count_falls_back_to_trapezoid(cyl):
    fx, rel, _ = cyl
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=10)
    rf = relative_flux(fx.model, path, rel)
    assert rf.diagnostics["rule"] == "trapezoid"
    assert rf.period_vector[0] == pytest.approx(-0.15, abs=1e-14)


def test_oracle_matches_periods_on_fixture(cyl):
    fx, rel, ab = cyl
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=33)
    rf = relative_flux(fx.model, path, rel)
    sf = special_flux(fx.model, path, ab)
    assert swept_rf_oracle(fx.model, path, rel)[0] == pytest.approx(
        rf.period_vector[0], abs=1e-12
    )
    assert swept_sf_oracle(fx.model, path, ab)[0] == pytest.approx(
        sf.period_vector[0], abs=1e-12
    )


@pytest.mark.parametrize("build", [two_handle, interval_c1])
def test_oracles_integrate_a_basis_from_one_trajectory(build, monkeypatch):
    fx = build(1)
    rel, ab = relative_cycle_basis(fx.mesh), absolute_cycle_basis(fx.mesh)
    amp = [0.3, -0.2][:fx.family.n_params]
    path = ImmersionPath.straight(fx.family, amp, n_samples=9)
    per_chain_rf = [swept_rf_oracle(fx.model, path, _basis(1, g[:, None]))[0]
                    for g in rel.chains.T]
    per_chain_sf = [swept_sf_oracle(fx.model, path, _basis(ab.degree, s[:, None]))[0]
                    for s in ab.chains.T]
    trajectories = []
    positions = fx.family.positions

    def spy(u, vertices=slice(None)):
        trajectories.append(positions(u, vertices))
        return trajectories[-1]

    monkeypatch.setattr(fx.family, "positions", spy)
    rf = swept_rf_oracle(fx.model, path, rel)
    sf = swept_sf_oracle(fx.model, path, ab)
    assert rf.tolist() == per_chain_rf and sf.tolist() == per_chain_sf
    # one trajectory per basis, of the chain vertices only
    for traj, basis in zip(trajectories, (rel, ab)):
        vertices = np.unique(fx.mesh.simplices[basis.degree][np.nonzero(basis.chains)[0]])
        assert traj.shape == (257, len(vertices), 2 * fx.model.n)
    assert len(trajectories) == 2


def test_oracles_reject_chains_of_another_degree(cyl):
    """A basis whose degree, or whose row count, is not the oracle's degree is refused."""
    fx, rel, ab = cyl
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=9)
    vertex_chain = np.zeros((fx.mesh.n_vertices, 1), dtype=np.int64)
    for oracle in (swept_rf_oracle, swept_sf_oracle):
        with pytest.raises(SlagError, match="1-chains"):
            oracle(fx.model, path, _basis(0, vertex_chain))
        with pytest.raises(SlagError, match="1-chains"):
            oracle(fx.model, path, _basis(1, vertex_chain))
        with pytest.raises(SlagError, match="1-chains"):
            oracle(fx.model, path, _basis(2, rel.chains))


def _loop_swept_integrals(model, path, chains, form, degree, n_steps=256):
    """The former `_swept_integrals`: every vertex's trajectory, then a loop over each
    chain column's simplices in ascending id."""

    def edge_integral(pa, pb):
        w = model.wrap_displacement(pb - pa)
        e_t = pa[1:] - pa[:-1]
        e_d = e_t + w[1:]
        e_s = w[:-1]
        tri1 = np.stack([e_t, e_d], axis=1)
        tri2 = np.stack([e_d, e_s], axis=1)
        return 0.5 * float(np.sum(form(tri1)) + np.sum(form(tri2)))

    def point_integral(p):
        steps = p[1:] - p[:-1]
        return float(form(steps[:, None, :]).sum())

    simplices = path.family.mesh.simplices[degree]
    integral = edge_integral if degree == 1 else point_integral
    items = [[(sid, c) for sid, c in enumerate(column) if c] for column in chains.T.tolist()]
    vertex_ids = sorted({int(v) for chain in items for sid, _ in chain for v in simplices[sid]})
    vpos = {v: i for i, v in enumerate(vertex_ids)}
    times = np.linspace(0.0, 1.0, n_steps + 1)
    traj = path.family.positions(path.curve(times))[:, np.asarray(vertex_ids, dtype=int)]
    totals = []
    for chain in items:
        total = 0.0
        for sid, coeff in chain:
            corners = [traj[:, vpos[int(v)]] for v in simplices[sid]]
            total += coeff * integral(*corners)
        totals.append(total)
    return np.array(totals)


def _euclidean_cylinder():
    """cylinder_translation's mesh and family in R^4: no lattice, so no wrap."""
    fx = cylinder_translation(1)
    fx.model = make_model(2)
    return fx


_ORACLE_CASES = {
    "two-handle": (lambda: two_handle(1), [0.3, -0.2]),
    "cylinder": (lambda: cylinder_translation(1), [0.3]),
    "cylinder-almost-cy": (lambda: cylinder_translation(1, almost_cy=True), [-0.25]),
    "interval": (lambda: interval_c1(1), [0.25]),
    "cylinder-r4": (_euclidean_cylinder, [0.3]),
}


@pytest.mark.parametrize("key", sorted(_ORACLE_CASES))
def test_oracles_match_the_per_edge_loop(key):
    """Swept integrals carry the bits of the former loop, on bases and on odd chains."""
    build, amp = _ORACLE_CASES[key]
    fx = build()
    rel, ab = relative_cycle_basis(fx.mesh), absolute_cycle_basis(fx.mesh)
    straight = ImmersionPath.straight(fx.family, amp, n_samples=9)
    s_curve = ImmersionPath.straight(fx.family, amp, n_samples=9, profile=_S_CURVE)
    dim = fx.mesh.dim
    # negative and repeated coefficients, and chains sharing simplices
    first, last, sigma = rel.chains[:, 0], rel.chains[:, -1], ab.chains[:, 0]
    support = np.flatnonzero(first)
    odd = np.zeros_like(first)
    odd[support] = np.where(np.arange(len(support)) % 2, -2, 3) * first[support]
    merged = np.where(first != 0, 2 * first, -last)
    cases = [(swept_rf_oracle, fx.model.omega, 1, chains)
             for chains in (rel.chains, first[:, None], odd[:, None],
                            np.stack([first, odd, merged, first], axis=1))]
    cases += [(swept_sf_oracle, fx.model.im_omega_hat, dim - 1, chains)
              for chains in (ab.chains, sigma[:, None],
                             np.stack([-3 * sigma, sigma, -3 * sigma], axis=1))]
    for path in (straight, s_curve):
        for oracle, form, degree, chains in cases:
            got = oracle(fx.model, path, _basis(degree, chains))
            ref = _loop_swept_integrals(fx.model, path, chains, form, degree)
            assert type(got) is type(ref)
            assert np.array_equal(got, ref), (key, oracle.__name__)


@pytest.mark.parametrize("block", [None, 3])
def test_path_makes_one_positions_call_and_one_velocity_call_per_block(cyl, block,
                                                                        monkeypatch):
    """Building a path evaluates nothing; a pass evaluates each block once, in order."""
    fx, rel, ab = cyl
    if block is not None:
        monkeypatch.setattr(flux, "_BLOCK_SIMPLEX_SAMPLES",
                            block * fx.mesh.n_simplices(fx.mesh.dim))
    calls = []
    positions, velocity = fx.family.positions, fx.family.velocity
    monkeypatch.setattr(fx.family, "positions",
                        lambda u: calls.append(("positions", u)) or positions(u))
    monkeypatch.setattr(fx.family, "velocity",
                        lambda u, w: calls.append(("velocity", u)) or velocity(u, w))
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=17)
    assert calls == []
    path_fluxes(fx.model, path, rel, ab)
    per_block = max(1, flux._BLOCK_SIMPLEX_SAMPLES // fx.mesh.n_simplices(fx.mesh.dim))
    blocks = [path.u[start:start + per_block] for start in range(0, 17, per_block)]
    assert len(calls) == 2 * len(blocks) == 2 * math.ceil(17 / per_block)
    assert [name for name, _ in calls] == ["positions", "velocity"] * len(blocks)
    assert all(np.array_equal(u, blocks[i // 2]) for i, (_, u) in enumerate(calls))


def _traced_peak(fn) -> float:
    """Peak bytes that tracemalloc sees allocated during fn(), after one warm-up call."""
    fn()  # builds the mesh's cached operators and tables outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pass_memory_does_not_grow_with_path_length(cyl):
    """A pass holds one block of samples: 8x the samples adds only their support values.

    A path that held its (T, V, 2n) positions, or a pass that stacked every
    sample's frames, would grow by megabytes (4.4 MB from 129 to 1,025 here).
    """
    fx, rel, ab = cyl
    peaks = [_traced_peak(lambda: path_fluxes(
        fx.model, ImmersionPath.straight(fx.family, [0.3], n_samples=count), rel, ab))
        for count in (129, 1025)]
    assert abs(peaks[1] - peaks[0]) < 0.5e6


def test_swept_oracle_evaluates_the_form_without_stacking_triangles():
    """The oracle's peak stays near its trajectory of the support vertices.

    On level-1 two_handle the trajectory of the dual cycles' ends is about
    0.5 MB; the peak is about 1.8 MB, where a stack of each slab's two
    triangles raised it to 3.7 MB.
    """
    fx = two_handle(1)
    ab = absolute_cycle_basis(fx.mesh)
    path = ImmersionPath.straight(fx.family, [0.3, -0.2], n_samples=129)
    assert _traced_peak(lambda: swept_sf_oracle(fx.model, path, ab)) < 2.5e6


@pytest.mark.parametrize("build, amplitudes, stacks", [
    (cylinder_translation, [0.3], 1),  # both integrands have degree 1
    (two_handle, [0.3, -0.2], 1),
    (interval_c1, [0.25], 2),          # degrees 1 and 0
])
def test_each_block_wraps_once_and_builds_one_stack_per_degree(build, amplitudes, stacks,
                                                                monkeypatch):
    fx = build(1)
    rel, ab = relative_cycle_basis(fx.mesh), absolute_cycle_basis(fx.mesh)
    path = ImmersionPath.straight(fx.family, amplitudes, n_samples=17)
    monkeypatch.setattr(flux, "_BLOCK_SIMPLEX_SAMPLES", 3 * fx.mesh.n_simplices(fx.mesh.dim))
    calls = []
    stack, wrap = flux._centroid_stack, AmbientModel.wrap_displacement
    monkeypatch.setattr(flux, "_centroid_stack",
                        lambda *args: calls.append("stack") or stack(*args))
    monkeypatch.setattr(AmbientModel, "wrap_displacement",
                        lambda self, disp: calls.append("wrap") or wrap(self, disp))

    def refuse(*args):
        raise AssertionError("determinant of a Gram matrix of degree <= 2")

    monkeypatch.setattr(np.linalg, "det", refuse)
    path_fluxes(fx.model, path, rel, ab)
    assert calls == (["wrap"] + ["stack"] * stacks) * math.ceil(17 / 3)


def test_concatenation_additivity_and_reversal(cyl):
    fx, rel, _ = cyl
    a = 0.3

    def segment(u0, u1, n=17):
        return ImmersionPath(
            fx.family,
            lambda t: u0 + t[:, None] * (u1 - u0),
            lambda t: np.full((len(t), 1), u1 - u0),
            n_samples=n,
        )

    whole = relative_flux(fx.model, segment(0.0, a), rel).period_vector
    first = relative_flux(fx.model, segment(0.0, 0.4 * a), rel).period_vector
    second = relative_flux(fx.model, segment(0.4 * a, a), rel).period_vector
    assert np.allclose(first + second, whole, atol=1e-14)
    back = relative_flux(fx.model, segment(a, 0.0), rel).period_vector
    assert np.allclose(whole + back, 0.0, atol=1e-14)


def test_reparametrized_path_pulls_back_tangent_form(cyl):
    """Covariance: the rotated lift produces exactly the permuted cochain."""
    fx, rel, ab = cyl
    n_circ = 16
    psi = np.array([
        (v // n_circ) * n_circ + ((v % n_circ) + 1) % n_circ
        for v in range(fx.mesh.n_vertices)
    ])
    base2 = reparametrize(fx.base, psi)
    family2 = ImmersionFamily.translation(base2, [np.array([0, 1, 0, 0.0])])
    path1 = ImmersionPath.straight(fx.family, [0.3], n_samples=5)
    path2 = ImmersionPath.straight(family2, [0.3], n_samples=5)
    theta1 = tangent_one_form(fx.model, path1, 2)
    theta2 = tangent_one_form(fx.model, path2, 2)
    idx, sgn = permutation_on_cochains(fx.mesh, psi, 1)
    assert np.array_equal(theta2.values, sgn * theta1.values[idx])
    # periods over the cycle basis agree: the rotation acts trivially on classes
    rf1 = relative_flux(fx.model, path1, rel).period_vector
    rf2 = relative_flux(fx.model, path2, rel).period_vector
    assert np.allclose(rf1, rf2, atol=1e-14)


def test_l2_pairing_invariant_under_reparametrization(cyl):
    fx, rel, ab = cyl
    n_circ = 16
    psi = np.array([
        (v // n_circ) * n_circ + ((v % n_circ) + 7) % n_circ
        for v in range(fx.mesh.n_vertices)
    ])
    base2 = reparametrize(fx.base, psi)
    family2 = ImmersionFamily.translation(base2, [np.array([0, 1, 0, 0.0])])
    path1 = ImmersionPath.straight(fx.family, [1.0], n_samples=3)
    path2 = ImmersionPath.straight(family2, [1.0], n_samples=3)
    theta1 = tangent_one_form(fx.model, path1, 0)
    theta2 = tangent_one_form(fx.model, path2, 0)
    hs1 = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    hs2 = HodgeStructure(fx.mesh, pullback_metric(fx.model, base2))
    assert hs1.inner(theta1, theta1) == pytest.approx(hs2.inner(theta2, theta2), abs=1e-15)


def test_non_lagrangian_sample_rejected(cyl):
    fx, rel, _ = cyl

    tilted = np.zeros_like(fx.base.positions)
    tilted[:, 1] = 1.0 + 0.5 * fx.base.positions[:, 2]  # shear grows along x2
    family = ImmersionFamily.translation(fx.base, [tilted])
    path = ImmersionPath.straight(family, [0.01], n_samples=5)
    with pytest.raises(NonLagrangianSampleError):
        relative_flux(fx.model, path, rel)


def test_non_special_sample_rejected(cyl):
    fx, _, ab = cyl

    # piecewise-linear graph y1 = s * x1 stays Lagrangian but not calibrated
    bent = np.zeros_like(fx.base.positions)
    bent[:, 1] = fx.base.positions[:, 0]
    family = ImmersionFamily.translation(fx.base, [bent])
    path = ImmersionPath.straight(family, [1e-2], n_samples=5)
    with pytest.raises(NonSpecialSampleError):
        special_flux(fx.model, path, ab)
    # ... while the relative flux is still legitimate on the same path
    rel = relative_cycle_basis(fx.mesh)
    rf = relative_flux(fx.model, path, rel)
    assert rf.diagnostics["max_lagrangian_residual"] <= 1e-12


def test_velocity_unavailable():
    fx = cylinder_translation(1)
    with pytest.raises(VelocityUnavailableError):
        ImmersionPath.straight(fx.family, [1.0], n_samples=1)


def test_homotopy_invariance_and_endpoint_check(cyl):
    fx, rel, ab = cyl
    straight = ImmersionPath.straight(fx.family, [0.3], n_samples=65)
    quad_profile = (lambda t: t * t * (3 - 2 * t), lambda t: 6 * t * (1 - t))
    curved = ImmersionPath.straight(fx.family, [0.3], n_samples=65,
                                    profile=quad_profile)

    def homotopy(u):  # the straight profile at u = 0, the curved one at u = 1
        return lambda t: ((1 - u) * t + u * quad_profile[0](t))[:, None] * 0.3

    report = homotopy_invariance_harness(fx.model, straight, curved, rel, ab, homotopy)
    assert report.rf_discrepancy <= 1e-12
    assert report.sf_discrepancy <= 1e-12
    assert report.sweep_deviation <= 1e-12
    other_end = ImmersionPath.straight(fx.family, [0.2], n_samples=17)
    with pytest.raises(EndpointMismatchError):
        homotopy_invariance_harness(fx.model, straight, other_end, rel, ab, homotopy)


def test_time_reparametrized_path_same_flux(cyl):
    fx, rel, ab = cyl
    straight = ImmersionPath.straight(fx.family, [0.3], n_samples=33)
    squared = ImmersionPath.straight(
        fx.family, [0.3], n_samples=33, profile=(lambda t: t * t, lambda t: 2 * t)
    )
    rf1 = relative_flux(fx.model, straight, rel).period_vector
    rf2 = relative_flux(fx.model, squared, rel).period_vector
    assert np.allclose(rf1, rf2, atol=1e-14)


def test_duality_along_path_is_exact(cyl):
    """Discrete star of the tangent form equals the dual form on flat fixtures."""
    fx, rel, ab = cyl
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=9)
    for j in (0, 4, 8):
        theta = tangent_one_form(fx.model, path, j)
        phi = dual_form(fx.model, path, j)
        st = hodge_star(hs, theta)
        assert np.abs(st.values - phi.values).max() < 1e-13


def test_two_handle_fluxes_are_componentwise():
    fx = two_handle(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    path = ImmersionPath.straight(fx.family, [0.4, 0.0], n_samples=17)
    rf = relative_flux(fx.model, path, rel).period_vector
    sf = special_flux(fx.model, path, ab).period_vector
    # only the first handle moves
    assert np.count_nonzero(np.abs(rf) > 1e-14) == 1
    assert np.count_nonzero(np.abs(sf) > 1e-14) == 1


def test_interval_flux_and_oracles():
    fx = interval_c1(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    path = ImmersionPath.straight(fx.family, [0.25], n_samples=33)
    rf = relative_flux(fx.model, path, rel)
    sf = special_flux(fx.model, path, ab)
    assert rf.period_vector[0] == pytest.approx(-0.25 * 0.5, abs=1e-14)
    assert sf.period_vector[0] == pytest.approx(0.25, abs=1e-14)
    assert swept_rf_oracle(fx.model, path, rel)[0] == pytest.approx(
        rf.period_vector[0], abs=1e-14
    )
    assert swept_sf_oracle(fx.model, path, ab)[0] == pytest.approx(
        sf.period_vector[0], abs=1e-14
    )


# -- batched pass against a per-sample reference ------------------------------------


def _reference_residuals(model, immersion):
    """Lagrangian and special residuals of one immersion, one Gram determinant per simplex."""
    n = immersion.mesh.dim
    g = model.metric_matrix()

    def volumes(frames):
        gram = np.einsum("tia,ab,tjb->tij", frames, g, frames)
        vols = np.sqrt(np.abs(np.linalg.det(gram))) / math.factorial(frames.shape[1])
        return np.maximum(vols, 1e-300)

    top = immersion.simplex_frames(model, n)
    special = np.max(np.abs(model.im_omega_hat(top)) / math.factorial(n) / volumes(top))
    if n < 2:
        return 0.0, special
    two = immersion.simplex_frames(model, 2)
    return np.max(np.abs(model.omega(two)) / 2.0 / volumes(two)), special


def _rule(count):
    h = 1.0 / (count - 1)
    if count % 2:
        w = np.full(count, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * h / 3.0, "simpson"
    w = np.ones(count)
    w[0] = w[-1] = 0.5
    return w * h, "trapezoid"


def _reference_flux(model, path, cycles, integrand, degree):
    """Periods and diagnostics from a loop over the per-sample integrand."""
    mesh = path.family.mesh
    samples = range(path.n_samples)
    values = [integrand(model, path, j).values for j in samples]
    residuals = np.array([_reference_residuals(model, path.immersion_at(j)) for j in samples])
    weights, rule = _rule(path.n_samples)
    raw = sum(w * v for w, v in zip(weights, values))
    periods = period_matrix([Cochain(mesh, degree, raw)], cycles)[:, 0]
    d_op = mesh.coboundary_operator(degree) if degree < mesh.dim else None
    boundary = mesh.in_boundary(degree)
    diag = {
        "rule": rule,
        "max_lagrangian_residual": residuals[:, 0].max(),
        "max_special_residual": residuals[:, 1].max(),
        "max_sample_closedness": (
            max(np.abs(d_op @ v).max() for v in values) if d_op is not None else 0.0
        ),
        "max_sample_boundary_value": (
            max(np.abs(v[boundary]).max() for v in values) if boundary.any() else 0.0
        ),
    }
    if path.n_samples % 4 == 1:
        halves, _ = _rule((path.n_samples + 1) // 2)
        coarse = sum(w * v for w, v in zip(halves, values[::2]))
        coarse_periods = period_matrix([Cochain(mesh, degree, coarse)], cycles)[:, 0]
        diag["richardson_error"] = np.abs(periods - coarse_periods).max() / 15.0
    return periods, diag


_S_CURVE = (lambda t: t - 0.4 * np.sin(2 * np.pi * t) / (2 * np.pi),
            lambda t: 1 - 0.4 * np.cos(2 * np.pi * t))

def _straight(make_fixture, target, count, **kwargs):
    fx = make_fixture(1, **kwargs)
    return fx, ImmersionPath.straight(fx.family, target, n_samples=count, profile=_S_CURVE)


def _sheared(count):
    """A shear growing along x2: neither Lagrangian nor closed, and different at every sample."""
    fx = cylinder_translation(1)
    base, e_y1 = fx.base.positions, np.array([0.0, 1.0, 0.0, 0.0])
    x1, shear = base[:, :1], 1.0 + 0.5 * base[:, 2:3]

    def positions(u, vertices):
        s = u[..., :1, None]
        return (base + (s * shear + s ** 2 * x1) * e_y1)[..., vertices, :]

    def velocity(u, w):
        return w[..., :1, None] * (shear + 2 * u[..., :1, None] * x1) * e_y1

    family = ImmersionFamily(fx.mesh, 1, positions, velocity)
    return fx, ImmersionPath(family, lambda t: 0.2 * np.sin(np.pi * t)[:, None],
                             lambda t: 0.2 * np.pi * np.cos(np.pi * t)[:, None], count)


_PATHS = {
    "cylinder-17": lambda: _straight(cylinder_translation, [0.3], 17),
    "cylinder-almost-cy-13": lambda: _straight(cylinder_translation, [0.3], 13, almost_cy=True),
    "cylinder-sheared-10": lambda: _sheared(10),
    "cylinder-sheared-17": lambda: _sheared(17),
    "two-handle-13": lambda: _straight(two_handle, [0.3, -0.2], 13),
    "two-handle-129": lambda: _straight(two_handle, [0.3, -0.2], 129),  # several default blocks
    "interval-17": lambda: _straight(interval_c1, [0.25], 17),
}


@pytest.mark.parametrize("block", [None, 3, 1])
@pytest.mark.parametrize("key", sorted(_PATHS))
def test_path_fluxes_match_per_sample_reference(key, block, monkeypatch):
    fx, path = _PATHS[key]()
    if block is not None:  # blocks of `block` samples; 17, 13 and 10 are not multiples of 3
        monkeypatch.setattr(flux, "_BLOCK_SIMPLEX_SAMPLES",
                            block * fx.mesh.n_simplices(fx.mesh.dim))
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    # no residual gate, so the sheared paths reach the diagnostics
    monkeypatch.setattr(flux, "_SAMPLE_FAILURES",
                        tuple((np.inf,) + gate[1:] for gate in flux._SAMPLE_FAILURES))
    rf, sf = path_fluxes(fx.model, path, rel, ab)
    checks = [
        (rf, _reference_flux(fx.model, path, rel, tangent_one_form, 1)),
        (sf, _reference_flux(fx.model, path, ab, dual_form, fx.mesh.dim - 1)),
    ]
    for got, (periods, diag) in checks:
        np.testing.assert_allclose(got.period_vector, periods, rtol=1e-12, atol=0)
        assert got.diagnostics.keys() == diag.keys()
        assert got.diagnostics["rule"] == diag.pop("rule")
        for name, value in diag.items():
            np.testing.assert_allclose(got.diagnostics[name], value, rtol=1e-12, atol=0,
                                       err_msg=name)
    # the single-space wrappers run the same pass
    rf_only = relative_flux(fx.model, path, rel)
    sf_only = special_flux(fx.model, path, ab)
    np.testing.assert_array_equal(rf_only.period_vector, rf.period_vector)
    np.testing.assert_array_equal(sf_only.period_vector, sf.period_vector)


def _bend(p):  # the graph y1 = 0.1 x1 stays Lagrangian but is not calibrated
    p[:, 1] += 0.1 * p[:, 0]


def _tilt(p):  # a shear growing along x2 breaks the Lagrangian condition
    p[:, 1] += 0.01 * (1.0 + 0.5 * p[:, 2])


def _tear(p):  # one vertex moved too far for the minimal-image lift
    p[0] += [0.4, 0.0, 0.4, 0.0]


def _faulty_path(fx, faults, n_samples=9):
    """Translation-free path that applies faults[j] to the base positions at sample j."""

    def positions(u, vertices):
        out = np.repeat(fx.base.positions[None], len(u), axis=0)
        for sample, s in zip(out, u[:, 0]):
            fault = faults.get(int(round(s * (n_samples - 1))))
            if fault is not None:
                fault(sample)
        return out[:, vertices]

    family = ImmersionFamily(fx.mesh, 1, positions,
                             lambda u, w: np.zeros(u.shape[:-1] + fx.base.positions.shape))
    return ImmersionPath(family, lambda t: t[:, None], lambda t: np.ones((len(t), 1)), n_samples)


# (faults by sample, relative-pass failure, dual-pass failure), as two separate
# per-sample passes raise them: within a sample a simplex too large to lift
# comes before the residual, and a sample comes before every later one.
_FAULT_CASES = [
    ({2: _bend, 6: _tilt}, (NonLagrangianSampleError, "sample 6 "),
     (NonSpecialSampleError, "sample 2 ")),
    ({1: _tilt, 3: _tear}, (NonLagrangianSampleError, "sample 1 "),
     (DegenerateSimplexError, "too large")),
    ({1: _tear, 3: _tilt}, (DegenerateSimplexError, "too large"),
     (DegenerateSimplexError, "too large")),
    ({1: _bend, 5: _tear}, (DegenerateSimplexError, "too large"),
     (NonSpecialSampleError, "sample 1 ")),
    ({4: _bend}, None, (NonSpecialSampleError, "sample 4 ")),
    ({2: lambda p: (_tilt(p), _bend(p), _tear(p))}, (DegenerateSimplexError, "too large"),
     (DegenerateSimplexError, "too large")),
]


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("faults, rel_failure, abs_failure", _FAULT_CASES)
def test_failures_keep_the_order_of_separate_passes(cyl, faults, rel_failure, abs_failure,
                                                   block, monkeypatch):
    fx, rel, ab = cyl
    if block is not None:
        monkeypatch.setattr(flux, "_BLOCK_SIMPLEX_SAMPLES",
                            block * fx.mesh.n_simplices(fx.mesh.dim))
    path = _faulty_path(fx, faults)
    calls = [
        (lambda: relative_flux(fx.model, path, rel), rel_failure),
        (lambda: special_flux(fx.model, path, ab), abs_failure),
        (lambda: path_fluxes(fx.model, path, rel, ab), rel_failure or abs_failure),
    ]
    for call, failure in calls:
        if failure is None:
            call()
            continue
        error, message = failure
        with pytest.raises(error, match=message):
            call()


def test_homotopy_harness_reports_relative_failures_first(cyl):
    """Path a fails only the dual check, path b the relative one: b's comes first."""
    fx, rel, ab = cyl
    path_a = _faulty_path(fx, {2: _bend})
    path_b = _faulty_path(fx, {6: _tilt})
    still = lambda u: path_a.curve  # never read: both calls fail first
    with pytest.raises(NonLagrangianSampleError, match="sample 6 "):
        homotopy_invariance_harness(fx.model, path_a, path_b, rel, ab, still)
    with pytest.raises(NonSpecialSampleError, match="sample 2 "):
        homotopy_invariance_harness(fx.model, path_a, path_a, rel, ab, still)


@pytest.mark.parametrize("block", [1, 3, 4, 9, 17, 33])
def test_block_fold_adds_in_sample_order(cyl, block):
    """The periods of a blocked pass carry the bits of a per-sample loop.

    Each edge is its own cycle, so the period vector is the quadrature sum.
    Blocks of more than 8 samples, and a one-segment mesh whose 1-cochains
    have one column, are where a pairwise sum would part from the loop.
    """
    fx = cyl[0]
    count = 33  # Simpson with a Richardson estimate over the 17 even samples
    for mesh in (fx.mesh, build_mesh(2, [(1, 0)], {(0,): 1, (1,): 2})):
        vals = np.random.default_rng(5).normal(size=(count, mesh.n_simplices(1)))
        edges = _basis(1, np.eye(mesh.n_simplices(1), dtype=np.int64))
        fold = flux._FluxPass(mesh, count, 1, None, edges, 0)
        for start in range(0, count, block):
            fold.add(vals[start:start + block])
        got = fold.result(0.0, 0.0)
        raw, coarse = np.zeros((2, vals.shape[1]))
        for j, row in enumerate(vals):
            raw += fold.weights[j] * row
            if j % 2 == 0:
                coarse += fold.halves[j // 2] * row
        assert got.period_vector.tobytes() == raw.tobytes()
        assert got.diagnostics["richardson_error"] == float(np.abs(raw - coarse).max() / 15.0)


@pytest.mark.parametrize("n_samples, panels", [(33, 16), (18, 17)])
def test_panel_periods_run_to_the_period_vector(cyl, n_samples, panels):
    """One row per Simpson panel (or trapezoid interval); the last is the periods, bit for bit.

    Both sample counts span two blocks of a pass on the level-1 cylinder.  A rigid
    translation at constant speed adds the same flux on every panel.
    """
    fx, rel, ab = cyl
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=n_samples)
    assert path.n_samples > flux._BLOCK_SIMPLEX_SAMPLES // fx.mesh.n_simplices(2)
    for f in path_fluxes(fx.model, path, rel, ab):
        running = f.panel_periods
        assert running.shape == (panels, 1)
        np.testing.assert_array_equal(running[-1], f.period_vector)
        share = np.arange(1, panels + 1)[:, None] / panels
        np.testing.assert_allclose(running, share * f.period_vector, rtol=0, atol=1e-15)


def test_each_basis_finds_its_nonzeros_once(monkeypatch):
    """Period matrices, flux passes and oracles all read one set of terms."""
    fx = two_handle(1)
    rel, ab = relative_cycle_basis(fx.mesh), absolute_cycle_basis(fx.mesh)
    scanned = []
    nonzero = np.nonzero

    def spy(a):
        scanned.append(a)
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", spy)
    path = ImmersionPath.straight(fx.family, [0.3, -0.2], n_samples=9)
    ones = Cochain(fx.mesh, 1, np.ones(fx.mesh.n_simplices(1)))
    for _ in range(2):
        path_fluxes(fx.model, path, rel, ab)
        period_matrix([ones, ones], rel)
        period_matrix([ones, ones], ab)
        swept_rf_oracle(fx.model, path, rel)
        swept_sf_oracle(fx.model, path, ab)
    assert [sum(a is basis.chains for a in scanned) for basis in (rel, ab)] == [1, 1]
