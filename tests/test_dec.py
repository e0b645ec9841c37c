import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from slaglab import dec, runner
from slaglab.dec import (
    Cochain,
    HodgeStructure,
    MetricField,
    exterior_derivative,
    harmonic_fields,
    hodge_star,
    period_matrix,
)
from slaglab.errors import (
    DegenerateMetricError,
    DegreeMismatchError,
    DegreeOutOfRangeError,
)
from slaglab.fixtures import cylinder_translation, interval_c1, two_handle
from slaglab.immersion import pullback_metric
from slaglab.meshes import (
    BettiProfile,
    CycleBasis,
    SimplicialMesh,
    absolute_cycle_basis,
    build_mesh,
    relative_cycle_basis,
)


def apply_d(cochain):
    """The coboundary of a cochain, as a cochain one degree up."""
    op = exterior_derivative(cochain.mesh, cochain.degree)
    return Cochain(cochain.mesh, cochain.degree + 1, op @ cochain.values)


def metric_from_positions(mesh, positions):
    """Euclidean pullback metric of the straight simplices at the given vertex positions."""
    tops = mesh.simplices[mesh.dim]
    edges = positions[tops[:, 1:]] - positions[tops[:, :1]]
    return MetricField(mesh, np.einsum("tia,tja->tij", edges, edges))


@pytest.fixture(scope="module")
def interval():
    fx = interval_c1(1)
    metric = pullback_metric(fx.model, fx.base)
    return fx, HodgeStructure(fx.mesh, metric)


@pytest.fixture(scope="module")
def cylinder():
    fx = cylinder_translation(1)
    metric = pullback_metric(fx.model, fx.base)
    return fx, HodgeStructure(fx.mesh, metric)


def test_d_of_constant_vanishes(interval):
    fx, _ = interval
    const = Cochain(fx.mesh, 0, np.ones(fx.mesh.n_vertices))
    assert np.abs(apply_d(const).values).max() == 0.0


def test_d_of_coordinate_gives_edge_lengths(interval):
    fx, _ = interval
    coords = Cochain(fx.mesh, 0, fx.base.positions[:, 0])
    d = apply_d(coords)
    assert np.allclose(d.values, 0.5 / 8)


def test_dd_is_zero_exactly(cylinder):
    fx, _ = cylinder
    composed = exterior_derivative(fx.mesh, 1) @ exterior_derivative(fx.mesh, 0)
    assert composed.nnz == 0 or abs(composed).max() == 0.0
    # sequential application of the float operators only carries reassociation noise
    rng = np.random.default_rng(0)
    alpha = Cochain(fx.mesh, 0, rng.normal(size=fx.mesh.n_vertices))
    assert np.abs(apply_d(apply_d(alpha)).values).max() < 1e-13


def test_degree_out_of_range(interval):
    fx, _ = interval
    with pytest.raises(DegreeOutOfRangeError):
        exterior_derivative(fx.mesh, 1)


def test_interval_mass_matrix_closed_form(interval):
    fx, hs = interval
    h = 0.5 / 8
    M0 = hs.mass_matrix(0).toarray()
    # piecewise-linear hat functions on segments of length h
    assert M0[1, 1] == pytest.approx(2 * h / 3)
    assert M0[1, 2] == pytest.approx(h / 6)
    assert M0[0, 0] == pytest.approx(h / 3)
    # row sums equal the dual vertex lengths
    sums = M0.sum(axis=1)
    assert sums[0] == pytest.approx(h / 2)
    assert sums[3] == pytest.approx(h)
    M1 = hs.mass_matrix(1).toarray()
    assert np.allclose(np.diag(M1), 1 / h)


def test_mass_matrix_conformal_invariance_in_middle_degree(cylinder):
    """Scaling a 2d metric by c^2 leaves the 1-form mass matrix unchanged."""
    fx, hs = cylinder
    scaled = MetricField(fx.mesh, 4.0 * hs.metric.gram)
    hs2 = HodgeStructure(fx.mesh, scaled)
    delta = (hs.mass_matrix(1) - hs2.mass_matrix(1)).toarray()
    assert np.abs(delta).max() < 1e-12
    # degree 0 scales by c^2, degree 2 by c^-2
    assert np.abs((4 * hs.mass_matrix(0) - hs2.mass_matrix(0)).toarray()).max() < 1e-12
    assert np.abs((hs.mass_matrix(2) / 4 - hs2.mass_matrix(2)).toarray()).max() < 1e-12


def test_mass_matrix_one_triangle_closed_form():
    """Direct integration oracle on a unit right triangle."""
    mesh = build_mesh(3, [(0, 1, 2)], {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    hs = HodgeStructure(mesh, metric_from_positions(mesh, pos))
    M0 = hs.mass_matrix(0).toarray()
    # int lam_i lam_j over the triangle: area/6 diagonal, area/12 off
    assert np.allclose(np.diag(M0), 0.5 / 6)
    assert M0[0, 1] == pytest.approx(0.5 / 12)
    M2 = hs.mass_matrix(2).toarray()
    assert M2[0, 0] == pytest.approx(1 / 0.5)  # 1 / area
    # Whitney edge form norms: for edges (0,1),(0,2): |W|^2 integrates to 1/3;
    # hypotenuse (1,2) has |W|^2 = 1/2 + ... ; cross-check against quadrature
    M1 = hs.mass_matrix(1).toarray()
    quad = _whitney_edge_mass_quadrature()
    assert np.allclose(M1, quad, atol=1e-3)


def _whitney_edge_mass_quadrature(ns: int = 300):
    """Brute-force Whitney 1-form mass on the unit right triangle."""
    grads = {0: np.array([-1.0, -1.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}
    edges = [(0, 1), (0, 2), (1, 2)]

    def lam(i, x, y):
        return [1 - x - y, x, y][i]

    def whitney(e, x, y):
        i, j = e
        return lam(i, x, y) * grads[j] - lam(j, x, y) * grads[i]

    out = np.zeros((3, 3))
    count = 0
    for i in range(ns):
        for j in range(ns):
            x, y = (i + 1 / 3) / ns, (j + 1 / 3) / ns
            if x + y >= 1:
                continue
            count += 1
            ws = [whitney(e, x, y) for e in edges]
            for a in range(3):
                for b in range(3):
                    out[a, b] += ws[a] @ ws[b]
    return out * 0.5 / count


def test_degenerate_metric_rejected():
    mesh = build_mesh(3, [(0, 1, 2)], {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    with pytest.raises(DegenerateMetricError):
        MetricField(mesh, np.zeros((1, 2, 2)))


def test_star_maps_axial_to_circumferential(cylinder):
    """The star of the constant axial form is the circumferential form."""
    fx, hs = cylinder
    frames = fx.base.simplex_frames(fx.model, 1)
    ds = Cochain(fx.mesh, 1, frames[:, 0, 0])   # integrals of dx1 over edges
    dtheta = Cochain(fx.mesh, 1, frames[:, 0, 2])  # integrals of dx2
    starred = hodge_star(hs, ds)
    assert np.abs(starred.values + dtheta.values).max() < 1e-12  # orientation O1
    assert np.abs(hodge_star(hs, dtheta).values - ds.values).max() < 1e-12


def test_star_of_zero_is_zero(cylinder):
    fx, hs = cylinder
    zero = Cochain(fx.mesh, 1, np.zeros(fx.mesh.n_simplices(1)))
    assert np.abs(hodge_star(hs, zero).values).max() == 0.0


def test_star_involution_converges():
    """star(star(a)) = -a for 1-forms in 2d, with O(h) error on curved data."""
    errors = []
    for level in (1, 2):
        fx = cylinder_translation(level)
        hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
        edges = fx.mesh.simplices[1]
        pos = fx.base.positions
        a = pos[edges[:, 0]]
        w = fx.model.wrap_displacement(pos[edges[:, 1]] - pos[edges[:, 0]])
        mid_x2 = a[:, 2] + 0.5 * w[:, 2]
        alpha = Cochain(fx.mesh, 1, np.sin(2 * np.pi * mid_x2) * w[:, 0])
        stst = hodge_star(hs, hodge_star(hs, alpha))
        diff = Cochain(fx.mesh, 1, stst.values + alpha.values)
        errors.append(hs.norm(diff) / hs.norm(alpha))
    assert errors[1] < errors[0] / 1.7


def test_mass_quadratic_form_converges_to_analytic_norm():
    """Under refinement the discrete L2 norm approaches the analytic integral.

    Test form sin(2 pi x2) dx1 on the flat cylinder of width 1/2:
    the analytic squared norm is w * 1/2 = 1/4.
    """
    errors = []
    for level in (1, 2):
        fx = cylinder_translation(level)
        hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
        edges = fx.mesh.simplices[1]
        pos = fx.base.positions
        start = pos[edges[:, 0]]
        w = fx.model.wrap_displacement(pos[edges[:, 1]] - pos[edges[:, 0]])
        nodes, weights = np.polynomial.legendre.leggauss(4)
        vals = np.zeros(len(edges))
        for nd, wt in zip(nodes, weights):
            s = 0.5 * (nd + 1.0)
            vals += 0.5 * wt * np.sin(2 * np.pi * (start[:, 2] + s * w[:, 2])) * w[:, 0]
        alpha = Cochain(fx.mesh, 1, vals)
        errors.append(abs(hs.inner(alpha, alpha) - 0.25))
    assert errors[1] < errors[0] / 2
    assert errors[1] < 2e-2


def test_harmonic_dimensions(interval, cylinder):
    fxi, hsi = interval
    assert len(harmonic_fields(hsi, "dirichlet")) == 1
    assert len(harmonic_fields(hsi, "neumann")) == 1
    fxc, hsc = cylinder
    assert len(harmonic_fields(hsc, "dirichlet")) == 1
    assert len(harmonic_fields(hsc, "neumann")) == 1


def test_harmonic_fields_separate_product_directions(cylinder):
    """Flat product metric: the constrained fields align with the two factors."""
    fx, hs = cylinder
    frames = fx.base.simplex_frames(fx.model, 1)
    dirichlet = harmonic_fields(hs, "dirichlet")[0]
    neumann = harmonic_fields(hs, "neumann")[0]
    ds = frames[:, 0, 0]
    dtheta = frames[:, 0, 2]
    for field_vals, pattern in ((dirichlet.values, ds), (neumann.values, dtheta)):
        coeffs = np.linalg.lstsq(pattern[:, None], field_vals, rcond=None)[0]
        assert np.abs(field_vals - coeffs[0] * pattern).max() < 1e-10


def test_closed_surface_has_no_neumann_fields_in_trivial_degree():
    """Octahedron sphere: no boundary and first Betti number zero."""
    tops = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    mesh = build_mesh(6, tops, {})
    pos = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]
    ], dtype=float)
    hs = HodgeStructure(mesh, metric_from_positions(mesh, pos))
    assert harmonic_fields(hs, "neumann") == []


@pytest.fixture(scope="module", params=[
    (cylinder_translation, 1), (cylinder_translation, 2), (two_handle, 1), (two_handle, 2),
], ids=lambda p: f"{p[0].__name__}-l{p[1]}")
def fixture_structure(request):
    """A fixture and the Hodge structure of its base immersion."""
    make, level = request.param
    fx = make(level)
    return fx, HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))


@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
def test_kernel_count_does_not_read_the_expected_dimension(fixture_structure, flavor, offset,
                                                           monkeypatch):
    """A Betti number one off only resizes the projected block: the count stays m, and
    the topology check that compares the two fails."""
    fx, hs = fixture_structure
    m = fx.mesh.betti_profile().b_rel_1

    def one_off(mesh):
        true = SimplicialMesh.betti_profile(mesh)
        if flavor == "dirichlet":
            return BettiProfile(true.betti, true.b_rel_1 + offset)
        betti = list(true.betti)
        betti[-2] += offset
        return BettiProfile(tuple(betti), true.b_rel_1)

    monkeypatch.setattr(fx.mesh, "betti_profile", lambda: one_off(fx.mesh))
    assert len(harmonic_fields(hs, flavor)) == m
    monkeypatch.setattr(runner, "betti_profile", one_off)
    scenario = runner.scenario_from_dict({
        "fixture": {"name": fx.name, "level": fx.level}, "suites": ["topology"]})
    checks = {c.name: c for c in runner.run(scenario).checks}
    assert "topology/error" not in checks
    assert not checks["topology/harmonic_counts"].passed
    assert checks["topology/harmonic_counts"].detail == f"dirichlet={m}, neumann={m}"


SPD_RECIPE = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "relax": 1,
              "panel_size": 1, "options": {"SymmetricMode": True}}


def spy_splu(monkeypatch):
    """Record the keyword arguments of every sparse LU factorization."""
    calls = []
    factor = spla.splu

    def spy(matrix, **kwargs):
        calls.append(kwargs)
        return factor(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return calls


def constraint_blocks(hs, flavor):
    """(free edge ids, closedness block C, weak block E^T M) of a surface's harmonic space.

    A field h on the free edges is harmonic when C h = 0 and E^T M h = 0, E the
    differentials of interior-vertex functions (dirichlet) or of all functions.
    """
    mesh = hs.mesh
    if flavor == "dirichlet":
        cols, rows = mesh.interior_simplex_ids(1), mesh.interior_simplex_ids(0)
    else:
        cols, rows = np.arange(mesh.n_simplices(1)), np.arange(mesh.n_vertices)
    closed = exterior_derivative(mesh, 1)[:, cols]
    weak = (exterior_derivative(mesh, 0)[:, rows].T @ hs.mass_matrix(1))[:, cols]
    return cols, closed, weak


def plant_harmonic_fields(monkeypatch, k):
    """Zero k face rows of d_1 and k interior-vertex columns of d_0 in dec (surfaces only).

    On a connected orientable surface with boundary, the rows of d_1 on all edges are
    independent, and on interior edges their one relation has every face in it; the
    columns of d_0 on all vertices have one relation, constants, and on interior edges
    the interior-vertex columns are independent.  So each harmonic space gains
    k + (k - 1) = 2k - 1 dimensions.
    """
    derivative = dec.exterior_derivative

    def planted(mesh, degree):
        op = derivative(mesh, degree).tolil()
        if degree == 1:
            op[:k] = 0.0
        else:
            op[:, mesh.interior_simplex_ids(0)[:k]] = 0.0
        return op.tocsr()

    monkeypatch.setattr(dec, "exterior_derivative", planted)


def test_mass_factor_and_kernel_count_share_one_spd_recipe(cylinder, monkeypatch):
    """Every SuperLU call site factors an SPD matrix, so all take the same options."""
    fx, _ = cylinder
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    factors = spy_splu(monkeypatch)
    lu = hs.factorized_mass(1)
    harmonic_fields(hs, "dirichlet")
    assert factors == [SPD_RECIPE] * 3  # M_1, then C C^T and E^T M E of the projector
    rhs = np.random.default_rng(0).normal(size=fx.mesh.n_simplices(1))
    np.testing.assert_allclose(hs.mass_matrix(1) @ lu.solve(rhs), rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
def test_projector_holds_one_factor_at_a_time(flavor, monkeypatch):
    """Each projection step releases its factor before the next step factors: on
    level-1 two_handle, which has two steps per space, no earlier factor of the call
    is alive when a new one is made."""
    fx = two_handle(1)
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    factor = dec._spd_factor
    made, alive_before = [], []

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs)

    def spy(matrix):
        alive_before.append(sum(ref() is not None for ref in made))
        wrapped = Factor(factor(matrix))
        made.append(weakref.ref(wrapped))
        return wrapped

    monkeypatch.setattr(dec, "_spd_factor", spy)
    assert len(harmonic_fields(hs, flavor)) == fx.mesh.betti_profile().b_rel_1
    assert alive_before == [0, 0]


@pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
def test_sparse_eigensolve_matches_dense(fixture_structure, flavor, monkeypatch):
    """The projected basis spans the kernel that a dense eigensolve of the constraint
    normal matrix N = C^T C + (E^T M)^T E^T M finds, each block scaled to unit entries."""
    fx, hs = fixture_structure
    factors = spy_splu(monkeypatch)
    fields = harmonic_fields(hs, flavor)
    m = len(fields)
    assert m == fx.mesh.betti_profile().b_rel_1
    assert factors == [SPD_RECIPE] * 2
    cols, closed, weak = constraint_blocks(hs, flavor)
    normal = sum((block.T @ block) / abs(block).max() ** 2 for block in (closed, weak))
    lam, vecs = np.linalg.eigh(normal.toarray())
    assert np.sum(lam < dec._KERNEL_GAP * lam[-1]) == m
    basis = np.array([field.values for field in fields]).T
    assert np.all(np.delete(basis, cols, axis=0) == 0.0)
    basis = basis[cols]
    np.testing.assert_allclose(basis.T @ basis, np.eye(m), rtol=0, atol=1e-12)
    # sines of the principal angles between the basis and the dense kernel
    kernel = vecs[:, :m]
    outside = basis - kernel @ (kernel.T @ basis)
    assert np.linalg.svd(outside, compute_uv=False).max() <= 1e-8


@pytest.mark.parametrize("segments", [1, 4])
def test_short_intervals_count_one_field_each(segments, monkeypatch):
    """Intervals of 1 and 4 segments have one Dirichlet and one Neumann field each.

    One segment has no interior vertex, so its Dirichlet space is its one edge,
    with nothing to factor.
    """
    mesh = build_mesh(segments + 1, [(i + 1, i) for i in range(segments)],
                      {(0,): 1, (segments,): 2})
    pos = np.linspace(0.0, 1.0, segments + 1)[:, None]
    hs = HodgeStructure(mesh, metric_from_positions(mesh, pos))
    factors = spy_splu(monkeypatch)
    assert len(harmonic_fields(hs, "dirichlet")) == len(harmonic_fields(hs, "neumann")) == 1
    assert factors == [SPD_RECIPE] * (1 if segments == 1 else 2)


@pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
def test_planted_harmonic_dimension_is_counted(cylinder, flavor, monkeypatch):
    """One zeroed face row and one zeroed interior-vertex column add one field to each
    space, and the count finds it."""
    fx, hs = cylinder
    m = fx.mesh.betti_profile().b_rel_1
    assert len(harmonic_fields(hs, flavor)) == m
    plant_harmonic_fields(monkeypatch, 1)
    assert len(harmonic_fields(hs, flavor)) == m + 1


@pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
def test_kernel_wider_than_the_window_is_refused(cylinder, flavor, monkeypatch):
    """A harmonic space wider than the block of max(m + 4, 6) columns counts the whole
    block, which the topology check refuses as not m."""
    fx, hs = cylinder
    m = fx.mesh.betti_profile().b_rel_1
    want = max(m + 4, 6)
    plant_harmonic_fields(monkeypatch, 4)  # m + 7 fields in each space
    assert len(harmonic_fields(hs, flavor)) == want != m
    scenario = runner.scenario_from_dict({
        "fixture": {"name": fx.name, "level": fx.level}, "suites": ["topology"]})
    checks = {c.name: c for c in runner.run(scenario).checks}
    assert "topology/error" not in checks
    assert not checks["topology/harmonic_counts"].passed
    assert checks["topology/harmonic_counts"].detail == f"dirichlet={want}, neumann={want}"


def test_kernel_count_repeats_bit_for_bit(cylinder):
    fx, hs = cylinder
    first = [c.values for c in harmonic_fields(hs, "dirichlet")]
    spectrum = hs.diagnostics["dirichlet_spectrum"]
    second = [c.values for c in harmonic_fields(hs, "dirichlet")]
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(spectrum, hs.diagnostics["dirichlet_spectrum"])


@pytest.mark.parametrize("make", [cylinder_translation, two_handle], ids=lambda f: f.__name__)
@pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
def test_count_ignores_the_metric_but_the_basis_follows_it(make, flavor):
    """Under a random SPD change of the Gram field the count stays b, each field is
    closed and M-orthogonal to the exact forms of its own metric, and the span moves."""
    fx = make(1)
    base = pullback_metric(fx.model, fx.base)
    rng = np.random.default_rng(11)
    root = rng.normal(size=base.gram.shape)
    gram = base.gram + 0.5 * np.abs(base.gram).max() * root @ root.transpose(0, 2, 1)
    hs = HodgeStructure(fx.mesh, MetricField(fx.mesh, gram))
    m = fx.mesh.betti_profile().b_rel_1
    fields = harmonic_fields(hs, flavor)
    assert len(fields) == m
    cols, closed, weak = constraint_blocks(hs, flavor)
    basis = np.array([field.values for field in fields]).T[cols]
    assert np.abs(closed @ basis).max() <= 1e-10
    assert np.abs(weak @ basis).max() <= 1e-10 * abs(hs.mass_matrix(1)).max()
    reference = np.array([field.values for field in
                          harmonic_fields(HodgeStructure(fx.mesh, base), flavor)]).T[cols]
    outside = basis - reference @ (reference.T @ basis)
    assert np.linalg.svd(outside, compute_uv=False).max() > 1e-2


def test_dirichlet_fields_vanish_on_boundary_edges(cylinder):
    fx, hs = cylinder
    theta = harmonic_fields(hs, "dirichlet")[0]
    assert np.abs(theta.values[fx.mesh.in_boundary(1)]).max() == 0.0
    d1 = fx.mesh.coboundary_operator(1)
    assert np.abs(d1 @ theta.values).max() < 1e-10


def test_period_matrix_stokes(cylinder):
    fx, hs = cylinder
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    rng = np.random.default_rng(2)
    # d of an interior-vertex function has zero relative periods
    f = np.zeros(fx.mesh.n_vertices)
    interior = fx.mesh.interior_simplex_ids(0)
    f[interior] = rng.normal(size=len(interior))
    exact = apply_d(Cochain(fx.mesh, 0, f))
    assert np.abs(period_matrix([exact], rel)).max() < 1e-12
    # absolute periods of a closed form are unchanged by adding any d(beta)
    frames = fx.base.simplex_frames(fx.model, 1)
    closed = Cochain(fx.mesh, 1, frames[:, 0, 2])
    any_beta = apply_d(Cochain(fx.mesh, 0, rng.normal(size=fx.mesh.n_vertices)))
    shifted = Cochain(fx.mesh, 1, closed.values + any_beta.values)
    assert period_matrix([closed], ab) == pytest.approx(period_matrix([shifted], ab))


def test_period_degree_mismatch(cylinder):
    fx, hs = cylinder
    rel = relative_cycle_basis(fx.mesh)
    wrong = Cochain(fx.mesh, 0, np.zeros(fx.mesh.n_vertices))
    with pytest.raises(DegreeMismatchError):
        period_matrix([wrong], rel)


def test_period_pairing_invertible_with_condition(cylinder):
    fx, hs = cylinder
    rel = relative_cycle_basis(fx.mesh)
    basis = harmonic_fields(hs, "dirichlet")
    pm = period_matrix(basis, rel)
    assert abs(np.linalg.det(pm)) > 1e-12


def test_period_matrix_is_an_ascending_id_loop_bit_for_bit():
    """Each column adds coefficient * value over its nonzeros in ascending id, from zero,
    and so does each row of a batch of values on the support."""
    fx = two_handle(1)
    rel = relative_cycle_basis(fx.mesh)
    rng = np.random.default_rng(7)
    n = fx.mesh.n_simplices(1)
    mixed = rng.integers(-3, 4, size=(n, 3)) * (rng.random((n, 3)) < 0.2)
    # magnitudes from 1e-16 to 1e16, so that any other order of the sum moves bits
    cochains = [Cochain(fx.mesh, 1, rng.normal(size=n) * 10.0 ** rng.integers(-16, 17, size=n))
                for _ in range(4)]
    for chains in (rel.chains, mixed, np.c_[rel.chains, -2 * rel.chains[:, :1]]):
        expected = np.zeros((chains.shape[1], len(cochains)))
        for k, coch in enumerate(cochains):
            values = coch.values.tolist()
            for j, column in enumerate(chains.T.tolist()):
                total = 0.0
                for sid, c in enumerate(column):
                    if c:
                        total += c * values[sid]
                expected[j, k] = total
        basis = CycleBasis(1, chains, np.zeros_like(chains))
        assert period_matrix(cochains, basis).tobytes() == expected.tobytes()
        batch = np.stack([coch.values[basis.support] for coch in cochains]).reshape(2, 2, -1)
        assert basis.periods(batch).tobytes() == expected.T.reshape(2, 2, -1).tobytes()
