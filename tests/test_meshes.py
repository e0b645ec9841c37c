import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from scipy.sparse.csgraph import breadth_first_order, connected_components
from sympy.matrices.normalforms import smith_normal_form

from slaglab import fixtures, meshes
from slaglab.dec import Cochain, period_matrix
from slaglab.errors import (
    NonManifoldError,
    NonOrientableError,
    RankDeficientError,
    SlagError,
    UnlabeledBoundaryError,
)
from slaglab.fixtures import FIXTURES, build_fixture, cylinder_translation, mobius, pair_of_pants
from slaglab.meshes import (
    absolute_cycle_basis,
    betti_profile,
    build_mesh,
    mesh_from_dict,
    relative_cycle_basis,
)


def _find(parent, a):
    """Root of a in a union-find parent map, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _unite(parent, ends: np.ndarray) -> list[bool]:
    """Union the two ends of each edge (row) in turn; True where it joined two classes."""
    joined = []
    for a, b in zip(*ends.T.tolist()):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
        joined.append(ra != rb)
    return joined


def mesh_to_dict(mesh) -> dict:
    """Inverse of `meshes.mesh_from_dict`: oriented top simplices and labelled boundary."""
    faces = mesh.simplices[mesh.dim - 1] if mesh.dim else np.empty((0, 0))
    labels = [
        [faces[i].tolist(), int(mesh.boundary_labels[i])]
        for i in mesh.boundary_face_ids()
    ]
    tops = []
    for row, flag in zip(mesh.simplices[mesh.dim], mesh.top_orientation):
        t = row.tolist()
        if flag < 0:
            t[0], t[1] = t[1], t[0]
        tops.append(t)
    return {
        "dim": mesh.dim,
        "vertices": mesh.n_vertices,
        "simplices": tops,
        "boundary_labels": labels,
    }


def chain_boundary(mesh, basis) -> np.ndarray:
    """(N_{k-1}, m) boundaries of a basis's chain columns; a 0-chain has none."""
    if basis.degree == 0:
        return np.zeros((0, basis.m), dtype=np.int64)
    return mesh.boundary_operator(basis.degree) @ basis.chains


def _chain_matrix(n_rows, chains) -> np.ndarray:
    """(n_rows, len(chains)) integer columns of chains given as (simplex id, coefficient) pairs."""
    out = np.zeros((n_rows, len(chains)), dtype=np.int64)
    for j, chain in enumerate(chains):
        for sid, c in chain:
            out[sid, j] = c
    return out


def _interval(n_seg=8):
    return n_seg + 1, [(i, i + 1) for i in range(n_seg)], {(0,): 1, (n_seg,): 2}


def interval_mesh(n_seg=8):
    return build_mesh(*_interval(n_seg))


def test_interval_build():
    mesh = interval_mesh()
    assert mesh.dim == 1
    assert mesh.n_components == 2
    assert mesh.n_simplices(1) == 8


def test_cylinder_build():
    mesh = cylinder_translation(1).mesh
    assert mesh.dim == 2
    assert mesh.n_components == 2
    # product triangulation of an 8 x 16 grid
    assert mesh.n_simplices(2) == 2 * 8 * 16


def test_mobius_is_rejected():
    with pytest.raises(NonOrientableError):
        build_mesh(5, mobius(), {})


def test_nonmanifold_rejected():
    # three triangles sharing one edge
    tops = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(NonManifoldError):
        build_mesh(5, tops, {})


def test_unlabeled_boundary_rejected():
    with pytest.raises(UnlabeledBoundaryError):
        build_mesh(9, [(i, i + 1) for i in range(8)], {(0,): 1})


def test_labels_must_cover_1_to_d():
    with pytest.raises(UnlabeledBoundaryError):
        build_mesh(9, [(i, i + 1) for i in range(8)], {(0,): 1, (8,): 3})


def test_one_component_one_label():
    # both endpoints of the interval labeled the same: 1 label for 2 components
    with pytest.raises(UnlabeledBoundaryError):
        build_mesh(9, [(i, i + 1) for i in range(8)], {(0,): 1, (8,): 1})


def test_boundary_squared_vanishes_exactly():
    for mesh in (interval_mesh(), cylinder_translation(1).mesh, pair_of_pants(1).mesh):
        for k in range(2, mesh.dim + 1):
            prod = mesh.boundary_operator(k - 1) @ mesh.boundary_operator(k)
            assert prod.nnz == 0 or abs(prod).max() == 0


def test_betti_interval():
    profile = betti_profile(interval_mesh())
    assert profile.betti == (1, 0)
    assert profile.b_rel_1 == 1
    assert profile.duality_holds


def test_betti_cylinder():
    profile = betti_profile(cylinder_translation(1).mesh)
    assert profile.betti == (1, 1, 0)
    assert profile.b_rel_1 == 1
    assert profile.duality_holds


def _snf_rank(mat):
    """Independent exact rank oracle via Smith normal form over the integers."""
    dense = sympy.Matrix(mat.toarray().tolist())
    snf = smith_normal_form(dense)
    return sum(1 for i in range(min(snf.shape)) if snf[i, i] != 0)


def test_betti_pair_of_pants_vs_smith_oracle():
    fx = pair_of_pants(1)
    mesh = fx.mesh
    profile = betti_profile(mesh)
    assert profile.betti[1] == 2
    assert profile.b_rel_1 == 2
    assert profile.duality_holds
    euler = mesh.n_simplices(0) - mesh.n_simplices(1) + mesh.n_simplices(2)
    assert euler == -1
    r1 = _snf_rank(mesh.boundary_operator(1))
    r2 = _snf_rank(mesh.boundary_operator(2))
    b0 = mesh.n_simplices(0) - r1
    b1 = mesh.n_simplices(1) - r1 - r2
    b2 = mesh.n_simplices(2) - r2
    assert (b0, b1, b2) == profile.betti


def test_relative_basis_interval():
    mesh = interval_mesh()
    basis = relative_cycle_basis(mesh)
    assert basis.m == 1
    boundary = chain_boundary(mesh, basis)[:, 0]
    assert mesh.in_boundary(0)[boundary != 0].all()


def test_relative_basis_cylinder_boundary_to_boundary():
    mesh = cylinder_translation(1).mesh
    basis = relative_cycle_basis(mesh)
    assert basis.m == 1
    boundary = chain_boundary(mesh, basis)[:, 0]
    assert boundary.any(), "a relative generator joins the two boundary circles"
    assert mesh.in_boundary(0)[boundary != 0].all()


def test_absolute_basis_closed():
    for mesh in (interval_mesh(), cylinder_translation(1).mesh, pair_of_pants(1).mesh):
        basis = absolute_cycle_basis(mesh)
        assert basis.chains.shape == (mesh.n_simplices(basis.degree), basis.m)
        assert not chain_boundary(mesh, basis).any()


def test_absolute_basis_interval_is_interior_vertex():
    mesh = interval_mesh()
    basis = absolute_cycle_basis(mesh)
    assert basis.m == 1
    (vid,) = np.nonzero(basis.chains[:, 0])[0]
    assert basis.chains[vid, 0] == 1
    assert not mesh.in_boundary(0)[vid]


def test_pants_cycle_bases_independent_modulo_boundaries():
    """Cokernel oracle: the chosen cycles add rank beyond the 2-boundaries."""
    mesh = pair_of_pants(1).mesh
    rel = relative_cycle_basis(mesh)
    ab = absolute_cycle_basis(mesh)
    assert rel.m == 2 and ab.m == 2
    d2 = sympy.Matrix(mesh.boundary_operator(2).toarray().tolist())
    for basis in (rel, ab):
        aug = d2.row_join(sympy.Matrix(basis.chains.tolist()))
        assert aug.rank() == d2.rank() + basis.m


def test_mesh_roundtrip():
    mesh = cylinder_translation(1).mesh
    data = mesh_to_dict(mesh)
    again = mesh_from_dict(data)
    assert again.dim == mesh.dim
    assert again.n_simplices(2) == mesh.n_simplices(2)
    assert np.array_equal(again.top_orientation, mesh.top_orientation)
    assert np.array_equal(again.boundary_labels, mesh.boundary_labels)


def test_mesh_from_dict_missing_field():
    with pytest.raises(SlagError, match="simplices"):
        mesh_from_dict({"vertices": 3, "boundary_labels": []})


def test_vertices_must_be_referenced():
    with pytest.raises(SlagError):
        build_mesh(10, [(0, 1)], {(0,): 1, (1,): 2})


# -- union-find ranks and tree-cotree bases against the former GF(p) elimination --

_P = 2_147_483_647


def _gfp_reducer():
    """Incremental column reduction over GF(p) with lowest-row pivots."""
    pivots = {}

    def add(column):
        col = {r: v % _P for r, v in column.items() if v % _P}
        while col:
            r = min(col)
            if r not in pivots:
                inv = pow(col[r], _P - 2, _P)
                pivots[r] = {rr: vv * inv % _P for rr, vv in col.items()}
                return True
            c = col[r]
            for rr, vv in pivots[r].items():
                nv = (col.get(rr, 0) - c * vv) % _P
                if nv:
                    col[rr] = nv
                else:
                    col.pop(rr, None)
        return False

    return add, pivots


def _columns(mat, rows=None, cols=None):
    csc = sp.csc_matrix(mat)
    rows = np.ones(mat.shape[0], bool) if rows is None else rows
    cols = range(mat.shape[1]) if cols is None else np.nonzero(cols)[0]
    ends = zip(csc.indptr[cols], csc.indptr[np.asarray(cols) + 1])
    return [{int(i): int(v) for i, v in zip(csc.indices[lo:hi], csc.data[lo:hi]) if rows[i]}
            for lo, hi in ends]


def _gfp_rank(mat, rows=None, cols=None):
    add, pivots = _gfp_reducer()
    for col in _columns(mat, rows, cols):
        add(col)
    return len(pivots)


def _greedy_cycles(edge_list, roots, boundaries, m):
    """The former selection: fundamental cycles in ascending non-tree edge id,
    kept while independent modulo the 2-boundaries over GF(p)."""
    add, _ = _gfp_reducer()
    for col in boundaries:
        add(col)
    parent_edge = _loop_bfs_forest(edge_list, roots)
    tree = {pe[0] for pe in parent_edge.values() if pe is not None}
    chosen = []
    for eid, a, b in sorted(edge_list):
        if eid not in tree and len(chosen) < m:
            chain = _loop_fundamental_cycle(parent_edge, eid, a, b)
            if add(chain):
                chosen.append(list(chain.items()))
    return chosen


def _elimination_profile(mesh):
    n = mesh.dim
    ranks = [0] + [_gfp_rank(mesh.boundary_operator(k)) for k in range(1, n + 1)] + [0]
    betti = tuple(mesh.n_simplices(k) - ranks[k] - ranks[k + 1] for k in range(n + 1))
    inner = [~mesh.in_boundary(k) for k in range(n + 1)]
    rank1 = _gfp_rank(mesh.boundary_operator(1), inner[0], inner[1])
    rank2 = _gfp_rank(mesh.boundary_operator(2), inner[1], inner[2]) if n >= 2 else 0
    return betti, int(inner[1].sum()) - rank1 - rank2


@pytest.mark.parametrize("name", ["interval_c1", "cylinder_translation", "two_handle",
                                  "pair_of_pants"])
@pytest.mark.parametrize("level", [1, 2])
def test_tree_cotree_bases_equal_greedy_elimination(name, level):
    mesh = build_fixture(name, level).mesh
    profile = betti_profile(mesh)
    assert (profile.betti, profile.b_rel_1) == _elimination_profile(mesh)

    edges = mesh.simplices[1]
    node = np.where(mesh.in_boundary(0), mesh.n_vertices, np.arange(mesh.n_vertices))
    interior = mesh.interior_simplex_ids(1)
    rel_edges = [(int(e), int(node[edges[e][0]]), int(node[edges[e][1]])) for e in interior]
    rel_bd = (_columns(mesh.boundary_operator(2), ~mesh.in_boundary(1))
              if mesh.dim == 2 else [])
    rel = relative_cycle_basis(mesh)
    assert rel.chains.dtype == np.int64
    assert np.array_equal(rel.chains, _chain_matrix(mesh.n_simplices(1), _greedy_cycles(
        rel_edges, [mesh.n_vertices], rel_bd, profile.b_rel_1)))

    ab = absolute_cycle_basis(mesh)
    if mesh.dim == 2:
        abs_edges = [(i, int(a), int(b)) for i, (a, b) in enumerate(edges)]
        expected = _greedy_cycles(abs_edges, [], _columns(mesh.boundary_operator(2)),
                                  profile.betti[1])
        assert np.array_equal(ab.chains, _chain_matrix(mesh.n_simplices(1), expected))
    else:
        assert np.array_equal(ab.chains, _chain_matrix(mesh.n_vertices, [[(1, 1)]]))


@pytest.mark.parametrize("name", ["interval_c1", "cylinder_translation", "two_handle",
                                  "pair_of_pants"])
@pytest.mark.parametrize("level", [1, 2])
def test_cycle_duals_are_closed_integer_cocycles_with_unit_periods(name, level):
    mesh = build_fixture(name, level).mesh
    rel, ab = relative_cycle_basis(mesh), absolute_cycle_basis(mesh)
    for basis in (rel, ab):
        assert basis.dual.shape == (mesh.n_simplices(basis.degree), basis.m)
        assert np.issubdtype(basis.dual.dtype, np.integer)
        if basis.degree < mesh.dim:
            assert not (mesh.coboundary_operator(basis.degree) @ basis.dual).any()
        duals = [Cochain(mesh, basis.degree, col) for col in basis.dual.T]
        assert np.array_equal(period_matrix(duals, basis), np.eye(basis.m))
    assert not rel.dual[mesh.in_boundary(1)].any()


# -- the former loop tree-cotree: dict BFS forest, union-find Kruskal, closure --


def _loop_bfs_forest(edge_list, roots):
    """Parent edge (edge_id, parent node, sign) of every node of a BFS forest.

    edge_list: (edge_id, node_a, node_b); the chain convention is +1 for
    traversal a -> b of edge_id.  Forest roots are taken from `roots` first,
    then lowest remaining node id; neighbors are visited in ascending edge id.
    Roots map to None.
    """
    adjacency = {}
    for eid, a, b in edge_list:
        adjacency.setdefault(a, []).append((eid, b, +1))
        adjacency.setdefault(b, []).append((eid, a, -1))
    for lst in adjacency.values():
        lst.sort()

    parent_edge = {}
    order = list(roots) + sorted(set(adjacency) - set(roots))
    for root in order:
        if root in parent_edge or root not in adjacency:
            continue
        parent_edge[root] = None
        queue = [root]
        while queue:
            nxt = []
            for a in queue:
                for eid, b, sgn in adjacency[a]:
                    if b not in parent_edge:
                        parent_edge[b] = (eid, a, sgn)
                        nxt.append(b)
            queue = nxt
    return parent_edge


def _loop_fundamental_cycle(parent_edge, eid, a, b):
    """Non-tree edge a -> b closed by the forest paths b -> root -> a."""

    def path_to_root(v):
        out = {}
        while parent_edge.get(v) is not None:
            e, up, sgn = parent_edge[v]
            out[e] = out.get(e, 0) - sgn  # traverse v -> up = reverse of up -> v
            v = up
        return out

    chain = {eid: 1}
    for k, v in path_to_root(b).items():
        chain[k] = chain.get(k, 0) + v
    for k, v in path_to_root(a).items():
        chain[k] = chain.get(k, 0) - v
    return {k: v for k, v in chain.items() if v}


def _loop_close_over_cotree(mesh, dual, cotree):
    """Leaves first, each cotree triangle solves for the edge to its parent."""
    ground = mesh.n_simplices(2)
    ends = mesh._dual_edges()[cotree]
    graph = sp.coo_matrix((np.ones(len(cotree)), ends.T), shape=(ground + 1,) * 2)
    _, comp = connected_components(graph, directed=False)
    firsts = np.unique(comp, return_index=True)[1]
    roots = [ground, *firsts[comp[firsts] != comp[ground]].tolist()]
    order = np.concatenate([breadth_first_order(graph, root, directed=False,
                                                return_predecessors=False) for root in roots])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))  # a parent comes before its children
    child = np.where(rank[ends[:, 0]] > rank[ends[:, 1]], ends[:, 0], ends[:, 1])
    leaves_first = np.argsort(-rank[child])
    tri = mesh.face_table(1).tolist()  # edges ab, ac, bc; d = x_ab - x_ac + x_bc
    values = dual.tolist()
    for e, t in zip(np.asarray(cotree)[leaves_first].tolist(), child[leaves_first].tolist()):
        ab, ac, bc = tri[t]
        sign = -1 if e == ac else 1
        values[e] = [sign * (y - x - z) for x, y, z in zip(values[ab], values[ac], values[bc])]
    dual[:] = values
    if np.any(mesh.coboundary_operator(1) @ dual):
        raise RankDeficientError("cycle-dual cochains are not closed")


def _loop_cycle_generators(mesh, edge_list, roots, m):
    """The former `_cycle_generators` on (edge_id, node_a, node_b) tuples."""
    parent_edge = _loop_bfs_forest(edge_list, roots)
    tree_edges = {pe[0] for pe in parent_edge.values() if pe is not None}
    non_tree = sorted(e for e in edge_list if e[0] not in tree_edges)
    cotree = []
    if mesh.dim == 2:
        order = [eid for eid, _, _ in reversed(non_tree)]
        joined = _unite(list(range(mesh.n_simplices(2) + 1)), mesh._dual_edges()[order])
        cotree = [eid for eid, j in zip(order, joined) if j]
    in_cotree = set(cotree)
    generators = [e for e in non_tree if e[0] not in in_cotree][:m]
    dual = np.zeros((mesh.n_simplices(1), len(generators)), dtype=np.int64)
    dual[[e[0] for e in generators], range(len(generators))] = 1
    if cotree:
        _loop_close_over_cotree(mesh, dual, cotree)
    chains = [_loop_fundamental_cycle(parent_edge, *e).items() for e in generators]
    return _chain_matrix(mesh.n_simplices(1), chains), dual


def _thin_annulus():
    tops, labels, n_vertices = fixtures._cylinder_mesh(1, 4)
    return build_mesh(n_vertices, tops, labels)


def _grid_surface(n_a, n_b, offset=0):
    """Closed torus: an n_a x n_b grid of squares, both directions periodic."""
    vid = [[offset + (i % n_a) * n_b + j % n_b for j in range(n_b + 1)] for i in range(n_a + 1)]
    return [t for i in range(n_a) for j in range(n_b)
            for t in ((vid[i][j], vid[i + 1][j], vid[i + 1][j + 1]),
                      (vid[i][j], vid[i + 1][j + 1], vid[i][j + 1]))]


_SPHERE = (4, [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)], {})
_DISK = (5, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)],
         {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
_SPECIAL_MESHES = {
    # every vertex on the boundary: each interior edge is a self-loop at the merged node
    "thin-annulus": _thin_annulus,
    # closed: the merged node is a root with no edge, the cotree root a triangle
    "torus": lambda: build_mesh(12, _grid_surface(3, 4), {}),
    # two components in the forest and in the cotree, none reaching the ground
    "two-tori": lambda: build_mesh(24, _grid_surface(3, 4) + _grid_surface(3, 4, 12), {}),
    "sphere": lambda: build_mesh(*_SPHERE),  # m = 0, cotree rooted at a triangle
    "disk": lambda: build_mesh(*_DISK),  # m = 0, cotree rooted at the ground
    # random vertex ids, so that a vertex's neighbours mix lower and higher ids
    "two_handle-relabelled": lambda: _relabelled("two_handle"),
    "pair_of_pants-relabelled": lambda: _relabelled("pair_of_pants"),
    "interval": lambda: build_mesh(*_interval()),
    "curve": lambda: build_mesh(*_CURVE),  # several components and a self-loop, no cotree
}


def _relabelled(name, seed=0):
    n_vertices, tops, labels = _fixture_input(name, 1)
    perm = np.random.default_rng(seed).permutation(n_vertices).tolist()
    return build_mesh(n_vertices, [tuple(perm[v] for v in t) for t in tops],
                      {tuple(perm[v] for v in f): lab for f, lab in labels.items()})


def _generator_cases(mesh):
    """(eids, ends, roots, m) of the relative basis and, on surfaces, the absolute one."""
    ids = mesh.interior_simplex_ids(1)
    profile = betti_profile(mesh)
    cases = [(ids, mesh._merged_edges()[ids], [mesh.n_vertices], profile.b_rel_1)]
    if mesh.dim == 2:
        cases.append((np.arange(mesh.n_simplices(1)), mesh.simplices[1], [], profile.betti[1]))
    return cases


@pytest.mark.parametrize("build", [lambda name=name, level=level: build_fixture(name, level).mesh
                                   for name in sorted(FIXTURES) for level in (1, 2)]
                         + [lambda: build_fixture("two_handle", 4).mesh,
                            lambda: build_fixture("cylinder_translation", 4).mesh]
                         + list(_SPECIAL_MESHES.values()),
                         ids=[f"{name}-{level}" for name in sorted(FIXTURES) for level in (1, 2)]
                         + ["two_handle-4", "cylinder_translation-4"] + list(_SPECIAL_MESHES))
def test_array_cycle_generators_equal_loop_reference(build):
    mesh = build()
    for eids, ends, roots, m in _generator_cases(mesh):
        chains, dual = meshes._cycle_generators(mesh, eids, ends, roots)
        edge_list = list(zip(eids.tolist(), *ends.T.tolist()))
        ref_chains, ref_dual = _loop_cycle_generators(mesh, edge_list, roots, m)
        assert chains.dtype == ref_chains.dtype and np.array_equal(chains, ref_chains)
        assert dual.dtype == ref_dual.dtype and np.array_equal(dual, ref_dual)


def test_special_meshes_cover_the_edge_cases():
    """Each special mesh shows the case its comment names."""
    annulus = _SPECIAL_MESHES["thin-annulus"]()
    merged = annulus._merged_edges()[annulus.interior_simplex_ids(1)]
    assert (merged == annulus.n_vertices).all() and betti_profile(annulus).b_rel_1 == 1
    for name in ("torus", "two-tori", "sphere"):
        mesh = _SPECIAL_MESHES[name]()
        assert not mesh.boundary_face_ids().size
        assert (mesh._merged_edges() < mesh.n_vertices).all()
    assert betti_profile(_SPECIAL_MESHES["torus"]()).betti == (1, 2, 1)
    assert betti_profile(_SPECIAL_MESHES["two-tori"]()).betti == (2, 4, 2)
    for name in ("sphere", "disk"):
        profile = betti_profile(_SPECIAL_MESHES[name]())
        assert profile.betti[1] == profile.b_rel_1 == 0


# components {0,1,2} and {3,4}; the second has no interior vertex
_CURVE = (5, [(0, 1), (1, 2), (3, 4)], {(0,): 1, (2,): 2, (3,): 3, (4,): 4})
_S3 = (5, [tuple(v for v in range(5) if v != i) for i in range(5)], {})
_TETRAHEDRON = (4, [(0, 1, 2, 3)], {f: 1 for f in itertools.combinations(range(4), 3)})


def test_absolute_basis_of_curve_takes_lowest_interior_vertex_per_component():
    mesh = build_mesh(*_CURVE)
    basis = absolute_cycle_basis(mesh)
    assert np.array_equal(basis.chains, _chain_matrix(5, [[(1, 1)], [(3, 1)]]))


def _boundary_of_4_simplex():
    return build_mesh(*_S3)


def _labelled_tetrahedron():
    return build_mesh(*_TETRAHEDRON)


@pytest.mark.parametrize("build, betti", [
    (_boundary_of_4_simplex, (1, 0, 0, 1)),
    (_labelled_tetrahedron, (1, 0, 0, 0)),
])
def test_dim3_betti_vs_smith_oracle(build, betti):
    mesh = build()
    profile = betti_profile(mesh)
    ranks = [0] + [_snf_rank(mesh.boundary_operator(k)) for k in (1, 2, 3)] + [0]
    assert profile.betti == betti
    assert profile.betti == tuple(
        mesh.n_simplices(k) - ranks[k] - ranks[k + 1] for k in range(4)
    )
    inner = [~mesh.in_boundary(k) for k in range(3)]
    rel1 = _snf_rank(mesh.boundary_operator(1)[inner[0]][:, inner[1]])
    rel2 = _snf_rank(mesh.boundary_operator(2)[inner[1]][:, inner[2]])
    assert profile.b_rel_1 == int(inner[1].sum()) - rel1 - rel2 == 0


def _loop_boundary_operator(mesh, k):
    index = {tuple(row): i for i, row in enumerate(mesh.simplices[k - 1])}
    rows, cols, vals = [], [], []
    for j, simplex in enumerate(mesh.simplices[k]):
        for i in range(k + 1):
            rows.append(index[tuple(np.delete(simplex, i))])
            cols.append(j)
            vals.append((-1) ** i)
    return sp.csr_matrix((np.array(vals, dtype=np.int64), (rows, cols)),
                         shape=(mesh.n_simplices(k - 1), mesh.n_simplices(k)))


def _loop_face_table(mesh, k):
    index = {tuple(row): i for i, row in enumerate(mesh.simplices[k])}
    combos = list(itertools.combinations(range(mesh.dim + 1), k + 1))
    table = np.empty((mesh.n_simplices(mesh.dim), len(combos)), dtype=np.int64)
    for t, simplex in enumerate(mesh.simplices[mesh.dim]):
        for c, combo in enumerate(combos):
            table[t, c] = index[tuple(simplex[list(combo)])]
    return table


@pytest.mark.parametrize("mesh", [build_fixture(name).mesh for name in sorted(FIXTURES)]
                         + [interval_mesh(), _boundary_of_4_simplex(), _labelled_tetrahedron()],
                         ids=sorted(FIXTURES) + ["interval", "s3", "tetrahedron"])
def test_vectorized_operators_equal_loop_construction(mesh):
    for k in range(1, mesh.dim + 1):
        new, ref = mesh.boundary_operator(k), _loop_boundary_operator(mesh, k)
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(new, attr), getattr(ref, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (k, attr)
    for k in range(mesh.dim + 1):
        new, ref = mesh.face_table(k), _loop_face_table(mesh, k)
        assert new.dtype == ref.dtype and np.array_equal(new, ref), k


def _loop_build_mesh(n_vertices, top_simplices, boundary_labels, dim=None):
    """The former tuple-dict build: (simplices, top_orientation, boundary_labels)."""
    tops = [tuple(s) for s in top_simplices]
    if not tops:
        raise SlagError("empty complex")
    if dim is None:
        dim = len(tops[0]) - 1
    for s in tops:
        if len(s) != dim + 1 or len(set(s)) != dim + 1:
            raise SlagError(f"bad top simplex {s}")
        for v in s:
            if not 0 <= v < n_vertices:
                raise SlagError(f"simplex {s} references unknown vertex {v}")
    simplices = []
    for k in range(dim + 1):
        faces = sorted({tuple(sorted(c)) for s in tops for c in itertools.combinations(s, k + 1)})
        simplices.append(np.array(faces, dtype=np.int64).reshape(len(faces), k + 1))
    if len(simplices[0]) != n_vertices:
        raise SlagError("every vertex must belong to some top simplex")

    def parity(simplex):
        s, sign = list(simplex), 1
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                if s[j] < s[i]:
                    s[i], s[j] = s[j], s[i]
                    sign = -sign
        return sign

    input_orient = np.array([parity(s) for s in tops], dtype=np.int64)
    top_sorted = [tuple(sorted(s)) for s in tops]
    order = sorted(range(len(tops)), key=lambda i: top_sorted[i])
    tops_canon = [top_sorted[i] for i in order]
    if len(set(tops_canon)) != len(tops_canon):
        raise SlagError("duplicate top simplices")
    input_orient = input_orient[order]
    simplices[dim] = np.array(tops_canon, dtype=np.int64)
    coface = {}
    for t, s in enumerate(tops_canon):
        for i in range(dim + 1):
            coface.setdefault(s[:i] + s[i + 1:], []).append((t, (-1) ** i))
    for face, adj in coface.items():
        if len(adj) > 2:
            raise NonManifoldError(f"face {face} shared by {len(adj)} top simplices")

    # propagate the input orientation of the lowest-id top of each component
    flags = np.zeros(len(tops_canon), dtype=np.int64)
    adjacency = {t: [] for t in range(len(tops_canon))}
    for adj in coface.values():
        if len(adj) == 2:
            (t1, s1), (t2, s2) = adj
            adjacency[t1].append((t2, s1 * s2))
            adjacency[t2].append((t1, s1 * s2))
    for seed in range(len(tops_canon)):
        if flags[seed]:
            continue
        flags[seed] = input_orient[seed]
        stack = [seed]
        while stack:
            t = stack.pop()
            for t2, rel in adjacency[t]:
                want = -rel * flags[t]
                if flags[t2] == 0:
                    flags[t2] = want
                    stack.append(t2)
                elif flags[t2] != want:
                    raise NonOrientableError("no consistent orientation exists")

    face_index = {tuple(row): i for i, row in enumerate(simplices[dim - 1])}
    labels = np.zeros(len(simplices[dim - 1]), dtype=np.int64)
    boundary_faces = {f for f, adj in coface.items() if len(adj) == 1}
    given = {tuple(sorted(f)): int(v) for f, v in dict(boundary_labels).items()}
    unknown = set(given) - boundary_faces
    if unknown:
        raise UnlabeledBoundaryError(
            f"labels given for non-boundary faces: {sorted(unknown)[:3]}")
    missing = boundary_faces - set(given)
    if missing:
        raise UnlabeledBoundaryError(f"unlabeled boundary faces: {sorted(missing)[:3]}")
    for f, v in given.items():
        if v < 1:
            raise UnlabeledBoundaryError(f"label for {f} must be >= 1, got {v}")
        labels[face_index[f]] = v

    # boundary components by union-find over shared (n-2)-faces
    face_ids = np.nonzero(labels > 0)[0].tolist()
    d = int(labels.max())
    used = sorted(set(int(labels[i]) for i in face_ids))
    if used != list(range(1, d + 1)):
        raise UnlabeledBoundaryError(f"labels must be exactly 1..d, got {used}")
    parent = {i: i for i in face_ids}
    subface_map = {}
    for fid in face_ids:
        fverts = tuple(simplices[dim - 1][fid])
        keys = [fverts[:i] + fverts[i + 1:] for i in range(len(fverts))] if dim >= 2 else []
        for key in keys:
            if key in subface_map:
                ra, rb = _find(parent, subface_map[key]), _find(parent, fid)
                if ra != rb:
                    parent[ra] = rb
            else:
                subface_map[key] = fid
    comps = {}
    for fid in face_ids:
        comps.setdefault(_find(parent, fid), set()).add(int(labels[fid]))
    if len(comps) != d:
        raise UnlabeledBoundaryError(
            f"boundary has {len(comps)} connected components but {d} labels")
    for members in comps.values():
        if len(members) != 1:
            raise UnlabeledBoundaryError(
                f"one boundary component carries labels {sorted(members)}")
    return tuple(simplices), flags, labels


def _fixture_input(name, level):
    """The (n_vertices, tops, labels) that a fixture passes to build_mesh."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixtures, "build_mesh", lambda *args: calls.append(args) or build_mesh(*args))
        build_fixture(name, level)
    return calls[0]


def _shuffled(data, seed):
    """Tops in random order, each vertex tuple rotated at random, and the same
    with the first two vertices of every tuple swapped, which flips each top."""
    n_vertices, tops, labels = data
    rng = np.random.default_rng(seed)
    rotated = [tuple(np.roll(tops[i], rng.integers(len(tops[i]))).tolist())
               for i in rng.permutation(len(tops))]
    swapped = [(t[1], t[0], *t[2:]) for t in rotated]
    return (n_vertices, rotated, labels), (n_vertices, swapped, labels)


@pytest.mark.parametrize("data", [_fixture_input(name, level) for name in sorted(FIXTURES)
                                  for level in (1, 2)] + [_interval(), _S3, _TETRAHEDRON, _CURVE],
                         ids=[f"{name}-{level}" for name in sorted(FIXTURES) for level in (1, 2)]
                         + ["interval", "s3", "tetrahedron", "curve"])
def test_array_build_equals_loop_build(data):
    def check(data):
        mesh, ref = build_mesh(*data), _loop_build_mesh(*data)
        for new, old in zip((*mesh.simplices, mesh.top_orientation, mesh.boundary_labels),
                            (*ref[0], ref[1], ref[2])):
            assert new.dtype == old.dtype and np.array_equal(new, old)
        assert len(mesh.simplices) == len(ref[0])
        return mesh

    check(data)
    for seed in (0, 1):
        as_given, swapped = _shuffled(data, seed)
        # the seed tops of the two copies have opposite input signs
        assert np.array_equal(check(swapped).top_orientation, -check(as_given).top_orientation)


def _loop_cylinder_mesh(n_axial, n_circ, vertex_offset=0, labels=(1, 2)):
    """The former loop `fixtures._cylinder_mesh`."""
    def vid(i, j):
        return vertex_offset + i * n_circ + (j % n_circ)

    tops = []
    for i in range(n_axial):
        for j in range(n_circ):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tops.append((v10, v00, v11))
            tops.append((v11, v00, v01))
    boundary = {}
    for j in range(n_circ):
        boundary[tuple(sorted((vid(0, j), vid(0, j + 1))))] = labels[0]
        boundary[tuple(sorted((vid(n_axial, j), vid(n_axial, j + 1))))] = labels[1]
    return tops, boundary, (n_axial + 1) * n_circ


def _loop_cylinder_positions(n_axial, n_circ, width, y1, y2):
    """The former loop `fixtures._cylinder_positions`."""
    pos = np.zeros(((n_axial + 1) * n_circ, 4))
    for i in range(n_axial + 1):
        for j in range(n_circ):
            pos[i * n_circ + j] = (width * i / n_axial, y1, j / n_circ, y2)
    return pos


@pytest.mark.parametrize("n_axial, n_circ, offset, labels, width, y", [
    (8, 16, 0, (1, 2), 0.5, 0.0), (4, 16, 153, (3, 4), 0.25, 0.5),
    (32, 64, 0, (1, 2), 0.5, 0.0), (16, 64, 2145, (3, 4), 0.25, 0.5), (1, 3, 7, (2, 1), 0.3, 0.1)])
def test_array_cylinder_fixture_equals_loop(n_axial, n_circ, offset, labels, width, y):
    tops, boundary, n_vertices = fixtures._cylinder_mesh(n_axial, n_circ, offset, labels)
    ref_tops, ref_boundary, ref_n = _loop_cylinder_mesh(n_axial, n_circ, offset, labels)
    assert tops == ref_tops and list(boundary.items()) == list(ref_boundary.items())
    assert n_vertices == ref_n
    values = [v for t in tops for v in t] + [v for f in boundary for v in f] + list(
        boundary.values())
    assert all(type(v) is int for v in values)
    assert all(type(t) is tuple for t in [*tops, *boundary])
    pos = fixtures._cylinder_positions(n_axial, n_circ, width, y, y)
    ref = _loop_cylinder_positions(n_axial, n_circ, width, y, y)
    assert pos.dtype == ref.dtype and pos.shape == ref.shape and pos.tobytes() == ref.tobytes()


def _cylinder_labels(relabel):
    tops, labels, n_vertices = fixtures._cylinder_mesh(2, 4)
    return n_vertices, tops, {f: relabel.get(f, v) for f, v in labels.items()}


@pytest.mark.parametrize("data", [
    (3, [], {}),
    (4, [(0, 1, 2), (0, 1)], {}),
    (3, [(0, 0, 1)], {}),
    (2, [(0, 5)], {}),
    (10, [(0, 1)], {(0,): 1, (1,): 2}),
    (3, [(0, 1, 2), (2, 1, 0)], {}),
    (5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)], {}),
    (5, mobius(), {}),
    (9, _interval()[1], {(0,): 1, (8,): 2, (3,): 1}),
    (9, _interval()[1], {(0,): 1, (8,): 2, (0, 1): 1}),
    (9, _interval()[1], {(0,): 1, (8,): 2, (99,): 1}),
    (9, _interval()[1], {(0,): 1}),
    (9, _interval()[1], {(0,): 0, (8,): 1}),
    (9, _interval()[1], {(0,): 0}),
    (9, _interval()[1], {(0,): 1, (8,): 3}),
    (9, _interval()[1], {(0,): 1, (8,): 1}),
    _cylinder_labels({(0, 1): 2}),
    _cylinder_labels({f: 1 for f in _cylinder_labels({})[2]}),
], ids=["empty", "short", "repeated", "unknown-vertex", "isolated", "duplicate", "non-manifold",
        "mobius", "interior-label", "wide-label", "outside-label", "unlabeled", "zero-label",
        "zero-and-unlabeled", "gap", "shared-label", "two-labels-one-circle",
        "one-label-two-circles"])
def test_array_build_rejects_as_loop_build(data):
    with pytest.raises(SlagError) as ref:
        _loop_build_mesh(*data)
    with pytest.raises(SlagError) as new:
        build_mesh(*data)
    assert (type(new.value), str(new.value)) == (type(ref.value), str(ref.value))


def test_zero_dimensional_complex_rejected():
    with pytest.raises(SlagError, match=r"bad top simplex \(0,\)"):
        build_mesh(2, [(0,), (1,)], {})


def test_surface_topology_needs_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("GF(p) elimination used")

    monkeypatch.setattr(meshes, "_rank_mod_p", refuse)
    mesh = build_fixture("two_handle", 1).mesh
    assert betti_profile(mesh).betti == (2, 2, 0)
    assert relative_cycle_basis(mesh).m == 2
    assert absolute_cycle_basis(mesh).m == 2
    with pytest.raises(AssertionError, match="elimination"):
        betti_profile(_boundary_of_4_simplex())  # middle ranks of dim 3 still eliminate


def test_coboundary_operator_is_built_once_per_degree():
    mesh = build_fixture("two_handle", 1).mesh
    for k in range(mesh.dim):
        d = mesh.coboundary_operator(k)
        assert d is mesh.coboundary_operator(k)
        assert (d != mesh.boundary_operator(k + 1).T).nnz == 0


@pytest.mark.parametrize("name, level", [(name, level) for name in sorted(FIXTURES)
                                         for level in (1, 2)])
def test_graph_ranks_equal_union_find(name, level, monkeypatch):
    """Nodes minus components, on every graph betti_profile ranks and on no edges."""
    graphs = []
    rank = meshes._graph_rank
    monkeypatch.setattr(meshes, "_graph_rank",
                        lambda n_nodes, ends: graphs.append((n_nodes, ends)) or rank(n_nodes, ends))
    build_fixture(name, level).mesh.betti_profile()
    assert len(graphs) >= 2
    for n_nodes, ends in graphs + [(5, np.zeros((0, 2), dtype=np.int64))]:
        assert rank(n_nodes, ends) == sum(_unite(list(range(n_nodes)), ends))
