"""Oriented simplicial complexes with labeled boundary and homology cycle bases.

Simplices of every degree are stored as rows of sorted vertex ids, ordered
lexicographically, so each simplex has a canonical orientation.  Top simplices
additionally carry an orientation flag (+1/-1) relative to their canonical
order; boundary operators act on canonical simplices and therefore satisfy
boundary-of-boundary = 0 in exact integer arithmetic.

The edge boundary is the incidence matrix of the edge graph, and, since every
mesh is an oriented pseudomanifold, the top boundary is (up to column signs)
the incidence matrix of the dual graph: top simplices plus one ground node,
joined across each interior face and from each boundary face to the ground.
Their ranks are graph ranks over every field (nodes minus components, counted
by union-find), so the Betti numbers of curves and surfaces take near-linear
time.  Cycle bases come
from a tree-cotree decomposition (Eppstein, SODA 2003; Erickson & Whittlesey,
SODA 2005).  Only the middle ranks of complexes of dimension >= 3 use column
elimination over GF(p) for a large prime p, which agrees with the rank over
the rationals for the torsion-free desk-scale complexes used here; the test
suite cross-checks the ranks against a Smith-normal-form oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import (
    NonManifoldError,
    NonOrientableError,
    RankDeficientError,
    SlagError,
    UnlabeledBoundaryError,
)

_PRIME = 2_147_483_647


@dataclass(frozen=True)
class Chain:
    """Formal integer combination of canonical k-simplices, keyed by simplex id."""

    degree: int
    coeffs: dict[int, int]

    def __neg__(self) -> "Chain":
        return Chain(self.degree, {i: -c for i, c in self.coeffs.items()})


@dataclass(frozen=True)
class RelativeCycleBasis:
    """1-chains whose boundary is supported on boundary vertices.

    dual[:, j] is an integer 1-cocycle vanishing on boundary edges with
    period delta_jk over cycle k.
    """

    cycles: tuple[Chain, ...]
    dual: np.ndarray = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.cycles)

    @property
    def degree(self) -> int:
        return 1


@dataclass(frozen=True)
class AbsoluteCycleBasis:
    """Closed (n-1)-chains; dual[:, j] is an integer (n-1)-cocycle with period
    delta_jk over cycle k."""

    cycles: tuple[Chain, ...]
    degree: int
    dual: np.ndarray = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class BettiProfile:
    betti: tuple[int, ...]
    b_rel_1: int

    @property
    def b_top_minus_1(self) -> int:
        return self.betti[-2] if len(self.betti) >= 2 else self.betti[0]

    @property
    def duality_holds(self) -> bool:
        return self.b_rel_1 == self.b_top_minus_1


class SimplicialMesh:
    """Validated oriented simplicial n-complex with labeled boundary components.

    Immutable after construction; all derived operators are cached on first use.
    """

    def __init__(self, dim, n_vertices, simplices, top_orientation, boundary_labels):
        self.dim = dim
        self.n_vertices = n_vertices
        self.simplices = simplices          # tuple over k of (N_k, k+1) int arrays
        self.top_orientation = top_orientation  # (N_n,) of +-1
        self.boundary_labels = boundary_labels  # (N_{n-1},) int, 0 = interior
        self._boundary_ops: dict[int, sp.csr_matrix] = {}
        self._coboundary_ops: dict[int, sp.csr_matrix] = {}
        self._betti: BettiProfile | None = None
        self._face_tables: dict[int, np.ndarray] = {}
        self._edge_tables: dict[int, np.ndarray] = {}
        # simplices entirely contained in the boundary, per degree
        self._in_boundary = self._mark_boundary_simplices()

    # -- basic queries -------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    @property
    def n_components(self) -> int:
        labels = self.boundary_labels
        return int(labels.max()) if labels.size else 0

    def boundary_face_ids(self) -> np.ndarray:
        return np.nonzero(self.boundary_labels > 0)[0]

    def interior_simplex_ids(self, k: int) -> np.ndarray:
        return np.nonzero(~self._in_boundary[k])[0]

    def in_boundary(self, k: int) -> np.ndarray:
        """Boolean mask: k-simplices contained in the boundary."""
        return self._in_boundary[k]

    def boundary_component_of_vertex(self) -> np.ndarray:
        """Per-vertex component label, 0 for interior vertices."""
        out = np.zeros(self.n_vertices, dtype=int)
        if self.dim == 0:
            return out
        faces = self.simplices[self.dim - 1]
        for fid in self.boundary_face_ids():
            out[faces[fid]] = self.boundary_labels[fid]
        return out

    def _mark_boundary_simplices(self) -> list[np.ndarray]:
        masks = [np.zeros(self.n_simplices(k), dtype=bool) for k in range(self.dim + 1)]
        if self.dim == 0:
            return masks
        masks[self.dim - 1] = self.boundary_labels > 0
        faces = self.simplices[self.dim - 1][masks[self.dim - 1]]
        for k in range(self.dim - 1):
            for combo in itertools.combinations(range(self.dim), k + 1):
                masks[k][self._ids_of(k, faces[:, list(combo)])] = True
        return masks

    # -- chain complex ---------------------------------------------------------

    def boundary_operator(self, k: int) -> sp.csr_matrix:
        """Signed incidence matrix C_k -> C_{k-1} on canonical simplices (int64)."""
        if not 1 <= k <= self.dim:
            raise SlagError(f"no boundary operator in degree {k}")
        if k not in self._boundary_ops:
            simp = self.simplices[k]
            rows = np.stack(
                [self._ids_of(k - 1, np.delete(simp, i, axis=1)) for i in range(k + 1)], axis=1
            )
            vals = np.tile((-1) ** np.arange(k + 1, dtype=np.int64), len(simp))
            cols = np.repeat(np.arange(len(simp)), k + 1)
            self._boundary_ops[k] = sp.csr_matrix(
                (vals, (rows.ravel(), cols)),
                shape=(self.n_simplices(k - 1), self.n_simplices(k)),
            )
        return self._boundary_ops[k]

    def coboundary_operator(self, k: int) -> sp.csr_matrix:
        """d_k: C^k -> C^{k+1}, the transpose of the degree-(k+1) boundary."""
        if k not in self._coboundary_ops:
            self._coboundary_ops[k] = self.boundary_operator(k + 1).T.tocsr()
        return self._coboundary_ops[k]

    def face_table(self, k: int) -> np.ndarray:
        """(N_top, C(n+1, k+1)) global ids of the k-faces of each top simplex.

        Column order matches itertools.combinations over local vertex slots.
        """
        if k not in self._face_tables:
            tops = self.simplices[self.dim]
            combos = itertools.combinations(range(self.dim + 1), k + 1)
            self._face_tables[k] = np.stack(
                [self._ids_of(k, tops[:, list(combo)]) for combo in combos], axis=1
            ).astype(np.int64)
        return self._face_tables[k]

    def edge_table(self, k: int) -> np.ndarray:
        """(N_k, k) ids of the edges (v0, vi), i = 1..k, the frame columns of each k-simplex."""
        if k not in self._edge_tables:
            simp = self.simplices[k]
            ids = [self._ids_of(1, simp[:, [0, i]]) for i in range(1, k + 1)]
            self._edge_tables[k] = np.array(ids, dtype=np.int64).reshape(k, len(simp)).T
        return self._edge_tables[k]

    def _ids_of(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Ids of the k-simplices given as rows of sorted vertex ids.

        A row's mixed-radix code in base n_vertices orders rows the way the
        lexicographic simplex order does, so ids are found by binary search.
        The codes must fit in int64 (n_vertices ** (k + 1) < 2 ** 63); numpy
        raises ValueError beyond that.
        """
        shape = (self.n_vertices,) * (k + 1)
        codes = np.ravel_multi_index(self.simplices[k].T, shape)
        return np.searchsorted(codes, np.ravel_multi_index(rows.T, shape))

    # -- homology ------------------------------------------------------------------

    def betti_profile(self) -> BettiProfile:
        if self._betti is None:
            n = self.dim
            ranks = [0] + [self._boundary_rank(k) for k in range(1, n + 1)] + [0]
            betti = tuple(
                self.n_simplices(k) - ranks[k] - ranks[k + 1] for k in range(n + 1)
            )
            self._betti = BettiProfile(betti, self._relative_b1())
        return self._betti

    def _boundary_rank(self, k: int) -> int:
        if k == 1:
            return _graph_rank(self.n_vertices, self.simplices[1])
        if k == self.dim:
            return _graph_rank(self.n_simplices(k) + 1, self._dual_edges())
        return _rank_mod_p(self.boundary_operator(k))

    def _relative_b1(self) -> int:
        """Rank of H_1 relative to the boundary: interior edges only, with the
        boundary vertices merged into one node and no ground node in the dual."""
        if self.dim == 0:
            return 0
        interior = ~self._in_boundary[1]
        rank1 = _graph_rank(self.n_vertices + 1, self._merged_edges()[interior])
        if self.dim == 1:
            rank2 = 0
        elif self.dim == 2:
            rank2 = _graph_rank(self.n_simplices(2), self._dual_edges()[interior])
        else:
            rank2 = _rank_mod_p(self.boundary_operator(2)[interior][:, ~self._in_boundary[2]])
        return int(interior.sum()) - rank1 - rank2

    def _merged_edges(self) -> np.ndarray:
        """(N_1, 2) edge ends with every boundary vertex replaced by node n_vertices."""
        edges = self.simplices[1]
        return np.where(self._in_boundary[0][edges], self.n_vertices, edges)

    def _dual_edges(self) -> np.ndarray:
        """(N_{n-1}, 2) top simplices on the two sides of each (n-1)-face.

        A boundary face has one side; its second end is the ground node N_n.
        """
        table = self.face_table(self.dim - 1)
        faces = table.ravel()
        tops = np.repeat(np.arange(len(table)), table.shape[1])
        order = np.argsort(faces, kind="stable")
        faces, tops = faces[order], tops[order]
        second = np.r_[False, faces[1:] == faces[:-1]]
        ends = np.full((self.n_simplices(self.dim - 1), 2), len(table))
        ends[faces[~second], 0] = tops[~second]
        ends[faces[second], 1] = tops[second]
        return ends


# -- construction ---------------------------------------------------------------


def build_mesh(n_vertices, top_simplices, boundary_labels, dim=None, orient="auto"):
    """Validate raw vertex/simplex/label data and build a SimplicialMesh.

    top_simplices: iterable of (n+1)-tuples of vertex ids; tuple order defines
        the input orientation.
    boundary_labels: mapping from boundary (n-1)-simplices (any vertex order)
        to component labels 1..d.
    orient: "auto" propagates a consistent orientation from the lowest-id top
        simplex of each component (input orientation used as the seed);
        "strict" requires the input orientations to be consistent as given.
    """
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

    # canonical simplex lists per degree
    simplices: list[np.ndarray] = []
    for k in range(dim + 1):
        faces = sorted({tuple(sorted(c)) for s in tops for c in itertools.combinations(s, k + 1)})
        simplices.append(np.array(faces, dtype=np.int64).reshape(len(faces), k + 1))
    if len(simplices[0]) != n_vertices:
        # isolated vertices are not part of the complex
        raise SlagError("every vertex must belong to some top simplex")

    input_orient = np.array([_parity(s) for s in tops], dtype=np.int64)
    top_sorted = [tuple(sorted(s)) for s in tops]
    order = sorted(range(len(tops)), key=lambda i: top_sorted[i])
    tops_canon = [top_sorted[i] for i in order]
    if len(set(tops_canon)) != len(tops_canon):
        raise SlagError("duplicate top simplices")
    input_orient = input_orient[order]
    simplices[dim] = np.array(tops_canon, dtype=np.int64)

    # face -> adjacent top simplices
    coface: dict[tuple, list[tuple[int, int]]] = {}
    for t, s in enumerate(tops_canon):
        for i in range(dim + 1):
            face = s[:i] + s[i + 1 :]
            coface.setdefault(face, []).append((t, (-1) ** i))
    for face, adj in coface.items():
        if len(adj) > 2:
            raise NonManifoldError(f"face {face} shared by {len(adj)} top simplices")

    orientation = _orient_complex(len(tops_canon), coface, input_orient, orient)

    # boundary faces and labels
    face_index = {tuple(row): i for i, row in enumerate(simplices[dim - 1])} if dim else {}
    labels = np.zeros(len(simplices[dim - 1]) if dim else 0, dtype=np.int64)
    boundary_faces = {f for f, adj in coface.items() if len(adj) == 1}
    given = {tuple(sorted(f)): int(v) for f, v in dict(boundary_labels).items()}
    unknown = set(given) - boundary_faces
    if unknown:
        raise UnlabeledBoundaryError(f"labels given for non-boundary faces: {sorted(unknown)[:3]}")
    missing = boundary_faces - set(given)
    if missing:
        raise UnlabeledBoundaryError(f"unlabeled boundary faces: {sorted(missing)[:3]}")
    for f, v in given.items():
        if v < 1:
            raise UnlabeledBoundaryError(f"label for {f} must be >= 1, got {v}")
        labels[face_index[f]] = v

    mesh = SimplicialMesh(dim, n_vertices, tuple(simplices), orientation, labels)
    _validate_boundary_components(mesh)
    return mesh


def _parity(simplex) -> int:
    """Sign of the permutation sorting the vertex tuple."""
    s = list(simplex)
    sign = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[j] < s[i]:
                s[i], s[j] = s[j], s[i]
                sign = -sign
    return sign


def _orient_complex(n_top, coface, input_orient, mode):
    """Orientation flags making induced orientations on interior faces cancel."""
    flags = np.zeros(n_top, dtype=np.int64)
    adjacency: dict[int, list[tuple[int, int]]] = {t: [] for t in range(n_top)}
    for adj in coface.values():
        if len(adj) == 2:
            (t1, s1), (t2, s2) = adj
            adjacency[t1].append((t2, s1 * s2))
            adjacency[t2].append((t1, s1 * s2))
    for seed in range(n_top):
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
    if mode == "strict" and not np.array_equal(flags, input_orient):
        raise NonOrientableError("input orientations are not globally consistent")
    return flags


def _validate_boundary_components(mesh: SimplicialMesh) -> None:
    if mesh.dim == 0:
        return
    face_ids = mesh.boundary_face_ids()
    labels = mesh.boundary_labels
    d = mesh.n_components
    used = sorted(set(int(labels[i]) for i in face_ids))
    if used != list(range(1, d + 1)):
        raise UnlabeledBoundaryError(f"labels must be exactly 1..d, got {used}")
    # connected components of the boundary complex via shared (n-2)-faces
    parent = {int(i): int(i) for i in face_ids}
    faces = mesh.simplices[mesh.dim - 1]
    subface_map: dict[tuple, int] = {}
    for fid in face_ids:
        fid = int(fid)
        fverts = tuple(faces[fid])
        # boundary faces are points when dim == 1: each is its own component
        keys = [fverts[:i] + fverts[i + 1 :] for i in range(len(fverts))] if mesh.dim >= 2 else []
        for key in keys:
            if key in subface_map:
                ra, rb = _find(parent, subface_map[key]), _find(parent, fid)
                if ra != rb:
                    parent[ra] = rb
            else:
                subface_map[key] = fid
    comps: dict[int, set[int]] = {}
    for fid in face_ids:
        comps.setdefault(_find(parent, int(fid)), set()).add(int(labels[fid]))
    if len(comps) != d:
        raise UnlabeledBoundaryError(
            f"boundary has {len(comps)} connected components but {d} labels"
        )
    for members in comps.values():
        if len(members) != 1:
            raise UnlabeledBoundaryError(f"one boundary component carries labels {sorted(members)}")


# -- ranks: graphs by components, the rest over GF(p) ---------------------------------


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


def _graph_rank(n_nodes: int, ends: np.ndarray) -> int:
    """Rank of a multigraph's incidence matrix over any field: the edge count of
    a spanning forest, i.e. nodes minus components.

    Deleting the row of one node per component (a ground node) keeps the rank.
    """
    return sum(_unite(list(range(n_nodes)), ends))


def _rank_mod_p(mat: sp.spmatrix, p: int = _PRIME) -> int:
    """Rank over GF(p) by incremental column reduction with lowest-row pivots."""
    csc = sp.csc_matrix(mat)
    pivots: dict[int, dict[int, int]] = {}
    for start, end in zip(csc.indptr[:-1], csc.indptr[1:]):
        col = {r: v % p for r, v in zip(csc.indices[start:end].tolist(),
                                        csc.data[start:end].tolist()) if v % p}
        while col:
            r = min(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], p - 2, p)
                pivots[r] = {rr: (vv * inv) % p for rr, vv in col.items()}
                break
            c = col[r]
            for rr, vv in piv.items():
                nv = (col.get(rr, 0) - c * vv) % p
                if nv:
                    col[rr] = nv
                else:
                    col.pop(rr, None)
    return len(pivots)


def betti_profile(mesh: SimplicialMesh) -> BettiProfile:
    """Homology ranks over the reals plus the relative rank b_rel_1.

    Field-coefficient cohomology ranks coincide with these, so the profile
    doubles as a cohomology report.
    """
    return mesh.betti_profile()


# -- cycle bases --------------------------------------------------------------------


def relative_cycle_basis(mesh: SimplicialMesh) -> RelativeCycleBasis:
    """Independent relative 1-cycles: 1-chains with boundary on boundary vertices.

    Construction: merge all boundary vertices into one virtual node, take a
    breadth-first spanning forest of the interior edges (lowest simplex id
    first), and keep the fundamental cycles whose non-tree edge lies outside
    the cotree of the dual graph on the triangles (see `_cycle_generators`).
    """
    if mesh.dim > 2:
        raise SlagError("relative cycle basis implemented for dim <= 2")
    m = mesh.betti_profile().b_rel_1
    ids = mesh.interior_simplex_ids(1)
    edge_list = list(zip(ids.tolist(), *mesh._merged_edges()[ids].T.tolist()))
    chosen, dual = _cycle_generators(mesh, edge_list, [mesh.n_vertices], m)
    if len(chosen) != m:
        raise RankDeficientError(f"found {len(chosen)} relative cycles, expected {m}")
    return RelativeCycleBasis(tuple(chosen), dual)


def absolute_cycle_basis(mesh: SimplicialMesh) -> AbsoluteCycleBasis:
    """Closed (n-1)-chains spanning the top-but-one homology (dim <= 2)."""
    profile = mesh.betti_profile()
    m = profile.betti[mesh.dim - 1] if mesh.dim >= 1 else profile.betti[0]
    if mesh.dim == 1:
        # one interior vertex per connected component, lowest id first; its
        # dual is the indicator of the component
        parent = list(range(mesh.n_vertices))
        _unite(parent, mesh.simplices[1])
        members: dict[int, list[int]] = {}
        for v in range(mesh.n_vertices):
            members.setdefault(_find(parent, v), []).append(v)
        chosen: list[Chain] = []
        dual = np.zeros((mesh.n_vertices, len(members)), dtype=np.int64)
        for j, group in enumerate(members.values()):
            interior = [v for v in group if not mesh._in_boundary[0][v]]
            chosen.append(Chain(0, {(interior or group)[0]: 1}))
            dual[group, j] = 1
        if len(chosen) != m:
            raise RankDeficientError(f"found {len(chosen)} 0-cycles, expected {m}")
        return AbsoluteCycleBasis(tuple(chosen), 0, dual)
    if mesh.dim != 2:
        raise SlagError("absolute cycle basis implemented for dim <= 2")
    edge_list = list(zip(range(mesh.n_simplices(1)), *mesh.simplices[1].T.tolist()))
    chosen, dual = _cycle_generators(mesh, edge_list, [], m)
    if len(chosen) != m:
        raise RankDeficientError(f"found {len(chosen)} cycles, expected {m}")
    return AbsoluteCycleBasis(tuple(chosen), 1, dual)


def _cycle_generators(mesh: SimplicialMesh, edge_list, roots, m: int):
    """First m fundamental cycles of a BFS forest that are independent modulo
    2-boundaries, by tree-cotree decomposition, and the cocycles dual to them.

    The dual graph joins triangles, or a triangle and the ground node, across
    each edge (`_dual_edges`); a curve has none.  The cotree is the forest
    that Kruskal's algorithm grows in the dual graph from the
    non-tree edges in descending id; the generators are the remaining non-tree
    edges in ascending id.  A cycle is fixed by its non-tree coefficients, so
    this is the lexicographically first complement of the dual graph's
    (regular, hence field-independent) matroid on the non-tree edges: the same
    cycles, signs and order that greedy elimination of candidates in
    ascending id keeps.

    Returns the cycles and an (N_1, m) integer array whose column j is 1 on
    generator j and 0 on the tree, on the other generators and on every edge
    outside edge_list, with cotree values fixed by closedness (Erickson &
    Whittlesey, SODA 2005); its period over cycle k is therefore delta_jk.
    """
    parent_edge = _bfs_forest(edge_list, roots)
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
        _close_over_cotree(mesh, dual, cotree)
    return [Chain(1, _fundamental_cycle(parent_edge, *e)) for e in generators], dual


def _close_over_cotree(mesh: SimplicialMesh, dual: np.ndarray, cotree: list[int]) -> None:
    """Fill the cotree rows of `dual` so that its coboundary vanishes.

    Each cotree component is rooted at the ground node where it reaches it,
    else at its lowest triangle.  Leaves first, each triangle solves for the
    edge to its parent, the only one of its edges still unset; incidences are
    +-1, so the values stay integers.  A root triangle's equation is the sum
    of the others in its component, which the final check confirms.
    """
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


def _bfs_forest(edge_list, roots):
    """Parent edge (edge_id, parent node, sign) of every node of a BFS forest.

    edge_list: (edge_id, node_a, node_b); the chain convention is +1 for
    traversal a -> b of edge_id.  Forest roots are taken from `roots` first,
    then lowest remaining node id; neighbors are visited in ascending edge id.
    Roots map to None.
    """
    adjacency: dict[int, list[tuple[int, int, int]]] = {}
    for eid, a, b in edge_list:
        adjacency.setdefault(a, []).append((eid, b, +1))
        adjacency.setdefault(b, []).append((eid, a, -1))
    for lst in adjacency.values():
        lst.sort()

    parent_edge: dict[int, tuple[int, int, int] | None] = {}
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


def _fundamental_cycle(parent_edge, eid, a, b) -> dict[int, int]:
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


# -- serialization --------------------------------------------------------------------


def mesh_from_dict(data: dict) -> SimplicialMesh:
    try:
        n_vertices = data["vertices"]
        tops = data["simplices"]
        labels = {tuple(face): lab for face, lab in data["boundary_labels"]}
    except KeyError as exc:
        raise SlagError(f"mesh dict missing field {exc}") from exc
    if isinstance(n_vertices, list):
        n_vertices = len(n_vertices)
    return build_mesh(n_vertices, tops, labels, dim=data.get("dim"))
