"""Oriented simplicial complexes with labeled boundary and homology cycle bases.

Simplices of every degree are stored as rows of sorted vertex ids, ordered
lexicographically, so each simplex has a canonical orientation.  Top simplices
additionally carry an orientation flag (+1/-1) relative to their canonical
order; boundary operators act on canonical simplices and therefore satisfy
boundary-of-boundary = 0 in exact integer arithmetic.  `build_mesh` makes
them with one sort and one `np.unique` of row codes per degree, as PyDEC
does (Bell & Hirani, ACM TOMS 39(1), 2012), and orients the tops from the
components of the orientation double cover.

The edge boundary is the incidence matrix of the edge graph, and, since every
mesh is an oriented pseudomanifold, the top boundary is (up to column signs)
the incidence matrix of the dual graph: top simplices plus one ground node,
joined across each interior face and from each boundary face to the ground.
Their ranks are graph ranks over every field (nodes minus connected
components), so the Betti numbers of curves and surfaces take near-linear
time.  Cycle bases come from a tree-cotree decomposition on arrays
(Eppstein, SODA 2003; Erickson & Whittlesey, SODA 2005).  Only the middle
ranks of complexes of dimension >= 3 use column elimination over GF(p) for
a large prime p, which agrees with the rank over the rationals for the
torsion-free desk-scale complexes used here; the test suite cross-checks
the ranks against a Smith-normal-form oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree
from scipy.sparse.linalg import spsolve_triangular

from .errors import (
    NonManifoldError,
    NonOrientableError,
    RankDeficientError,
    SlagError,
    UnlabeledBoundaryError,
)

_PRIME = 2_147_483_647


@dataclass(frozen=True, eq=False)
class CycleBasis:
    """Integer cycles of one degree and the integer cocycles dual to them.

    chains[:, j] is cycle j, its coefficient on each canonical simplex; a
    relative 1-cycle's boundary lies on boundary vertices, an absolute
    cycle's vanishes.  dual[:, j] is a closed integer cochain with period
    delta_jk over cycle k; a relative dual vanishes on boundary edges.
    support holds the ascending ids of the simplices that some cycle touches.
    """

    degree: int
    chains: np.ndarray
    dual: np.ndarray

    @property
    def m(self) -> int:
        return self.chains.shape[1]

    @cached_property
    def _terms(self):
        """(support, slot of each nonzero in support, its column, its coefficient), row-major."""
        rows, cols = np.nonzero(self.chains)
        support, slots = np.unique(rows, return_inverse=True)
        return support, slots, cols, self.chains[rows, cols]

    @property
    def support(self) -> np.ndarray:
        return self._terms[0]

    def periods(self, values: np.ndarray) -> np.ndarray:
        """(..., m) periods of the (..., len(support)) values on the support.

        Each column adds coefficient * value over its nonzeros in ascending
        simplex id, starting from zero: one bincount over the row-major
        nonzeros, with no BLAS, so the bits do not depend on the thread count.
        """
        _, slots, cols, coeffs = self._terms
        lead, m = values.shape[:-1], self.m
        bins = cols + m * np.arange(math.prod(lead)).reshape(lead + (1,))
        sums = np.bincount(bins.ravel(), (coeffs * values[..., slots]).ravel(), m * math.prod(lead))
        return sums.reshape(lead + (m,))


@dataclass(frozen=True)
class BettiProfile:
    betti: tuple[int, ...]
    b_rel_1: int

    @property
    def b_top_minus_1(self) -> int:
        return self.betti[-2]

    @property
    def duality_holds(self) -> bool:
        return self.b_rel_1 == self.b_top_minus_1


class SimplicialMesh:
    """Validated oriented simplicial n-complex with labeled boundary components.

    Immutable after construction; all derived operators are cached on first use.
    """

    def __init__(self, dim, n_vertices, simplices, top_orientation, boundary_labels, face_tables):
        self.dim = dim
        self.n_vertices = n_vertices
        self.simplices = simplices          # tuple over k of (N_k, k+1) int arrays
        self.top_orientation = top_orientation  # (N_n,) of +-1
        self.boundary_labels = boundary_labels  # (N_{n-1},) int, 0 = interior
        self._boundary_ops: dict[int, sp.csr_matrix] = {}
        self._coboundary_ops: dict[int, sp.csr_matrix] = {}
        self._betti: BettiProfile | None = None
        self._face_tables = face_tables  # tuple over k of (N_n, C(n+1, k+1)) int64 arrays
        self._edge_tables: dict[int, np.ndarray] = {}
        # simplices entirely contained in the boundary, per degree
        self._in_boundary = self._mark_boundary_simplices()

    # -- basic queries -------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    @property
    def n_components(self) -> int:
        return int(self.boundary_labels.max())

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
        ids = self.boundary_face_ids()
        out[self.simplices[self.dim - 1][ids]] = self.boundary_labels[ids, None]
        return out

    def _mark_boundary_simplices(self) -> list[np.ndarray]:
        masks = [np.zeros(self.n_simplices(k), dtype=bool) for k in range(self.dim + 1)]
        masks[self.dim - 1] = self.boundary_labels > 0
        faces = self.simplices[self.dim - 1][masks[self.dim - 1]]
        for k in range(self.dim - 1):
            for combo in itertools.combinations(range(self.dim), k + 1):
                masks[k][self.simplex_ids(k, faces[:, list(combo)])] = True
        return masks

    # -- chain complex ---------------------------------------------------------

    def boundary_operator(self, k: int) -> sp.csr_matrix:
        """Signed incidence matrix C_k -> C_{k-1} on canonical simplices (int64)."""
        if not 1 <= k <= self.dim:
            raise SlagError(f"no boundary operator in degree {k}")
        if k not in self._boundary_ops:
            simp = self.simplices[k]
            rows = np.stack(
                [self.simplex_ids(k - 1, np.delete(simp, i, axis=1)) for i in range(k + 1)], axis=1
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
        """(N_top, C(n+1, k+1)) ids of the k-faces of each top, in itertools.combinations order."""
        return self._face_tables[k]

    def edge_table(self, k: int) -> np.ndarray:
        """(N_k, k) ids of the edges (v0, vi), i = 1..k, the frame columns of each k-simplex."""
        if k not in self._edge_tables:
            simp = self.simplices[k]
            ids = [self.simplex_ids(1, simp[:, [0, i]]) for i in range(1, k + 1)]
            self._edge_tables[k] = np.array(ids, dtype=np.int64).reshape(k, len(simp)).T
        return self._edge_tables[k]

    def simplex_ids(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Ids of the k-simplices given as rows of sorted vertex ids, -1 for a row that is none."""
        return _ids_of(self.simplices[k], self.n_vertices, rows)

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
        bd = self.boundary_operator(self.dim)
        start, two = bd.indptr[:-1], np.diff(bd.indptr) == 2
        ends = np.full((bd.shape[0], 2), bd.shape[1])
        ends[:, 0] = bd.indices[start]
        ends[two, 1] = bd.indices[start[two] + 1]
        return ends


# -- construction ---------------------------------------------------------------


def build_mesh(n_vertices, top_simplices, boundary_labels, dim=None):
    """Validate raw vertex/simplex/label data and build a SimplicialMesh.

    top_simplices: iterable of (n+1)-tuples of vertex ids, n >= 1; tuple order
        defines the input orientation.
    boundary_labels: mapping from boundary (n-1)-simplices (any vertex order)
        to component labels 1..d.

    The k-simplices are the unique k-faces of the sorted top rows; each
    component keeps the input orientation of its lowest-id top (`_orientation`).
    """
    tops = [tuple(s) for s in top_simplices]
    if not tops:
        raise SlagError("empty complex")
    dim = len(tops[0]) - 1 if dim is None else dim
    for s in tops:
        if dim < 1 or len(s) != dim + 1 or len(set(s)) != dim + 1:
            raise SlagError(f"bad top simplex {s}")
        for v in s:
            if not 0 <= v < n_vertices:
                raise SlagError(f"simplex {s} references unknown vertex {v}")

    raw = np.array(tops, dtype=np.int64)
    ordered = np.sort(raw, axis=1)
    order = np.lexsort(ordered.T[::-1])
    raw, ordered, simplices, tables = raw[order], ordered[order], [], []
    for k in range(dim + 1):
        combos = list(itertools.combinations(range(dim + 1), k + 1))
        rows = ordered[:, combos].reshape(-1, k + 1)
        # mixed-radix row codes sort as the rows do (the int64 bound of _ids_of)
        _, first, inverse = np.unique(np.ravel_multi_index(rows.T, (n_vertices,) * (k + 1)),
                                      return_index=True, return_inverse=True)
        simplices.append(rows[first])
        tables.append(inverse.reshape(len(raw), len(combos)))
    if len(simplices[0]) != n_vertices:
        # isolated vertices are not part of the complex
        raise SlagError("every vertex must belong to some top simplex")
    if len(simplices[dim]) != len(raw):
        raise SlagError("duplicate top simplices")

    # boundary of the tops as given: row f holds the cofaces of face f in id order
    faces, input_orient = simplices[dim - 1], sort_sign(raw)
    facets = tables[dim - 1][:, ::-1].ravel()  # column i: the face without vertex i
    signs = ((-1) ** np.arange(dim + 1) * input_orient[:, None]).ravel()
    top_bd = sp.csr_matrix((signs, (facets, np.repeat(np.arange(len(raw)), dim + 1))),
                           shape=(len(faces), len(raw)))
    counts = np.diff(top_bd.indptr)
    f = facets[np.argmax(counts[facets] > 2)]
    if counts[f] > 2:
        raise NonManifoldError(
            f"face {tuple(faces[f].tolist())} shared by {counts[f]} top simplices")
    orientation = _orientation(top_bd, input_orient)

    given = {tuple(sorted(f)): int(v) for f, v in dict(boundary_labels).items()}
    # a key of the wrong width or with an unknown vertex is no face
    fits = [len(f) == dim and all(0 <= v < n_vertices for v in f) for f in given]
    ids = np.full(len(given), -1)
    ids[fits] = _ids_of(faces, n_vertices, np.array(
        list(itertools.compress(given, fits)), dtype=np.int64).reshape(-1, dim))
    unknown = sorted(itertools.compress(given, (ids < 0) | (counts[ids] != 1)))
    if unknown:
        raise UnlabeledBoundaryError(f"labels given for non-boundary faces: {unknown[:3]}")
    missing = faces[(counts == 1) & ~np.isin(np.arange(len(faces)), ids)][:3].tolist()
    if missing:
        raise UnlabeledBoundaryError(f"unlabeled boundary faces: {list(map(tuple, missing))}")
    for f, v in given.items():
        if v < 1:
            raise UnlabeledBoundaryError(f"label for {f} must be >= 1, got {v}")
    labels = np.zeros(len(faces), dtype=np.int64)
    labels[ids] = list(given.values())

    mesh = SimplicialMesh(dim, n_vertices, tuple(simplices), orientation, labels, tuple(tables))
    _validate_boundary_components(mesh)
    return mesh


def _ids_of(simplices: np.ndarray, n_vertices: int, rows: np.ndarray) -> np.ndarray:
    """Positions in `simplices` (lexicographic rows of sorted vertex ids) of
    `rows`, sorted ids below n_vertices, or -1: binary search on mixed-radix row
    codes, which must fit in int64, gives an insertion index for an absent row."""
    shape = (n_vertices,) * simplices.shape[1]
    codes = np.ravel_multi_index(simplices.T, shape)
    ids = np.minimum(np.searchsorted(codes, np.ravel_multi_index(rows.T, shape)),
                     len(simplices) - 1)
    return np.where((simplices[ids] == rows).all(axis=1), ids, -1)


def sort_sign(rows: np.ndarray) -> np.ndarray:
    """Sign (+1/-1) of the permutation that sorts each row of distinct integers."""
    i, j = np.triu_indices(rows.shape[1], 1)
    return 1 - 2 * ((rows[:, i] > rows[:, j]).sum(axis=1) % 2)


def _components(n_nodes: int, ends: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of the graph with edge rows `ends`."""
    graph = sp.coo_matrix((np.ones(len(ends)), tuple(ends.T)), shape=(n_nodes, n_nodes))
    return connected_components(graph, directed=False)[1]


def _orientation(top_bd: sp.csr_matrix, input_orient: np.ndarray) -> np.ndarray:
    """Flags making the orientations induced on every interior face cancel.

    top_bd is the signed boundary of the tops as given.  In the orientation
    double cover, node t is top t as given and node t + N is t flipped; two
    tops on an interior face join t1 to t2 if, as given, they induce opposite
    orientations there, else t1 to t2 + N.  No orientation exists if a top
    shares a component with its flip; else each component keeps the input
    orientation of its lowest-id top.
    """
    n = top_bd.shape[1]
    start = top_bd.indptr[:-1][np.diff(top_bd.indptr) == 2]
    t1, t2 = top_bd.indices[start], top_bd.indices[start + 1]
    shift = n * (top_bd.data[start] == top_bd.data[start + 1])
    comp = _components(2 * n, np.c_[np.r_[t1, t1 + n], np.r_[t2 + shift, t2 + n - shift]])
    if np.any(comp[:n] == comp[n:]):
        raise NonOrientableError("no consistent orientation exists")
    lowest = np.unique(comp, return_index=True)[1][comp]
    return np.where(lowest[:n] < lowest[n:], input_orient, -input_orient)


def _validate_boundary_components(mesh: SimplicialMesh) -> None:
    face_ids = mesh.boundary_face_ids()
    labels, d, n = mesh.boundary_labels[face_ids], mesh.n_components, mesh.dim
    used = np.unique(labels).tolist()
    if used != list(range(1, d + 1)):
        raise UnlabeledBoundaryError(f"labels must be exactly 1..d, got {used}")
    # a boundary face joins its (n-2)-faces, or is a point of a curve's boundary
    faces = mesh.simplices[n - 1][face_ids]
    subs = np.stack([mesh.simplex_ids(n - 2, faces[:, list(c)]) for c in
                     itertools.combinations(range(n), n - 1)], axis=1) if n > 1 else faces
    ends = np.c_[np.repeat(subs[:, 0], n - 1), subs[:, 1:].ravel()]
    comp = _components(mesh.n_simplices(max(n - 2, 0)), ends)[subs[:, 0]]
    n_comp = len(np.unique(comp))
    if n_comp != d:
        raise UnlabeledBoundaryError(f"boundary has {n_comp} connected components but {d} labels")
    pairs = np.unique(np.stack([comp, labels], axis=1), axis=0)
    if len(pairs) != n_comp:
        first = comp[np.argmax(np.bincount(pairs[:, 0])[comp] > 1)]
        raise UnlabeledBoundaryError(
            f"one boundary component carries labels {pairs[pairs[:, 0] == first, 1].tolist()}")


# -- ranks: graphs by components, the rest over GF(p) ---------------------------------


def _graph_rank(n_nodes: int, ends: np.ndarray) -> int:
    """Rank of a multigraph's incidence matrix over any field: the edge count of
    a spanning forest, i.e. nodes minus components.  A self-loop joins nothing.

    Deleting the row of one node per component (a ground node) keeps the rank.
    """
    return n_nodes - len(np.unique(_components(n_nodes, ends)))


def _rank_mod_p(mat: sp.spmatrix) -> int:
    """Rank over GF(p), p = _PRIME, by incremental column reduction with lowest-row pivots."""
    p = _PRIME
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


def relative_cycle_basis(mesh: SimplicialMesh) -> CycleBasis:
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
    return _basis(1, *_cycle_generators(mesh, ids, mesh._merged_edges()[ids],
                                        [mesh.n_vertices]), m, "relative cycles")


def absolute_cycle_basis(mesh: SimplicialMesh) -> CycleBasis:
    """Closed (n-1)-chains spanning the top-but-one homology (dim <= 2)."""
    m = mesh.betti_profile().betti[mesh.dim - 1]
    if mesh.dim == 1:
        # one generator per connected component (scipy labels them in the order
        # of their lowest vertex): its lowest interior vertex, else its lowest
        # vertex; its dual is the indicator of the component
        comp = _components(mesh.n_vertices, mesh.simplices[1])
        dual = (comp[:, None] == np.arange(comp.max() + 1)).astype(np.int64)
        interior = dual.astype(bool) & ~mesh._in_boundary[0][:, None]
        first = np.where(interior.any(axis=0), interior.argmax(axis=0), dual.argmax(axis=0))
        chains = np.zeros_like(dual)
        chains[first, np.arange(dual.shape[1])] = 1
        return _basis(0, chains, dual, m, "0-cycles")
    if mesh.dim != 2:
        raise SlagError("absolute cycle basis implemented for dim <= 2")
    return _basis(1, *_cycle_generators(mesh, np.arange(mesh.n_simplices(1)),
                                        mesh.simplices[1], []), m, "cycles")


def _basis(degree: int, chains: np.ndarray, dual: np.ndarray, m: int, what: str) -> CycleBasis:
    if chains.shape[1] != m:
        raise RankDeficientError(f"found {chains.shape[1]} {what}, expected {m}")
    return CycleBasis(degree, chains, dual)


def _cycle_generators(mesh: SimplicialMesh, eids: np.ndarray, ends: np.ndarray, roots):
    """The fundamental cycles of a BFS forest that are independent modulo
    2-boundaries, by tree-cotree decomposition, and the cocycles dual to them.

    eids: ascending edge ids; ends: their (a, b) end nodes, vertex ids or the
    merged boundary node n_vertices; a -> b counts +1.  The forest searches
    the graph subdivided at each edge, node n_vertices + 1 + i for edge i, so
    a node meets its edges in ascending id, and a parallel edge or self-loop
    is a node of its own; `roots` come first (`_search_forest`).

    The dual graph joins triangles, or a triangle and the ground node, across
    each edge (`_dual_edges`); a curve has none.  The cotree is the forest
    that Kruskal's algorithm grows in the dual graph from the non-tree edges
    in descending id (`_cotree`); the generators are the remaining non-tree
    edges in ascending id.  A cycle is fixed by its non-tree coefficients, so
    this is the lexicographically first complement of the dual graph's
    (regular, hence field-independent) matroid on the non-tree edges: the same
    cycles, signs and order that greedy elimination of candidates in
    ascending id keeps.

    Returns two (N_1, g) integer arrays with a column for every generator, so
    that `_basis` sees a surplus as well as a shortfall: column j of the
    first is cycle j; column j of the second is 1 on generator j and 0 on the
    tree, on the
    other generators and on every edge outside eids, with cotree values fixed
    by closedness (Erickson & Whittlesey, SODA 2005), so its period over
    cycle k is delta_jk.
    """
    n, k = mesh.n_vertices + 1, len(eids)
    _, pred = _search_forest(n + k, ends.T.ravel(), np.tile(np.arange(n, n + k), 2), roots)
    child = np.nonzero(pred[:n] >= n)[0]
    edge, parent = pred[child] - n, pred[pred[child]]  # parent edge positions and nodes
    up_edge, up_node, up_sign = np.full(n, -1), np.full(n, -1), np.zeros(n, dtype=np.int64)
    up_edge[child], up_node[child] = eids[edge], parent
    up_sign[child] = np.where(ends[edge, 0] == parent, 1, -1)
    non_tree = np.delete(np.arange(k), edge)
    cotree = _cotree(mesh, eids[non_tree[::-1]]) if mesh.dim == 2 else eids[:0]
    gens = non_tree[~np.isin(eids[non_tree], cotree)]
    dual = np.zeros((mesh.n_simplices(1), len(gens)), dtype=np.int64)
    dual[eids[gens], np.arange(len(gens))] = 1
    if len(cotree) and len(gens):
        _close_over_cotree(mesh, dual, cotree)
    chains, walk = np.zeros_like(dual), (up_edge.tolist(), up_node.tolist(), up_sign.tolist())
    for column, e, (a, b) in zip(chains.T, eids[gens].tolist(), ends[gens].tolist()):
        _fundamental_cycle(column, *walk, e, a, b)
    return chains, dual


def _search_forest(n_nodes: int, tails: np.ndarray, heads: np.ndarray, roots):
    """Breadth-first forest of the undirected graph with edges (tails, heads).

    Each component is searched from its first node in `roots`, else from its
    lowest node, and every node's neighbours in ascending id.  One search
    from a super-root joined to each start runs them all.  Returns the nodes
    in search order and each node's predecessor, -1 at the starts.
    """
    rows, cols = np.r_[tails, heads], np.r_[heads, tails]
    cols = cols[np.lexsort((cols, rows))]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n_nodes))]
    graph = sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n_nodes, n_nodes))
    comp = connected_components(graph, directed=False)[1]
    start = np.unique(comp, return_index=True)[1]
    roots = np.asarray(roots, dtype=np.int64)[::-1]  # the first root of a component wins
    start[comp[roots]] = roots
    graph = sp.csr_matrix((np.ones(len(cols) + len(start)), np.r_[cols, start],
                           np.r_[indptr, indptr[-1] + len(start)]), shape=(n_nodes + 1,) * 2)
    order, pred = breadth_first_order(graph, n_nodes, directed=True, return_predecessors=True)
    return order[1:], np.where(pred[:n_nodes] == n_nodes, -1, pred[:n_nodes])


def _cotree(mesh: SimplicialMesh, order: np.ndarray) -> np.ndarray:
    """Edge ids of the forest that Kruskal's algorithm grows in the dual graph
    from the edges in `order`.

    With weight 1 + position in `order` the weights are distinct, so that
    forest is the unique minimum spanning forest.  Of parallel dual edges only
    the first in `order` can join two classes, so only it is kept.
    """
    size = mesh.n_simplices(2) + 1
    codes = np.ravel_multi_index(np.sort(mesh._dual_edges()[order], axis=1).T, (size, size))
    codes, first = np.unique(codes, return_index=True)
    indptr = np.searchsorted(codes, np.arange(size + 1) * size)
    graph = sp.csr_matrix((first + 1.0, codes % size, indptr), shape=(size, size))
    return order[minimum_spanning_tree(graph).data.astype(np.int64) - 1]


def _close_over_cotree(mesh: SimplicialMesh, dual: np.ndarray, cotree: np.ndarray) -> None:
    """Fill the cotree rows of `dual` so that its coboundary vanishes.

    Each cotree component is rooted at the ground node where it reaches it,
    else at its lowest triangle.  Each other triangle, in breadth-first
    order, gives one equation (d dual)_t = 0 in its parent and child edges:
    an upper triangular system with +-1 on the diagonal, whose one solve
    gives integers, exact in float64.  A root triangle's equation is the sum
    of the others in its component, which the final check confirms.
    """
    ground = mesh.n_simplices(2)
    ends = mesh._dual_edges()[cotree]
    order, pred = _search_forest(ground + 1, *ends.T, [ground])
    rank = np.argsort(order)  # the inverse permutation
    child = np.where(pred[ends[:, 0]] == ends[:, 1], ends[:, 0], ends[:, 1])
    by_rank = np.argsort(rank[child])
    child, cotree = child[by_rank], cotree[by_rank]
    rows = mesh.coboundary_operator(1)[child]
    solved = spsolve_triangular(rows[:, cotree].astype(float), -(rows @ dual), lower=False)
    dual[cotree] = np.rint(solved).astype(np.int64)
    if np.any(mesh.coboundary_operator(1) @ dual):
        raise RankDeficientError("cycle-dual cochains are not closed")


def _fundamental_cycle(column, up_edge, up_node, up_sign, eid, a, b) -> None:
    """Write into the zero `column` the non-tree edge a -> b closed by the
    forest paths b -> root -> a.  Node v hangs from up_node[v] by edge
    up_edge[v] (-1 at a root), traversed up_node[v] -> v in direction up_sign[v]."""
    column[eid] = 1
    for v, sign in ((b, 1), (a, -1)):
        while up_edge[v] >= 0:
            column[up_edge[v]] -= sign * up_sign[v]
            v = up_node[v]


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
    dim = data.get("dim")
    for what, values in (("vertices", [n_vertices]), ("dim", [] if dim is None else [dim]),
                         ("vertex ids", [v for row in [*tops, *labels] for v in row]),
                         ("labels", labels.values())):
        bad = [v for v in values if type(v) is not int]  # a bool is no integer here
        if bad:
            raise SlagError(f"{what}: {bad[0]!r} is not an integer")
    return build_mesh(n_vertices, tops, labels, dim=dim)
