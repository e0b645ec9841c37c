"""Piecewise-linear immersions with constrained boundary components.

Vertex positions are stored as continuous lifts in R^{2n}; on a torus target
the per-simplex edge frame is built with the minimal-image convention, which
is exact as long as every simplex is smaller than half the lattice spacing
(validated).  All form pullbacks are exact integrals of constant forms over
affine simplices, so the verification chain carries no quadrature error.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientModel
from .dec import MetricField
from .errors import (
    DegenerateSimplexError,
    LabelViolationError,
    NotAutomorphismError,
    SlagError,
)
from .meshes import SimplicialMesh, sort_sign

@dataclass
class Immersion:
    mesh: SimplicialMesh
    positions: np.ndarray  # (V, 2n) continuous lifts

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.shape[0] != self.mesh.n_vertices:
            raise SlagError("positions do not match vertex count")

    def simplex_frames(self, model: AmbientModel, k: int) -> np.ndarray:
        """(N_k, k, 2n) lifted edge vectors of every canonical k-simplex."""
        frames, too_large = wrapped_frames(model, self.mesh, self.positions, (k,))[k]
        if too_large:
            raise DegenerateSimplexError(TOO_LARGE_TO_LIFT)
        return frames


TOO_LARGE_TO_LIFT = "simplex too large for minimal-image lifting on the torus"


def wrapped_frames(model: AmbientModel, mesh: SimplicialMesh, positions: np.ndarray,
                   degrees) -> dict:
    """{k: (frames, too_large)} for each k in degrees, from one wrap of the edges.

    positions is (..., V, 2n), one immersion per leading index.  A k-simplex's
    frame (..., N_k, k, 2n) gathers its lifted edges (v0, vi); too_large masks
    the (...) immersions with a frame edge over half the shortest lattice
    vector, where the minimal-image lift cannot be trusted.
    """
    ends = mesh.simplices[1]
    edges = np.take(positions, ends[:, 1], axis=-2) - np.take(positions, ends[:, 0], axis=-2)
    too_long = np.zeros(edges.shape[:-1], dtype=bool)
    if model.lattice is not None:
        edges = model.wrap_displacement(edges)
        too_long = np.einsum("...a,...a->...", edges, edges) > model.lift_limit * model.lift_limit
    # an edge is its own frame, so degree 1 is a view of the wrapped edges
    return {k: (edges[..., None, :], too_long.any(axis=-1)) if k == 1 else
            (np.take(edges, mesh.edge_table(k), axis=-2),
             np.take(too_long, mesh.edge_table(k), axis=-1).any(axis=(-2, -1)))
            for k in degrees}


def _gram_volumes(frames: np.ndarray, g: np.ndarray):
    """sqrt det G and 1 / tr G^-1, within a factor k below G's smallest eigenvalue, for the
    Gram matrix G of every (..., k, 2n) frame under g; closed forms for k <= 2.

    a*c - b*b cancels to about eps * a * c, so on a thin frame det is a times the
    squared length of the second row's residual off the first: a collinear frame
    reads at the rounding of its entries, as the SVD does."""
    k, tiny = frames.shape[-2], np.finfo(float).tiny
    fg = (frames.reshape(-1, frames.shape[-1]) @ g).reshape(frames.shape)
    if k > 2:
        s = np.linalg.svd(frames @ np.linalg.cholesky(g), compute_uv=False)
        with np.errstate(divide="ignore"):  # a zero singular value gives 1 / inf = 0
            harmonic = 1.0 / (1.0 / s ** 2).sum(axis=-1)
        return np.sqrt(np.abs(np.linalg.det(fg @ np.swapaxes(frames, -1, -2)))), harmonic
    gram = lambda i, j: np.einsum("...a,...a->...", fg[..., i, :], frames[..., j, :])
    a = gram(0, 0)
    if k == 1:
        return np.sqrt(np.abs(a)), a
    b, c = gram(0, 1), gram(1, 1)
    det, trace = np.abs(a * c - b ** 2), a + c
    harmonic = det / np.maximum(trace, tiny)
    thin = harmonic <= 1e-4 * trace  # where a*c - b*b may have lost 4 of 16 digits
    if thin.any():
        pair = frames[thin]
        off = pair[:, 1] - (b[thin] / np.maximum(a[thin], tiny))[:, None] * pair[:, 0]
        det[thin] = a[thin] * np.einsum("ta,ta->t", off @ g, off)
        harmonic[thin] = det[thin] / np.maximum(trace[thin], tiny)
    return np.sqrt(det), harmonic


# -- pullbacks -----------------------------------------------------------------------


def pullback_metric(model: AmbientModel, immersion: Immersion) -> MetricField:
    """Per-top-simplex Gram matrix of image edge vectors under g."""
    frames = immersion.simplex_frames(model, immersion.mesh.dim)
    g = model.metric_matrix()
    gram = np.einsum("tia,ab,tjb->tij", frames, g, frames)
    try:
        return MetricField(immersion.mesh, gram)
    except Exception as exc:
        raise DegenerateSimplexError(f"pullback metric degenerate: {exc}") from exc


# -- validation ------------------------------------------------------------------------


_SPANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # mesh -> {key: spans}


def boundary_spans(mesh: SimplicialMesh, lagrangians) -> list:
    """The boundary Lagrangians as `validate` reads them: one (projector off the span,
    boundary vertices, their basepoints, tops of boundary faces) per distinct span,
    gathered once per mesh and Lagrangians (an immutable mesh keeps them while it lives)."""
    key = tuple((lam.index, np.asarray(lam.basepoint, dtype=float).tobytes(),
                 lam.normal_projector.tobytes()) for lam in lagrangians)
    gathers = _SPANS.setdefault(mesh, {})
    if key not in gathers:
        by_index = {lam.index: lam for lam in lagrangians}
        groups: dict = {}  # projector bytes -> the components whose Lagrangians share it
        for c in range(1, mesh.n_components + 1):
            if c not in by_index:
                raise SlagError(f"no boundary Lagrangian supplied for component {c}")
            groups.setdefault(by_index[c].normal_projector.tobytes(), []).append(c)
        comp, table = mesh.boundary_component_of_vertex(), mesh.face_table(mesh.dim - 1)
        tops, slots = np.nonzero(mesh.boundary_labels[table] > 0)  # one coface per boundary face
        labels = mesh.boundary_labels[table[tops, slots]]
        gathers[key] = []
        for members in groups.values():
            vertices = np.flatnonzero(np.isin(comp, members))
            gathers[key].append((by_index[members[0]].normal_projector, vertices,
                                 np.array([by_index[c].basepoint for c in comp[vertices]]),
                                 tops[np.isin(labels, members)]))
    return gathers[key]


def validate(model: AmbientModel, spans: list, positions: np.ndarray, top: np.ndarray,
             two: np.ndarray | None) -> np.ndarray:
    """Per-sample validity of a block of (..., V, 2n) positions, from the frames of its top
    and 2-simplices (two is None on curves) and the mesh's `boundary_spans`.

    Returns a (5, ...) array, one row per measure: the Lagrangian and special
    residuals (volume-normalized sups of the symplectic and calibration pullbacks);
    the containment (the largest lattice-aware distance of a boundary vertex from its
    Lagrangian); the immersion margin (the smallest 1 / sqrt(tr G^-1) of a top frame's
    Gram matrix G under g, zero exactly on a degenerate simplex); and the
    transversality margin (the smallest Frobenius norm of a boundary top's frame
    projected off its Lagrangian's span, zero exactly where the two are tangent).
    """
    n, g = top.shape[-2], model.metric_matrix()
    vols, harmonic = _gram_volumes(top, g)
    vols = np.maximum(vols / math.factorial(n), 1e-300)
    out = np.zeros((5,) + vols.shape[:-1])
    if two is not None:
        # on surfaces the 2-simplices are the top simplices, whose areas are the volumes above
        areas = vols if two is top else np.maximum(_gram_volumes(two, g)[0] / 2.0, 1e-300)
        out[0] = np.max(np.abs(model.omega(two)) / 2.0 / areas, axis=-1)
    out[1] = np.max(np.abs(model.im_omega_hat(top)) / math.factorial(n) / vols, axis=-1)
    out[3], out[4] = harmonic.min(axis=-1), np.inf  # squares until the root
    for normal, vertices, basepoints, tops in spans:
        rel = model.wrap_displacement(np.take(positions, vertices, axis=-2) - basepoints)
        off = (rel.reshape(-1, rel.shape[-1]) @ normal).reshape(rel.shape)
        np.maximum(out[2], np.einsum("...a,...a->...", off, off).max(-1), out=out[2])
        frames = np.take(top, tops, axis=-3)
        off = (frames.reshape(-1, frames.shape[-1]) @ normal).reshape(frames.shape)
        np.minimum(out[4], np.einsum("...ia,...ia->...", off, off).min(-1), out=out[4])
    np.sqrt(out[2:], out=out[2:])
    return out


# -- reparametrization ---------------------------------------------------------------


def check_automorphism(mesh: SimplicialMesh, psi: np.ndarray) -> None:
    psi = np.asarray(psi, dtype=int)
    if psi.shape != (mesh.n_vertices,) or sorted(psi.tolist()) != list(range(mesh.n_vertices)):
        raise NotAutomorphismError("psi must be a permutation of the vertex ids")
    tops = mesh.simplices[mesh.dim]
    lost = mesh.simplex_ids(mesh.dim, np.sort(psi[tops], axis=1)) < 0
    if lost.any():
        raise NotAutomorphismError(
            f"psi does not map simplex {tuple(tops[np.argmax(lost)].tolist())} to a simplex")
    ids = mesh.boundary_face_ids()
    labels = mesh.boundary_labels
    image = mesh.simplex_ids(mesh.dim - 1, np.sort(psi[mesh.simplices[mesh.dim - 1][ids]], axis=1))
    moved = (image < 0) | (labels[image] != labels[ids])
    if moved.any():
        raise LabelViolationError(
            f"psi moves a boundary face of component {int(labels[ids[np.argmax(moved)]])} "
            "off its component"
        )


def reparametrize(immersion: Immersion, psi) -> Immersion:
    """Compose with a simplicial automorphism: new position at v is the old one at psi(v)."""
    psi = np.asarray(psi, dtype=int)
    check_automorphism(immersion.mesh, psi)
    return Immersion(immersion.mesh, immersion.positions[psi])


def permutation_on_cochains(mesh: SimplicialMesh, psi: np.ndarray, degree: int):
    """Signed permutation implementing the cochain pullback along psi.

    Returns (indices, signs) with (psi^* a)[s] = signs[s] * a[indices[s]].
    """
    image = np.asarray(psi, dtype=int)[mesh.simplices[degree]]
    idx = mesh.simplex_ids(degree, np.sort(image, axis=1))
    if np.any(idx < 0):
        raise NotAutomorphismError(f"psi does not map every {degree}-simplex to a simplex")
    return idx, sort_sign(image).astype(float)


# -- families ----------------------------------------------------------------------------


class ImmersionFamily:
    """Parameter-dependent vertex positions with exact directional velocities.

    Wraps either two Python callables on parameter arrays or a closed-form
    CoordinateMap applied to a base immersion.  `positions(u, vertices)` maps
    (..., m) points of R^m to the lifts of the given vertices there, an index
    array or a slice (all V by default), as (..., len(vertices), 2n); it
    evaluates only those vertices.  `velocity(u, w)` maps (..., m) points and
    directions to the (..., V, 2n) derivatives along w.
    """

    def __init__(self, mesh: SimplicialMesh, n_params: int, positions_fn, velocity_fn):
        self.mesh = mesh
        self.n_params = n_params
        self._positions = positions_fn
        self._velocity = velocity_fn

    @classmethod
    def from_expressions(cls, base: Immersion, n: int, exprs: dict, parameters,
                         constants=None) -> "ImmersionFamily":
        """Closed-form family from coordinate expressions; the only path that loads sympy."""
        from .expressions import CoordinateMap

        cmap = CoordinateMap(exprs, n, list(parameters), constants)
        base_pos = base.positions
        return cls(base.mesh, len(cmap.parameters),
                   lambda u, vertices: cmap.positions(base_pos[vertices], u),
                   lambda u, w: cmap.velocity(base_pos, u, w))

    @classmethod
    def translation(cls, base: Immersion, directions) -> "ImmersionFamily":
        """Rigid motions: positions + sum_i u_i * direction_i.

        A direction is a 2n-vector, or a (V, 2n) field for a motion linear in u.
        """
        directions = [np.asarray(d, dtype=float) for d in directions]
        base_pos = base.positions

        def moved(out, u, vertices=slice(None)):
            for i, d in enumerate(directions):
                out = out + u[..., i, None, None] * (d if d.ndim == 1 else d[vertices])
            return out

        return cls(base.mesh, len(directions),
                   lambda u, vertices: moved(base_pos[vertices], u, vertices),
                   lambda u, w: moved(np.zeros(w.shape[:-1] + base_pos.shape), w))

    def _points(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape[-1] != self.n_params:
            raise SlagError(f"family expects {self.n_params} parameters, got shape {u.shape}")
        return u

    def positions(self, u, vertices=slice(None)) -> np.ndarray:
        return self._positions(self._points(u), vertices)

    def velocity(self, u, direction) -> np.ndarray:
        return self._velocity(self._points(u), self._points(direction))
