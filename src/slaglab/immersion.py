"""Piecewise-linear immersions with constrained boundary components.

Vertex positions are stored as continuous lifts in R^{2n}; on a torus target
the per-simplex edge frame is built with the minimal-image convention, which
is exact as long as every simplex is smaller than half the lattice spacing
(validated).  All form pullbacks are exact integrals of constant forms over
affine simplices, so the verification chain carries no quadrature error.
"""

from __future__ import annotations

import math
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

_VALIDATION_TOL = 1e-10  # bound on every margin and residual that ValidationReport.ok reads


@dataclass
class Immersion:
    mesh: SimplicialMesh
    positions: np.ndarray  # (V, 2n) continuous lifts
    label: str = ""

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


def calibration_residuals(model: AmbientModel, top: np.ndarray, two: np.ndarray | None):
    """Sup norms of the symplectic and calibration pullbacks, volume normalized.

    top holds the (..., N_n, n, 2n) frames of the top simplices and two the
    (..., N_2, 2, 2n) frames of the 2-simplices (None on curves).  Returns the
    Lagrangian and the special residual, each of shape (...).
    """
    n = top.shape[-2]
    g = model.metric_matrix()
    vols = np.maximum(_gram_volumes(top, g) / math.factorial(n), 1e-300)
    special = np.max(np.abs(model.im_omega_hat(top)) / math.factorial(n) / vols, axis=-1)
    if two is None:
        return np.zeros_like(special), special
    # on surfaces the 2-simplices are the top simplices, whose areas are the volumes above
    areas = vols if two is top else np.maximum(_gram_volumes(two, g) / 2.0, 1e-300)
    return np.max(np.abs(model.omega(two)) / 2.0 / areas, axis=-1), special


def _gram_volumes(frames: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sqrt |det| of the Gram matrix of every (..., k, 2n) frame under the metric g.

    One flat matmul applies g; the 1x1 and 2x2 determinants are closed forms.
    """
    k = frames.shape[-2]
    fg = (frames.reshape(-1, frames.shape[-1]) @ g).reshape(frames.shape)
    if k > 2:
        return np.sqrt(np.abs(np.linalg.det(fg @ np.swapaxes(frames, -1, -2))))
    gram = lambda i, j: np.einsum("...a,...a->...", fg[..., i, :], frames[..., j, :])
    det = gram(0, 0) if k == 1 else gram(0, 0) * gram(1, 1) - gram(0, 1) ** 2
    return np.sqrt(np.abs(det))


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


@dataclass
class ValidationReport:
    immersion_margin: float          # smallest singular value of any top frame
    boundary_distance: float         # worst containment distance f(C_i) -> Lambda_i
    transversality_margin: float     # smallest (n+1)-th singular value at the boundary
    lagrangian_residual: float       # max |omega over 2-simplex| / metric volume
    special_residual: float          # max |Im Omega-hat over top simplex| / metric volume

    @property
    def ok(self) -> bool:
        return (
            self.immersion_margin > _VALIDATION_TOL
            and self.boundary_distance <= _VALIDATION_TOL
            and self.transversality_margin > _VALIDATION_TOL
            and self.lagrangian_residual <= _VALIDATION_TOL
        )


def validate(model: AmbientModel, immersion: Immersion, lagrangians) -> ValidationReport:
    """Residual report for the immersion, boundary, transversality and calibration conditions."""
    mesh = immersion.mesh
    n = mesh.dim

    frames = {k: immersion.simplex_frames(model, k) for k in {n, min(n, 2)}}
    svals = np.linalg.svd(frames[n], compute_uv=False)
    immersion_margin = float(svals[:, -1].min())
    lag, special = calibration_residuals(model, frames[n], frames[2] if n >= 2 else None)

    by_comp = {lam.index: 0.0 for lam in lagrangians}
    lam_by_index = {lam.index: lam for lam in lagrangians}
    comp_of_vertex = mesh.boundary_component_of_vertex()
    for comp in range(1, mesh.n_components + 1):
        verts = np.nonzero(comp_of_vertex == comp)[0]
        lam = lam_by_index.get(comp)
        if lam is None:
            raise SlagError(f"no boundary Lagrangian supplied for component {comp}")
        dists = lam.distances(immersion.positions[verts], model)
        by_comp[comp] = float(dists.max()) if dists.size else 0.0
    boundary_distance = max(by_comp.values()) if by_comp else 0.0

    margins = []
    if n >= 1 and mesh.n_components:
        table = mesh.face_table(n - 1)
        tops, slots = np.nonzero(mesh.boundary_labels[table] > 0)  # one coface per boundary face
        labels = mesh.boundary_labels[table[tops, slots]]
        for label in np.unique(labels):
            span = lam_by_index[int(label)].span
            top_frames = frames[n][tops[labels == label]]
            spans = np.broadcast_to(span, (len(top_frames),) + span.shape)
            s = np.linalg.svd(np.concatenate([top_frames, spans], axis=1), compute_uv=False)
            margins.append(float(s[:, n].min()) if s.shape[1] > n else 0.0)
    trans = min(margins) if margins else float("nan")

    return ValidationReport(
        immersion_margin=immersion_margin,
        boundary_distance=boundary_distance,
        transversality_margin=trans,
        lagrangian_residual=float(lag),
        special_residual=float(special),
    )


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
    return Immersion(immersion.mesh, immersion.positions[psi], label=immersion.label)


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

    def __init__(self, mesh: SimplicialMesh, n_params: int, positions_fn, velocity_fn,
                 label: str = ""):
        self.mesh = mesh
        self.n_params = n_params
        self._positions = positions_fn
        self._velocity = velocity_fn
        self.label = label

    @classmethod
    def from_expressions(cls, base: Immersion, n: int, exprs: dict, parameters,
                         constants=None, label: str = "") -> "ImmersionFamily":
        """Closed-form family from coordinate expressions; the only path that loads sympy."""
        from .expressions import CoordinateMap

        cmap = CoordinateMap(exprs, n, list(parameters), constants)
        base_pos = base.positions
        return cls(base.mesh, len(cmap.parameters),
                   lambda u, vertices: cmap.positions(base_pos[vertices], u),
                   lambda u, w: cmap.velocity(base_pos, u, w), label=label)

    @classmethod
    def translation(cls, base: Immersion, directions, label: str = "") -> "ImmersionFamily":
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
                   lambda u, w: moved(np.zeros(w.shape[:-1] + base_pos.shape), w), label=label)

    def _points(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape[-1] != self.n_params:
            raise SlagError(f"family expects {self.n_params} parameters, got shape {u.shape}")
        return u

    def positions(self, u, vertices=slice(None)) -> np.ndarray:
        return self._positions(self._points(u), vertices)

    def velocity(self, u, direction) -> np.ndarray:
        return self._velocity(self._points(u), self._points(direction))
