"""Flux chart maps, affine transition fits, and the embedding diagnostics.

Writing R(u) and S(u) for the period vectors of the two fluxes along the
straight parameter path from the basepoint to u, the chart data of a family
is the pair (R, S).  The duality matrix P pairs the cohomology bases dual to
the chosen cycle bases; `pairing_structure` changes the absolute basis by
the integer matrix P, so that the pairing is the identity and the product
space carries the coordinate forms

    B = sum du_j dv_j      (indefinite symmetric)
    W = sum du_j ^ dv_j    (symplectic)

with u = R and v = S.  Pulled back along (R, S), B reproduces the L^2 Gram
matrix of the tangent one-forms, W vanishes, and v is the gradient of a
scalar potential of u, fitted here by least squares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientModel
from .dec import Cochain, HodgeStructure, hodge_star, period_matrix
from .errors import InsufficientSamplesError, SingularJacobianError, SlagError
from .flux import ImmersionPath, path_fluxes, tangent_one_form
from .immersion import ImmersionFamily
from .meshes import CycleBasis

_JACOBIAN_STEP = 1e-3     # central-difference step of chart_jacobian, halved once
_JACOBIAN_SAMPLES = 17    # time samples of each chart that chart_jacobian differences
_POTENTIAL_DEGREE = 4     # top degree of the monomials in hessian_fit's potential


@dataclass
class ChartSample:
    u: np.ndarray
    R: np.ndarray
    S: np.ndarray


@dataclass
class PairingStructure:
    """Integer duality pairing of the cycle-dual cohomology bases.

    P[j, k] is the integral over the fundamental class of a_j ^ b_k, where
    a_j = rel.dual[:, j] and b_k = ab.dual[:, k] are the integer cocycles with
    periods delta over the relative and absolute cycles.  Their Whitney forms
    are closed and the wedge integral obeys Stokes exactly, so P depends only
    on the cohomology classes: an integer up to roundoff, certified and
    rounded.  Duality over the integers makes P unimodular, with integer
    inverse Q; `absolute` is the absolute basis with chains C P^T and duals
    D Q, whose pairing with the relative duals is the identity.
    """

    P: np.ndarray
    certification_residual: float
    absolute: CycleBasis


def pairing_structure(structure: HodgeStructure, rel_cycles: CycleBasis,
                      abs_cycles: CycleBasis) -> PairingStructure:
    raw = rel_cycles.dual.T @ (structure.wedge_matrix(1) @ abs_cycles.dual)
    P = np.round(raw)
    residual = float(np.abs(raw - P).max())
    if not residual <= 1e-6:  # a NaN fails
        raise SlagError(f"duality pairing failed integer certification ({residual:.2e})")
    P = P.astype(np.int64)
    Q = np.round(np.linalg.pinv(P)).astype(np.int64)
    if not np.array_equal(P @ Q, np.eye(len(P), dtype=np.int64)):
        raise SlagError(f"duality pairing {P.tolist()} has no integer inverse; "
                        "the cycle bases do not pair over the integers")
    absolute = CycleBasis(abs_cycles.degree, abs_cycles.chains @ P.T, abs_cycles.dual @ Q)
    return PairingStructure(P, residual, absolute)


# -- chart evaluation ------------------------------------------------------------------


def evaluate_chart(
    model: AmbientModel,
    family: ImmersionFamily,
    u,
    rel_cycles: CycleBasis,
    abs_cycles: CycleBasis,
    n_samples: int = 33,
    base_shift=0.0,
) -> ChartSample:
    """Both flux period vectors along the straight parameter path 0 -> u.

    base_shift moves the chart basepoint: the path runs from base_shift to
    base_shift + u through the same family.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.any(np.abs(u) > 0):
        m = rel_cycles.m
        return ChartSample(u, np.zeros(m), np.zeros(m))
    path = ImmersionPath.straight(family, u, n_samples, start=base_shift)
    rf, sf = path_fluxes(model, path, rel_cycles, abs_cycles)
    return ChartSample(u, rf.period_vector, sf.period_vector)


def tangent_cochains(model: AmbientModel, family: ImmersionFamily,
                     directions=None) -> list[Cochain]:
    """Tangent one-form cochains of the given directions (default: coordinates) at 0."""
    dirs = np.eye(family.n_params) if directions is None else np.asarray(directions, dtype=float)
    return [tangent_one_form(model, ImmersionPath.straight(family, d, 3), 0) for d in dirs]


@dataclass
class JacobianReport:
    dR: np.ndarray
    dS: np.ndarray
    dR_expected: np.ndarray
    dS_expected: np.ndarray
    dR_error: float
    dS_error: float


def chart_jacobian(
    model: AmbientModel,
    family: ImmersionFamily,
    structure: HodgeStructure,
    rel_cycles: CycleBasis,
    abs_cycles: CycleBasis,
) -> JacobianReport:
    """Central-difference Jacobians of (R, S) at 0 against their period-matrix predictions.

    dR columns should be the periods of the coordinate tangent one-forms over
    the relative cycles; dS columns the periods of their discrete stars over
    the absolute cycles.  The step _JACOBIAN_STEP is halved once and the
    fourth-order extrapolation (4 J_{h/2} - J_h) / 3 is returned.
    """

    def central(h):
        dR = np.zeros((rel_cycles.m, family.n_params))
        dS = np.zeros((abs_cycles.m, family.n_params))
        for i in range(family.n_params):
            e = np.zeros(family.n_params)
            e[i] = h
            plus = evaluate_chart(model, family, e, rel_cycles, abs_cycles, _JACOBIAN_SAMPLES)
            minus = evaluate_chart(model, family, -e, rel_cycles, abs_cycles, _JACOBIAN_SAMPLES)
            dR[:, i] = (plus.R - minus.R) / (2 * h)
            dS[:, i] = (plus.S - minus.S) / (2 * h)
        return dR, dS

    dR, dS = central(_JACOBIAN_STEP)
    dR2, dS2 = central(_JACOBIAN_STEP / 2)
    dR = (4 * dR2 - dR) / 3
    dS = (4 * dS2 - dS) / 3
    thetas = tangent_cochains(model, family)
    dR_expected = period_matrix(thetas, rel_cycles)
    stars = [hodge_star(structure, th) for th in thetas]
    dS_expected = period_matrix(stars, abs_cycles)
    svals = np.linalg.svd(dR, compute_uv=False)
    if dR.shape[0] != dR.shape[1] or svals[-1] <= svals[0] / 1e12:
        raise SingularJacobianError(
            f"chart derivative is singular (shape {dR.shape}, "
            f"singular values {svals}); family directions do not span the tangent space"
        )
    return JacobianReport(
        dR, dS, dR_expected, dS_expected,
        dR_error=float(np.abs(dR - dR_expected).max()),
        dS_error=float(np.abs(dS - dS_expected).max()),
    )


# -- affine transition fits ---------------------------------------------------------------


@dataclass
class AffineFit:
    A: np.ndarray
    b: np.ndarray
    residual: float      # rms residual / rms spread of the target data
    det: np.ndarray

    @property
    def volume_defect(self) -> float:
        return abs(float(self.det) - 1.0)


def transition_affine_fit(samples_1, samples_2, coordinate: str = "R") -> AffineFit:
    """Least-squares affine map from chart-1 to chart-2 coordinates.

    Needs at least m+1 affinely independent shared parameter points.
    """
    x = np.stack([getattr(s, coordinate) for s in samples_1])
    y = np.stack([getattr(s, coordinate) for s in samples_2])
    npts, m = x.shape
    if npts < m + 1:
        raise InsufficientSamplesError(f"need at least {m + 1} samples, got {npts}")
    design = np.hstack([x, np.ones((npts, 1))])
    if np.linalg.matrix_rank(design, tol=1e-10 * max(1.0, np.abs(design).max())) < m + 1:
        raise InsufficientSamplesError("samples are affinely dependent")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    A = coef[:m].T
    b = coef[m]
    pred = design @ coef
    spread = np.linalg.norm(y - y.mean(axis=0))
    residual = float(np.linalg.norm(pred - y) / max(spread, 1e-30))
    return AffineFit(A, b, residual, np.linalg.det(A))


# -- grid-based embedding diagnostics --------------------------------------------------------


@dataclass
class GridSamples:
    """Chart samples over a regular parameter grid, used for finite differences."""

    shape: tuple
    spacing: np.ndarray
    u: np.ndarray  # (*shape, m)
    R: np.ndarray  # (*shape, m)
    S: np.ndarray  # (*shape, m)


def _lattice_walk(nodes: np.ndarray):
    """Parameter curve through the (K + 1, m) nodes: step k for K t in [k, k + 1].

    Each step follows s(tau) = 3 tau^2 - 2 tau^3, whose velocity vanishes at
    both ends, so a node between two steps in different directions has one
    velocity, zero.  That velocity is quadratic in tau, so a Simpson panel per
    step integrates a rigid family's flux exactly.  K t is taken to its
    nearest half step when within 1e-9 of it, so that every node and midpoint
    sample of the 2K + 1 sample grid sits exactly on its node or midpoint.
    Returns the curve and its derivative, as `ImmersionPath` takes them.
    """
    steps = np.diff(nodes, axis=0)
    n_steps = len(steps)

    def split(t):
        x = t * n_steps
        half = np.rint(2 * x) / 2
        x = np.where(np.abs(x - half) <= 1e-9, half, x)
        k = np.minimum(np.floor(x), n_steps - 1).astype(int)
        return k, (x - k)[:, None]

    def curve(t):
        k, tau = split(t)
        return nodes[k] + tau * tau * (3 - 2 * tau) * steps[k]

    def derivative(t):
        k, tau = split(t)
        return 6 * n_steps * tau * (1 - tau) * steps[k]

    return curve, derivative


def _boustrophedon(points: int, m: int) -> np.ndarray:
    """(points^m, m) lattice indices in which consecutive rows differ by one step on one axis.

    The reflected mixed-radix Gray code: the axis-i digit runs backwards
    whenever the digits of the axes before it sum to an odd number.
    """
    digits = np.indices((points,) * m).reshape(m, -1)
    before = np.zeros(digits.shape[1], dtype=int)
    for i in range(m):
        digits[i] = np.where(before % 2, points - 1 - digits[i], digits[i])
        before += digits[i]
    return digits.T


def sample_grid(
    model: AmbientModel,
    family: ImmersionFamily,
    rel_cycles: CycleBasis,
    abs_cycles: CycleBasis,
    radius: float = 0.1,
    points_per_axis: int = 5,
) -> GridSamples:
    """Chart samples on the points_per_axis^m lattice over [-radius, radius]^m, from one path.

    Flux is additive along concatenated paths, so the chart at a lattice point
    is the flux along any path to it from the basepoint 0.  One path walks
    the lattice in boustrophedon order, one Simpson panel per step
    (`_lattice_walk`), and the chart at each point is the walk's running
    period vector there minus its running period vector at the basepoint: the
    centre of an odd lattice, or the walk's first node, prepended, on an
    even one.
    """
    m = family.n_params
    axis = np.linspace(-radius, radius, points_per_axis)
    shape = (points_per_axis,) * m
    u = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1)
    lattice = tuple(_boustrophedon(points_per_axis, m).T)
    nodes = u[lattice]
    if points_per_axis % 2 == 0:
        nodes = np.concatenate([np.zeros((1, m)), nodes])
    base = np.abs(nodes).max(axis=1).argmin()
    path = ImmersionPath(family, *_lattice_walk(nodes), 2 * len(nodes) - 1)
    coords = []
    for flux in path_fluxes(model, path, rel_cycles, abs_cycles):
        # the running periods at every node: zero at the first, then at each panel's end
        running = np.vstack([np.zeros_like(flux.period_vector), flux.panel_periods()])
        values = np.empty(shape + flux.period_vector.shape)
        values[lattice] = (running - running[base])[-points_per_axis ** m:]
        coords.append(values)
    return GridSamples(shape, np.full(m, axis[1] - axis[0]), u, *coords)


def _grid_jacobians(grid: GridSamples):
    """Central-difference Jacobians Ju = dR and Jv = dS at the interior grid points.

    Returns Ju and Jv stacked as (points, m, m) in the C order of the interior,
    the slice selecting the interior, and the stack index of its centre, the
    point s // 2 on each axis of interior length s.
    """
    m = len(grid.spacing)
    inner = (slice(1, -1),) * m

    def d(values, i):
        up = inner[:i] + (slice(2, None),) + inner[i + 1:]
        dn = inner[:i] + (slice(None, -2),) + inner[i + 1:]
        return (values[up] - values[dn]) / (2 * grid.spacing[i])

    dR, dS = (np.stack([d(values, i) for i in range(m)], axis=-1) for values in (grid.R, grid.S))
    inner_shape = dR.shape[:-2]
    centre = int(np.ravel_multi_index([s // 2 for s in inner_shape], inner_shape))
    return dR.reshape(-1, *dR.shape[-2:]), dS.reshape(-1, *dS.shape[-2:]), inner, centre


@dataclass
class EmbeddingReport:
    B_gram: np.ndarray          # parameter-coordinate B Gram at the grid center
    W_max: float                # max |W| over all interior points and pairs


def pullback_BW(grid: GridSamples) -> EmbeddingReport:
    """Evaluate B and W on the grid tangents (R', S') by central differences."""
    Ju, Jv, _, centre = _grid_jacobians(grid)
    g = Ju.swapaxes(-1, -2) @ Jv
    W_max = float(np.abs(g - g.swapaxes(-1, -2)).max())
    return EmbeddingReport(0.5 * (g[centre] + g[centre].T), W_max)


def l2_gram(structure: HodgeStructure, tangents) -> np.ndarray:
    """Gram matrix of tangent one-forms in the mass inner product."""
    vals = np.stack([t.values for t in tangents], axis=1)
    return vals.T @ (structure.mass_matrix(1) @ vals)


# -- hessian potential ------------------------------------------------------------------------


@dataclass
class HessianFit:
    coefficients: np.ndarray
    monomials: np.ndarray        # (K, m) exponents, one row per fitted monomial
    symmetry_residual: float
    gradient_residual: float
    hessian: np.ndarray
    hessian_vs_B: float


def _monomials(m: int, degree: int) -> np.ndarray:
    """Exponents of the monomials of total degree 1..degree in m variables, (K, m)."""
    return np.array([[alpha.count(i) for i in range(m)]
                     for total in range(1, degree + 1)
                     for alpha in itertools.combinations_with_replacement(range(m), total)])


def _monomial_terms(u: np.ndarray, factor, exponents: np.ndarray) -> np.ndarray:
    """factor * prod_k u_k ** exponents[..., k], multiplied left to right.

    u is (..., m) and broadcasts against the (..., m) exponents.  A term with a
    negative exponent is the derivative of a monomial that lacks the variable: 0.
    """
    term = np.asarray(factor, dtype=float)
    for k in range(u.shape[-1]):
        term = term * u[..., k] ** np.maximum(exponents[..., k], 0)
    return np.where((exponents >= 0).all(axis=-1), term, 0.0)


def hessian_fit(grid: GridSamples) -> HessianFit:
    """Gradient-graph defect and least-squares potential for v(u)-coordinates.

    The dual coordinates v = S must be the gradient of a potential in the
    chart coordinates u = R; symmetry_residual is the largest relative
    asymmetry of dv/du over the interior points, and the fitted potential's
    Hessian is compared against the B Gram in u-coordinates.  Raises
    SingularJacobianError where dR cannot be inverted.
    """
    Ju, Jv, inner, centre = _grid_jacobians(grid)
    if np.any(np.linalg.cond(Ju) > 1e12):
        raise SingularJacobianError("chart coordinates degenerate on the grid")
    dvdu = Jv @ np.linalg.inv(Ju)
    defect = (np.abs(dvdu - dvdu.swapaxes(-1, -2)).max(axis=(1, 2))
              / np.maximum(np.abs(dvdu).max(axis=(1, 2)), 1e-30))
    sym_residual = float(defect.max())  # keeps a NaN

    m = Ju.shape[-1]
    E = _monomials(m, _POTENTIAL_DEGREE)
    eye = np.eye(m, dtype=int)
    us = grid.R[inner].reshape(-1, m)
    # row (point, i): d/du_i of every monomial at the point, against v_i there
    design = np.stack([_monomial_terms(us[:, None], E[:, i], E - eye[i]) for i in range(m)],
                      axis=1).reshape(-1, len(E))
    rhs = grid.S[inner].reshape(-1)
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    grad_residual = float(
        np.linalg.norm(design @ coef - rhs) / max(np.linalg.norm(rhs), 1e-30)
    )

    # d^2/du_i du_j of the fitted potential at the mean chart point, summed monomial by monomial
    i, j = np.indices((m, m))
    second = E[:, i] * (E[:, j] - eye[i, j])  # (K, m, m)
    hess = _monomial_terms(us.mean(axis=0), coef[:, None, None] * second,
                           E[:, None, None] - eye[i] - eye[j]).sum(axis=0)
    centre_dvdu = dvdu[centre]
    hess_vs_B = float(np.abs(hess - 0.5 * (centre_dvdu + centre_dvdu.T)).max())
    return HessianFit(coef, E, sym_residual, grad_residual, hess, hess_vs_B)


@dataclass
class AtlasReport:
    """Aggregated chart diagnostics for emission.

    transition_fits: mapping pair-label -> AffineFit; per-chart data holds the
    L2 Gram, the B Gram, the worst W value and the fitted potential, with
    hessian_vs_B, the gap |Hess phi - sym dv/du| at the grid centre between
    the potential's Hessian and the metric it should equal.
    """

    transition_fits: dict
    l2_gram: np.ndarray
    b_gram: np.ndarray
    w_max: float
    hessian: HessianFit

    def to_dict(self) -> dict:
        return {
            "transitions": {
                label: {
                    "A": fit.A.tolist(),
                    "b": fit.b.tolist(),
                    "residual": fit.residual,
                    "det": float(fit.det),
                }
                for label, fit in sorted(self.transition_fits.items())
            },
            "l2_gram": self.l2_gram.tolist(),
            "b_gram": self.b_gram.tolist(),
            "w_max": self.w_max,
            "hessian": {
                "coefficients": self.hessian.coefficients.tolist(),
                "monomials": self.hessian.monomials.tolist(),
                "symmetry_residual": self.hessian.symmetry_residual,
                "gradient_residual": self.hessian.gradient_residual,
                "hessian_vs_B": self.hessian.hessian_vs_B,
                "matrix": self.hessian.hessian.tolist(),
            },
        }

    def to_csv_rows(self) -> list:
        rows = ["record,label,value"]
        for label, fit in sorted(self.transition_fits.items()):
            rows.append(f"transition_residual,{label},{fit.residual!r}")
            rows.append(f"transition_det,{label},{float(fit.det)!r}")
        rows.append(f"w_max,,{self.w_max!r}")
        rows.append(f"hessian_symmetry,,{self.hessian.symmetry_residual!r}")
        rows.append(f"hessian_vs_B,,{self.hessian.hessian_vs_B!r}")
        return rows
