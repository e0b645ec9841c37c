"""Tangent forms along paths of immersions and the two flux functionals.

For a path f_t the tangent one-form contracts the velocity into the ambient
symplectic form and pulls back; the dual (n-1)-form does the same with the
imaginary part of the unit-length top form.  Both are integrated exactly per
simplex (the integrand is affine in barycentric coordinates when the velocity
is piecewise linear), and in time by composite Simpson quadrature.

A path holds its parameter curve, not its samples.  `path_fluxes` computes
both fluxes in one pass over blocks of B samples, B bounded by a fixed budget
of top-simplex samples.  Per block it evaluates the family's (B, V, 2n)
positions and velocities, wraps each edge once and gathers every frame from
the edges (the degree-1 frames are a view of them), checks the residuals once
(closed-form Gram volumes), averages one centroid velocity per degree and
evaluates each form, coefficient by coefficient, on that velocity and views
of the frame vectors, with no stacked copy.  Of each sample's cochain the
pass keeps its closedness and boundary sups and its values on the support of
the cycle basis.  At the end one weighted running sum of those values, in
sample order, gives the periods at the end of every quadrature panel, the
last of which is the period vector; the even samples' sum gives the
Richardson estimate.

The class of the time integral is represented by its period vector against a
fixed cycle basis.  Swept-surface oracles recompute the same periods as plain
surface integrals of the constant ambient forms over the piecewise-linear
surface traced by a cycle, giving an independent cross-check.  An oracle
evaluates the family at the vertices of the basis support only, once over its
time grid, and integrates every support simplex at once, evaluating the form
on the unstacked edge vectors of its slabs; each simplex keeps its slab sum in
one contiguous row, so it adds in the order of a per-simplex loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .ambient import AmbientModel, ConstantForm
from .dec import Cochain
from .errors import (
    DegenerateSimplexError,
    EndpointMismatchError,
    NonLagrangianSampleError,
    NonSpecialSampleError,
    SlagError,
    VelocityUnavailableError,
)
from .immersion import (
    TOO_LARGE_TO_LIFT,
    Immersion,
    ImmersionFamily,
    calibration_residuals,
    wrapped_frames,
)
from .meshes import CycleBasis

_ORACLE_STEPS = 256  # time slabs of a swept-surface oracle
_HOMOTOPY_STEPS = 5  # values of u at which the homotopy harness runs the oracle
_ENDPOINT_TOL = 1e-12  # largest endpoint gap between the two paths the homotopy harness compares
# Top-simplex samples in one block of a flux pass.  It bounds the memory of a
# block's positions, velocities and frames whatever the mesh size and the
# number of samples.  An interleaved in-process sweep (9 rounds, 2-core Xeon,
# BLAS on one thread) timed the 133 passes of the level-1 benchmark scenarios
# at medians of 0.72, 0.57, 0.50 and 0.50 s for 2,048, 4,096, 8,192 and
# 16,384, and the 12 passes of `slag converge --levels 1,2,4` at 0.13, 0.14,
# 0.12 and 0.13 s.  8,192 is faster still but raised the benchmark's peak
# memory by 2 % (6,144 by 1 %); 4,096 raised it by 0.3 %.
_BLOCK_SIMPLEX_SAMPLES = 4096


class ImmersionPath:
    """Family restricted to a parameter curve over a uniform time grid.

    curve and derivative map a (T,) array of times in [0, 1] to the (T, m)
    parameter points and their time derivatives.  The path keeps the points
    `u` and the derivatives `du`, and evaluates nothing: the positions and the
    exact velocities of its samples come from the family where they are read,
    a block of samples at a time in a flux pass (`blocks`) and one sample at a
    time in `immersion_at` and `velocity_at`.
    """

    def __init__(self, family: ImmersionFamily, curve, derivative, n_samples: int):
        if n_samples < 2:
            raise VelocityUnavailableError("need at least two time samples")
        self.family = family
        self.curve = curve
        self.times = np.linspace(0.0, 1.0, n_samples)
        self.u = curve(self.times)
        self.du = derivative(self.times)

    @classmethod
    def straight(cls, family: ImmersionFamily, target, n_samples: int,
                 profile=None, start=0.0) -> "ImmersionPath":
        """Path along the straight parameter segment start -> start + target, optionally
        reprofiled.

        profile: (p, dp) with p(0) = 0, p(1) = 1 reparametrizing the segment;
        both map the (T,) times to (T,).
        """
        target = np.atleast_1d(np.asarray(target, dtype=float))
        p, dp = profile or ((lambda t: t), np.ones_like)
        return cls(family, lambda t: start + p(t)[:, None] * target,
                   lambda t: dp(t)[:, None] * target, n_samples)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def blocks(self) -> list:
        """Slices of consecutive samples, each at most _BLOCK_SIMPLEX_SAMPLES top-simplex
        samples, that a flux pass evaluates together."""
        mesh = self.family.mesh
        size = max(1, _BLOCK_SIMPLEX_SAMPLES // mesh.n_simplices(mesh.dim))
        return [slice(start, start + size) for start in range(0, self.n_samples, size)]

    def immersion_at(self, j: int) -> Immersion:
        return Immersion(self.family.mesh, self.family.positions(self.u[j]))

    def velocity_at(self, j: int) -> np.ndarray:
        return self.family.velocity(self.u[j], self.du[j])


class Sweep(NamedTuple):
    """A family along a parameter curve: all that the swept-surface oracles read of a path."""
    family: ImmersionFamily
    curve: Callable


@dataclass
class FluxClass:
    """Period representation of a time-integrated tangent cochain.

    panel_periods holds the periods of the flux up to the end of each
    quadrature panel (each pair of Simpson intervals, or each trapezoid
    interval), one row per panel; the last row is period_vector.
    """

    period_vector: np.ndarray
    panel_periods: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _centroid_stack(mesh, velocities: np.ndarray, frames: np.ndarray, degree: int) -> list:
    """The k + 1 vectors, each (..., N_k, 2n), that a degree-k integrand contracts.

    velocities is (..., V, 2n) and frames (..., N_k, k, 2n).  The first
    vector is each simplex's centroid velocity, the only new array; the others
    are views of the frame's k edges.  Every integrand of this degree reads
    the same vectors.
    """
    simp = mesh.simplices[degree]
    vmean = np.take(velocities, simp[:, 0], axis=-2)
    vmean += 0.0  # the vertex sum starts from zero, so a sum of -0.0 is +0.0
    for i in range(1, degree + 1):
        vmean += np.take(velocities, simp[:, i], axis=-2)
    vmean /= degree + 1
    return [vmean] + [frames[..., i, :] for i in range(degree)]


def _contract(stack: list, form: ConstantForm, degree: int) -> np.ndarray:
    """(..., N_k) exact per-simplex integrals of the pullback of (velocity -| form).

    The integrand is affine in barycentric coordinates, so the integral is its
    value on the centroid stack times the simplex volume fraction 1/degree!.
    """
    values = form(stack)
    values /= math.factorial(degree)
    return values


def _sample_cochain(model, path, j, form, degree) -> Cochain:
    mesh = path.family.mesh
    frames = path.immersion_at(j).simplex_frames(model, degree)
    stack = _centroid_stack(mesh, path.velocity_at(j), frames, degree)
    return Cochain(mesh, degree, _contract(stack, form, degree))


def tangent_one_form(model: AmbientModel, path: ImmersionPath, j: int) -> Cochain:
    """Edge cochain of the velocity contracted into the symplectic form at sample j."""
    return _sample_cochain(model, path, j, model.omega, 1)


def dual_form(model: AmbientModel, path: ImmersionPath, j: int) -> Cochain:
    """(n-1)-cochain of the velocity contracted into the imaginary calibration form."""
    return _sample_cochain(model, path, j, model.im_omega_hat, model.n - 1)


def _quadrature_weights(n_samples: int):
    h = 1.0 / (n_samples - 1)
    if n_samples % 2 == 1:
        w = np.ones(n_samples)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * h / 3.0, "simpson"
    w = np.ones(n_samples)
    w[0] = w[-1] = 0.5
    return w * h, "trapezoid"


def _sup(values) -> float:
    return float(np.abs(values).max(initial=0.0))


# The largest symplectic residual of a Lagrangian sample, relative to its volumes, and
# of a scenario's boundary span, relative to its rows' lengths.
LAGRANGIAN_GATE = 1e-9
# The gate of each sample check, indexed like the residuals (Lagrangian, special):
# the largest residual a sample may have, and the failure beyond it.
_SAMPLE_FAILURES = (
    (LAGRANGIAN_GATE, NonLagrangianSampleError,
     "sample {j} has symplectic residual {r:.3e} > {tol:.1e}; "
     "closedness of the tangent form is not guaranteed"),
    (1e-9, NonSpecialSampleError, "sample {j} has calibration residual {r:.3e} > {tol:.1e}"),
)


class _FluxPass:
    """Time quadrature of one integrand over a path, fed one block of samples at a time.

    Keeps the per-sample closedness and boundary sups, the first failing
    sample, and each sample's values on the basis support, which `result`
    folds into periods.
    """

    def __init__(self, mesh, n_samples, degree, form, basis, residual):
        self.degree, self.form = degree, form
        self.basis, self.residual, self.failure = basis, residual, None
        self.weights, self.rule = _quadrature_weights(n_samples)
        self.support_values = []  # per block, its (B, support) values
        richardson = n_samples % 4 == 1 and n_samples >= 5
        self.halves = _quadrature_weights((n_samples + 1) // 2)[0] if richardson else None
        self.d_op = (mesh.coboundary_operator(degree) if degree < mesh.dim
                     else np.zeros((0, mesh.n_simplices(degree))))
        self.boundary = mesh.in_boundary(degree)
        self.closedness = self.boundary_sup = 0.0

    def check(self, start, degenerate, residuals, integrand_degenerate) -> None:
        """Keep the first failure in the order of a per-sample pass.

        Within a sample, a simplex too large to lift fails it before the
        residual is read, and one among the integrand's simplices after.
        """
        residual = residuals[self.residual]
        tol, error, message = _SAMPLE_FAILURES[self.residual]
        over = ~(residual <= tol)  # a NaN residual is over
        failed = np.flatnonzero(degenerate | over | integrand_degenerate)
        if self.failure is None and failed.size:
            i = failed[0]
            self.failure = (error(message.format(j=start + i, r=residual[i], tol=tol))
                            if over[i] and not degenerate[i]
                            else DegenerateSimplexError(TOO_LARGE_TO_LIFT))

    def add(self, vals: np.ndarray) -> None:
        """Keep the sups and the support values of the (B, N_k) cochains of a block."""
        # np.maximum keeps a NaN that the builtin max would drop
        self.closedness = float(np.maximum(self.closedness, _sup(self.d_op @ vals.T)))
        self.boundary_sup = float(np.maximum(self.boundary_sup, _sup(vals[:, self.boundary])))
        self.support_values.append(vals[:, self.basis.support])

    def result(self, max_lag: float, max_special: float) -> FluxClass:
        """Fold the support values once, in sample order, into the panel periods.

        The sum up to a panel's last sample j is the fold of the samples before
        j, each with its weight, plus sample j with the rule's end weight.
        np.cumsum adds row after row, as a per-sample loop would, and
        `CycleBasis.periods` sums each cycle from +0.0, so the last panel
        carries the bits of the loop's period vector.
        """
        values = np.concatenate(self.support_values)
        folds = np.cumsum(self.weights[:, None] * values, axis=0)
        width = 2 if self.rule == "simpson" else 1
        ends = np.arange(width, len(values), width)
        panels = self.basis.periods(folds[ends - 1] + self.weights[-1] * values[ends])
        periods = panels[-1]
        diag = {
            "rule": self.rule,
            "max_lagrangian_residual": max_lag,
            "max_special_residual": max_special,
            "max_sample_closedness": self.closedness,
            "max_sample_boundary_value": self.boundary_sup,
        }
        if self.halves is not None:
            coarse = self.basis.periods(
                np.cumsum(self.halves[:, None] * values[::2], axis=0)[-1])
            diag["richardson_error"] = float(np.abs(periods - coarse).max() / 15.0)
        return FluxClass(periods, panels, diag)


def path_fluxes(model: AmbientModel, path: ImmersionPath,
                rel_cycles: CycleBasis | None = None,
                abs_cycles: CycleBasis | None = None):
    """Relative and dual flux classes of one path, from one pass over its samples.

    Returns (relative, dual); a flux whose cycle basis is None is skipped and
    comes back as None.  The relative flux needs Lagrangian samples, the dual
    flux calibrated ones.  Failures are raised as two separate passes would
    raise them: the relative flux's first failing sample before the dual's.
    """
    mesh, n, count = path.family.mesh, path.family.mesh.dim, path.n_samples
    rel_pass = None if rel_cycles is None else _FluxPass(
        mesh, count, 1, model.omega, rel_cycles, 0)
    abs_pass = None if abs_cycles is None else _FluxPass(
        mesh, count, n - 1, model.im_omega_hat, abs_cycles, 1)
    passes = [p for p in (rel_pass, abs_pass) if p is not None]
    degrees = {n, min(n, 2)} | {p.degree for p in passes}
    max_lag = max_special = 0.0
    for samples in path.blocks():
        positions = path.family.positions(path.u[samples])
        velocities = path.family.velocity(path.u[samples], path.du[samples])
        frames = wrapped_frames(model, mesh, positions, degrees)
        (top, top_large), (two, two_large) = frames[n], frames[min(n, 2)]
        residuals = calibration_residuals(model, top, two if n >= 2 else None)
        max_lag = float(np.maximum(max_lag, residuals[0].max()))
        max_special = float(np.maximum(max_special, residuals[1].max()))
        stacks = {k: _centroid_stack(mesh, velocities, frames[k][0], k)
                  for k in {p.degree for p in passes}}
        for p in passes:
            p.check(samples.start, top_large | two_large, residuals, frames[p.degree][1])
            p.add(_contract(stacks[p.degree], p.form, p.degree))
    for p in passes:
        if p.failure is not None:
            raise p.failure
    return tuple(p and p.result(max_lag, max_special) for p in (rel_pass, abs_pass))


def relative_flux(model: AmbientModel, path: ImmersionPath, cycles: CycleBasis) -> FluxClass:
    """Time quadrature of the tangent one-form, projected to periods over relative cycles."""
    return path_fluxes(model, path, cycles, None)[0]


def special_flux(model: AmbientModel, path: ImmersionPath, cycles: CycleBasis) -> FluxClass:
    """Time quadrature of the dual (n-1)-form, projected to periods over absolute cycles."""
    return path_fluxes(model, path, None, cycles)[1]


# -- swept-surface oracles -----------------------------------------------------------


def _swept_edge_integrals(model: AmbientModel, form: ConstantForm,
                          pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Integrals of a constant 2-form over the PL surfaces swept by edges.

    pa and pb are the (E, T, 2n) trajectories of each edge's two ends.  Each
    time slab contributes a quadrilateral, split into two affine triangles;
    corners are lifted coherently around each quad and the square is
    oriented dt ^ ds.  The form reads each triangle's two edge vectors as
    they are, unstacked, and each edge's values over its T - 1 slabs come out
    in one contiguous row per triangle.
    """
    w = model.wrap_displacement(pb - pa)
    e_t = pa[:, 1:] - pa[:, :-1]        # q3 - q0
    e_d = e_t + w[:, 1:]                # q2 - q0
    e_s = w[:, :-1]                     # q1 - q0
    return 0.5 * (form((e_t, e_d)).sum(axis=-1) + form((e_d, e_s)).sum(axis=-1))


def _swept_point_integrals(model: AmbientModel, form: ConstantForm, p: np.ndarray) -> np.ndarray:
    """Integrals of a constant 1-form along the PL curves traced by the (P, T, 2n) vertices."""
    steps = p[:, 1:] - p[:, :-1]
    return form((steps,)).sum(axis=-1)


def swept_rf_oracle(model: AmbientModel, path: ImmersionPath, basis: CycleBasis) -> np.ndarray:
    """Integrals of the symplectic form over the surfaces swept by relative 1-cycles.

    path: an ImmersionPath or a Sweep; only its family and curve are read.
    basis: a degree-1 CycleBasis; returns the integral over each of its m cycles.
    """
    return _swept_integrals(model, path, basis, model.omega, 1,
                            "relative sweep oracle needs 1-chains")


def swept_sf_oracle(model: AmbientModel, path: ImmersionPath, basis: CycleBasis) -> np.ndarray:
    """Integrals of the imaginary calibration form over the cylinders swept by cycles.

    basis: a degree-(n-1) CycleBasis, as in `swept_rf_oracle`.
    """
    dim = path.family.mesh.dim
    if dim not in (1, 2):
        raise SlagError("sweep oracle implemented for dim <= 2")
    return _swept_integrals(model, path, basis, model.im_omega_hat, dim - 1,
                            f"sweep oracle needs {dim - 1}-chains on a {dim}-complex")


def _swept_integrals(model, path, basis, form, degree, degree_error):
    """Swept integrals of each cycle, from one trajectory of the support's vertices only.

    Every support simplex is integrated once, all at the same time, and
    `CycleBasis.periods` adds them up.
    """
    simplices = path.family.mesh.simplices[degree]
    if basis.degree != degree or len(basis.chains) != len(simplices):
        raise SlagError(degree_error)
    corners = simplices[basis.support]
    vertex_ids, local = np.unique(corners, return_inverse=True)
    times = np.linspace(0.0, 1.0, _ORACLE_STEPS + 1)
    traj = path.family.positions(path.curve(times), vertex_ids)   # (T, support vertices, 2n)
    ends = np.swapaxes(traj, 0, 1)[local.reshape(corners.shape)]  # (simplex, corner, T, 2n)
    if degree == 1:
        integrals = _swept_edge_integrals(model, form, ends[:, 0], ends[:, 1])
    else:
        integrals = _swept_point_integrals(model, form, ends[:, 0])
    return basis.periods(integrals)


# -- homotopy harness ------------------------------------------------------------------


@dataclass
class HomotopyReport:
    rf_discrepancy: float
    sf_discrepancy: float
    sweep_deviation: float


def homotopy_invariance_harness(
    model: AmbientModel,
    path_a: ImmersionPath,
    path_b: ImmersionPath,
    rel_cycles: CycleBasis,
    abs_cycles: CycleBasis,
    homotopy,
) -> HomotopyReport:
    """Fluxes of two end-point sharing paths plus a u-sweep of the oracle.

    homotopy: callable u -> parameter curve of path_a's family, from path_a's
    curve (u=0) to path_b's (u=1) with fixed endpoints; the report includes
    the spread of the swept integral over the first relative cycle at
    _HOMOTOPY_STEPS equally spaced values of u.  Only the oracle reads these
    curves, so no path is sampled along them.
    """
    ends = (path_a.family.positions(path_a.u[[0, -1]])
            - path_b.family.positions(path_b.u[[0, -1]]))
    gap = float(np.abs(model.wrap_displacement(ends)).max())
    if gap > _ENDPOINT_TOL:
        raise EndpointMismatchError(f"paths differ at endpoints by {gap:.3e}")
    try:
        rf_a, sf_a = path_fluxes(model, path_a, rel_cycles, abs_cycles)
    except NonSpecialSampleError:
        relative_flux(model, path_b, rel_cycles)  # a failure of path b's relative flux comes first
        raise
    rf_b, sf_b = path_fluxes(model, path_b, rel_cycles, abs_cycles)
    gamma = CycleBasis(1, rel_cycles.chains[:, :1], rel_cycles.dual[:, :1])
    curve = np.concatenate([swept_rf_oracle(model, Sweep(path_a.family, homotopy(u)), gamma)
                            for u in np.linspace(0.0, 1.0, _HOMOTOPY_STEPS)])
    return HomotopyReport(
        rf_discrepancy=float(np.abs(rf_a.period_vector - rf_b.period_vector).max()),
        sf_discrepancy=float(np.abs(sf_a.period_vector - sf_b.period_vector).max()),
        sweep_deviation=float(curve.max() - curve.min()),
    )
