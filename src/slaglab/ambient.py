"""Flat ambient models on R^{2n} or torus quotients.

Coordinates are ordered (x1, y1, x2, y2, ...), so index 2j is the j-th real
axis and 2j+1 the j-th imaginary axis.  All structure tensors are constant;
so is the length rho of the top form, a positive number that must agree with
its normalization.

A model validates

    (-1)^{n(n-1)/2} (i/2)^n  Omega ^ conj(Omega)  =  rho^2 omega^n / n!

and exposes the unit-length normalization Omega / rho used by the calibration
residuals and the dual flux integrand.  With that normalization McLean's
identity i_v Im(Omega / rho)|_L = +- *_g i_v omega|_L holds for the Kaehler
metric g itself in every dimension n, so the metric is g whatever rho is
(`scripts/derive_expected_values.py` checks this for n = 1, 2, 3).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatchError, NormalizationFailureError, NotKaehlerError

_NORMALIZATION_TOL = 1e-12
_DISJOINT_TOL = 1e-9  # two boundary Lagrangians closer than this intersect


class ConstantForm:
    """Constant-coefficient alternating k-form on R^dim.

    Coefficients are stored against strictly increasing index tuples; values
    may be real or complex.
    """

    def __init__(self, dim: int, degree: int, coeffs: dict):
        self.dim = dim
        self.degree = degree
        self.coeffs = {}
        for idx, val in coeffs.items():
            key, sign = _sort_index(tuple(idx))
            if key is None or val == 0:
                continue
            self.coeffs[key] = self.coeffs.get(key, 0) + sign * val
        self.coeffs = {k: v for k, v in self.coeffs.items() if v != 0}
        values = np.array(list(self.coeffs.values()))
        # one (columns, value) pair per coefficient, evaluated in turn on column slices
        self._terms = list(zip(self.coeffs, values))
        self._dtype = np.result_type(values, float)

    def __call__(self, vectors):
        """Evaluate on k vectors, stacked or separate.

        vectors is an array (..., k, dim), which is split into k views (a
        degree-1 form also takes one (dim,) vector), or a list or tuple of k
        arrays (..., dim) whose leading shapes broadcast; neither is copied.
        Both give the same bits.  Complex coefficients give complex values,
        real ones real values.  The sum over coefficients starts from zero and
        adds them in order, as numpy's sum over fewer than 8 real (4 complex)
        terms does.
        """
        if isinstance(vectors, (list, tuple)):
            parts = [np.asarray(v, dtype=float) for v in vectors]
        else:
            stacked = np.asarray(vectors, dtype=float)
            parts = ([stacked[..., i, :] for i in range(stacked.shape[-2])] if stacked.ndim > 1
                     else [stacked])  # one vector
        if len(parts) != self.degree or any(p.shape[-1:] != (self.dim,) for p in parts):
            raise ArityMismatchError(f"need {self.degree} vectors in R^{self.dim}, got "
                                     f"shapes {[p.shape for p in parts]}")
        if len({p.shape for p in parts}) > 1:
            parts = np.broadcast_arrays(*parts)
        total = np.zeros(parts[0].shape[:-1], self._dtype)
        for cols, value in self._terms:
            if self.degree == 1:
                minor = parts[0][..., cols[0]]
            elif self.degree == 2:
                (i, j), (u, v) = cols, parts
                minor = u[..., i] * v[..., j]
                minor -= u[..., j] * v[..., i]
            else:
                minor = np.linalg.det(np.stack([p[..., list(cols)] for p in parts], axis=-2))
            total += minor * value
        return total

    def scaled(self, factor) -> "ConstantForm":
        return ConstantForm(self.dim, self.degree, {k: factor * v for k, v in self.coeffs.items()})

    def imag(self) -> "ConstantForm":
        return ConstantForm(self.dim, self.degree, {k: np.imag(v) for k, v in self.coeffs.items()})

    def conjugate(self) -> "ConstantForm":
        return ConstantForm(self.dim, self.degree, {k: np.conj(v) for k, v in self.coeffs.items()})

    def wedge(self, other: "ConstantForm") -> "ConstantForm":
        out: dict = {}
        for ia, va in self.coeffs.items():
            for ib, vb in other.coeffs.items():
                key, sign = _sort_index(ia + ib)
                if key is None:
                    continue
                out[key] = out.get(key, 0) + sign * va * vb
        return ConstantForm(self.dim, self.degree + other.degree, out)

    def as_matrix(self) -> np.ndarray:
        """Degree-2 form as the antisymmetric matrix A with form(u, v) = u^T A v."""
        if self.degree != 2:
            raise ArityMismatchError("as_matrix needs a 2-form")
        mat = np.zeros((self.dim, self.dim))
        for (i, j), val in self.coeffs.items():
            mat[i, j] = val
            mat[j, i] = -val
        return mat


def _sort_index(idx):
    """Sort an index tuple, returning (sorted tuple, permutation sign) or (None, 0)."""
    if len(set(idx)) != len(idx):
        return None, 0
    lst = list(idx)
    sign = 1
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[j] < lst[i]:
                lst[i], lst[j] = lst[j], lst[i]
                sign = -sign
    return tuple(lst), sign


def standard_symplectic(n: int) -> ConstantForm:
    return ConstantForm(2 * n, 2, {(2 * j, 2 * j + 1): 1.0 for j in range(n)})


def standard_complex_structure(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    for j in range(n):
        J[2 * j + 1, 2 * j] = 1.0
        J[2 * j, 2 * j + 1] = -1.0
    return J


def standard_top_form(n: int, scale=1.0) -> ConstantForm:
    """dz_1 ^ ... ^ dz_n with dz_j = dx_j + i dy_j, times an overall scale."""
    coeffs: dict = {(): complex(scale)}
    form = ConstantForm(2 * n, 0, coeffs)
    for j in range(n):
        dz = ConstantForm(2 * n, 1, {(2 * j,): 1.0, (2 * j + 1,): 1j})
        form = form.wedge(dz)
    return form


@dataclass(frozen=True)
class BoundaryLagrangian:
    """Affine subspace or sub-torus constraining one boundary component."""

    index: int
    basepoint: np.ndarray
    span: np.ndarray  # (n, 2n), rows are spanning directions

    def distances(self, points: np.ndarray, model: "AmbientModel") -> np.ndarray:
        """Distance from each point to the subspace, lattice-aware on a torus."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rel = model.wrap_displacement(points - self.basepoint)
        q, _ = np.linalg.qr(self.span.T)
        perp = rel - (rel @ q) @ q.T
        return np.linalg.norm(perp, axis=1)


class AmbientModel:
    """Validated flat (almost) Calabi-Yau background."""

    def __init__(self, n, topology, lattice, omega, J, Omega, rho=1.0):
        if isinstance(rho, bool) or not isinstance(rho, numbers.Real) \
                or not (math.isfinite(rho) and rho > 0):
            raise NormalizationFailureError(f"rho must be a positive finite number, got {rho!r}")
        self.n = n
        self.topology = topology
        self.lattice = lattice
        self._lattice_inv = None if lattice is None else np.linalg.inv(lattice)
        # half the shortest lattice vector: the longest edge a minimal-image lift can trust
        self.lift_limit = None if lattice is None else 0.5 * np.linalg.norm(lattice, axis=1).min()
        self.omega = omega
        self.J = J
        self.Omega = Omega
        self.rho = float(rho)
        self._validate_kaehler()
        self.normalization_residual = self._validate_normalization()
        self.metric = self.omega.as_matrix() @ self.J  # g = omega(. , J .)
        self.im_omega_hat = Omega.scaled(1.0 / self.rho).imag()

    # -- validation ----------------------------------------------------------

    def _validate_kaehler(self):
        n2 = 2 * self.n
        J = self.J
        if not np.allclose(J @ J, -np.eye(n2), atol=1e-12):
            raise NotKaehlerError("J^2 != -Id")
        omega_mat = self.omega.as_matrix()
        if abs(np.linalg.det(omega_mat)) < 1e-12:
            raise NotKaehlerError("omega is degenerate")
        if not np.allclose(J.T @ omega_mat @ J, omega_mat, atol=1e-12):
            raise NotKaehlerError("omega is not J-invariant")
        g = omega_mat @ J
        if not np.allclose(g, g.T, atol=1e-12):
            raise NotKaehlerError("omega(., J.) is not symmetric")
        if np.linalg.eigvalsh(0.5 * (g + g.T)).min() <= 0:
            raise NotKaehlerError("omega(., J.) is not positive definite")

    def _validate_normalization(self) -> float:
        n = self.n
        lhs_form = self.Omega.wedge(self.Omega.conjugate()).scaled(
            (-1) ** (n * (n - 1) // 2) * (1j / 2) ** n
        )
        top_key = tuple(range(2 * n))
        lhs = complex(lhs_form.coeffs.get(top_key, 0.0))
        if abs(lhs.imag) > _NORMALIZATION_TOL * max(1.0, abs(lhs)):
            raise NormalizationFailureError("Omega ^ conj(Omega) has an imaginary part")
        omega_n = self.omega
        for _ in range(n - 1):
            omega_n = omega_n.wedge(self.omega)
        rhs = float(np.real(omega_n.coeffs.get(top_key, 0.0))) / float(math.factorial(n))
        residual = abs(lhs.real - self.rho**2 * rhs)
        scale = max(abs(lhs.real), abs(rhs), 1.0)
        if residual > _NORMALIZATION_TOL * scale:
            hint = " (no rho supplied)" if self.rho == 1.0 else ""
            raise NormalizationFailureError(
                f"normalization residual {residual:.3e}{hint}"
            )
        return residual

    # -- queries ---------------------------------------------------------------

    def metric_matrix(self) -> np.ndarray:
        """The metric g = omega(., J .), for every rho (see the module docstring)."""
        return self.metric.copy()

    def wrap_displacement(self, disp: np.ndarray) -> np.ndarray:
        """Minimal-image representative of displacements (..., 2n), identity on R^{2n}."""
        if self.lattice is None:
            return disp
        flat = np.reshape(disp, (-1, 2 * self.n))
        wrapped = flat - np.round(flat @ self._lattice_inv) @ self.lattice
        return wrapped.reshape(np.shape(disp))

    def lagrangian_residual(self, lagrangian: BoundaryLagrangian) -> float:
        """Max |omega(u, v)| over pairs of spanning directions."""
        pairs = list(itertools.combinations(lagrangian.span, 2))
        pairs = np.array(pairs).reshape(-1, 2, 2 * self.n)
        return float(np.abs(self.omega(pairs)).max(initial=0.0))

    def check_disjoint(self, lagrangians) -> None:
        offsets = [np.zeros(2 * self.n)]
        if self.lattice is not None:
            rng = [-1, 0, 1]
            offsets = [
                np.array(c) @ self.lattice
                for c in itertools.product(rng, repeat=2 * self.n)
            ]
        for a in range(len(lagrangians)):
            for b in range(a + 1, len(lagrangians)):
                la, lb = lagrangians[a], lagrangians[b]
                basis = np.vstack([la.span, -lb.span]).T
                for off in offsets:
                    rhs = lb.basepoint + off - la.basepoint
                    sol, res, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
                    gap = np.linalg.norm(basis @ sol - rhs)
                    if gap < _DISJOINT_TOL:
                        raise NotKaehlerError(
                            f"boundary Lagrangians {la.index} and {lb.index} intersect"
                        )


def make_model(
    n: int,
    topology: str = "euclidean",
    lattice=None,
    omega=None,
    J=None,
    Omega=None,
    Omega_scale: complex = 1.0,
    rho: float = 1.0,
) -> AmbientModel:
    """Build and validate an ambient model; defaults give the standard flat structure."""
    if topology not in ("euclidean", "torus"):
        raise NotKaehlerError(f"unknown topology {topology!r}")
    lat = None
    if topology == "torus":
        lat = np.eye(2 * n) if lattice is None else np.asarray(lattice, dtype=float)
        if lat.shape != (2 * n, 2 * n) or abs(np.linalg.det(lat)) < 1e-12:
            raise NotKaehlerError("lattice basis must be an invertible 2n x 2n matrix")
    if omega is None:
        omega_form = standard_symplectic(n)
    elif isinstance(omega, ConstantForm):
        omega_form = omega
    else:
        mat = np.asarray(omega, dtype=float)
        if mat.shape != (2 * n, 2 * n):
            raise NotKaehlerError(f"omega must be a 2n x 2n matrix, got shape {mat.shape}")
        coeffs = {(i, j): mat[i, j] for i in range(2 * n) for j in range(i + 1, 2 * n)}
        omega_form = ConstantForm(2 * n, 2, coeffs)
    Jmat = standard_complex_structure(n) if J is None else np.asarray(J, dtype=float)
    if Omega is None:
        top = standard_top_form(n, scale=Omega_scale)
    elif isinstance(Omega, ConstantForm):
        top = Omega.scaled(Omega_scale)
    else:
        top = ConstantForm(2 * n, n, {tuple(k): Omega_scale * v for k, v in dict(Omega).items()})
    return AmbientModel(n, topology, lat, omega_form, Jmat, top, rho=rho)
