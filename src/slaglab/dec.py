r"""Discrete exterior calculus with boundary conditions on Whitney forms.

Cochains in degree k assign one real number per canonical k-simplex, read as
the integral of a k-form over that simplex.  The Galerkin mass matrix of
piecewise-linear (Whitney) k-forms under a per-top-simplex constant metric is

    M_k[s, t] = sum_T (k!)^2 sum_{i,j} (-1)^{i+j}
                \int_T lam_{s_i} lam_{t_j}  < d lam_{s \ i}, d lam_{t \ j} >_G dV,

where the bracket is the Gram determinant of barycentric-gradient inner
products.  The wedge pairing matrix

    P_k[s, t] = \int_L W_s^(k) ^ W_t^(n-k)

is metric independent; the L^2-projection Hodge star is then the mass solve
star(a) = M_{n-k}^{-1} P_k^T a.  Dirichlet harmonic 1-fields are the closed
cochains on interior edges that are M_1-orthogonal to differentials of
interior-vertex functions; Neumann (n-1)-fields are orthogonal to the
differentials of all (n-2)-cochains.  Each space is the image of the discrete
Hodge projector and has exactly the corresponding Betti dimension at the
discrete level, so a dimension mismatch signals solver failure, not
discretization; counting them cross-checks the combinatorial Betti numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DegenerateMetricError,
    DegreeMismatchError,
    DegreeOutOfRangeError,
    SolverFailureError,
)
from .meshes import CycleBasis, SimplicialMesh

_KERNEL_GAP = 1e-8
_SHIFT = 1e-12  # diagonal regularization of the harmonic projector's SPD matrices


@dataclass
class Cochain:
    """Degree-k real cochain on canonical simplices."""

    mesh: SimplicialMesh
    degree: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_simplices(self.degree),):
            raise DegreeMismatchError(
                f"degree-{self.degree} cochain needs "
                f"{self.mesh.n_simplices(self.degree)} values, got {self.values.shape}"
            )


class MetricField:
    """Per-top-simplex SPD Gram matrix of the edge-vector frame."""

    def __init__(self, mesh: SimplicialMesh, gram: np.ndarray):
        gram = np.asarray(gram, dtype=float)
        n = mesh.dim
        if gram.shape != (mesh.n_simplices(n), n, n):
            raise DegenerateMetricError(f"gram field has wrong shape {gram.shape}")
        sym_defect = np.abs(gram - gram.transpose(0, 2, 1)).max()
        if sym_defect > 1e-10:
            raise DegenerateMetricError(f"gram matrices asymmetric by {sym_defect:.2e}")
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.transpose(0, 2, 1)))
        if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
            raise DegenerateMetricError(
                f"gram eigenvalue {eigs.min():.3e} below degeneracy tolerance"
            )
        self.mesh = mesh
        self.gram = gram


class HodgeStructure:
    """Mass matrices, wedge pairings and solver caches."""

    def __init__(self, mesh: SimplicialMesh, metric: MetricField):
        if metric.mesh is not mesh:
            raise DegreeMismatchError("metric belongs to a different mesh")
        self.mesh = mesh
        self.metric = metric
        n = mesh.dim
        gram = metric.gram
        det = np.linalg.det(gram)
        self._volumes = np.sqrt(det) / math.factorial(n)
        ginv = np.linalg.inv(gram)
        # inner products of all n+1 barycentric gradients, d lam_0 = -sum d lam_i
        H = np.empty((len(gram), n + 1, n + 1))
        H[:, 1:, 1:] = ginv
        H[:, 0, 1:] = -ginv.sum(axis=1)
        H[:, 1:, 0] = -ginv.sum(axis=2)
        H[:, 0, 0] = ginv.sum(axis=(1, 2))
        self._grad_products = H
        self._mass: dict[int, sp.csr_matrix] = {}
        self._wedge: dict[int, sp.csr_matrix] = {}
        self._factors: dict[int, object] = {}
        self.diagnostics: dict = {}

    # -- assembly ------------------------------------------------------------

    def mass_matrix(self, k: int) -> sp.csr_matrix:
        if not 0 <= k <= self.mesh.dim:
            raise DegreeOutOfRangeError(f"no degree-{k} forms on a {self.mesh.dim}-mesh")
        if k not in self._mass:
            self._mass[k] = self._assemble_mass(k)
        return self._mass[k]

    def wedge_matrix(self, k: int) -> sp.csr_matrix:
        """P_k with P[s, t] = integral over L of W_s^(k) ^ W_t^(n-k)."""
        if not 0 <= k <= self.mesh.dim:
            raise DegreeOutOfRangeError(f"no degree-{k} forms on a {self.mesh.dim}-mesh")
        if k not in self._wedge:
            self._wedge[k] = self._assemble_wedge(k)
        return self._wedge[k]

    def factorized_mass(self, k: int):
        if k not in self._factors:
            try:
                self._factors[k] = _spd_factor(self.mass_matrix(k))
            except RuntimeError as exc:
                raise SolverFailureError(f"mass factorization failed in degree {k}") from exc
        return self._factors[k]

    def _assemble_mass(self, k: int) -> sp.csr_matrix:
        mesh, n = self.mesh, self.mesh.dim
        faces = list(itertools.combinations(range(n + 1), k + 1))
        table = mesh.face_table(k)
        n_top = mesh.n_simplices(n)
        H = self._grad_products
        vol = self._volumes
        pair_weight = vol / ((n + 1) * (n + 2))
        kfact2 = math.factorial(k) ** 2
        rows, cols, vals = [], [], []
        for a, fa in enumerate(faces):
            for b, fb in enumerate(faces):
                acc = np.zeros(n_top)
                for i, vi in enumerate(fa):
                    ra = [v for v in fa if v != vi]
                    for j, vj in enumerate(fb):
                        rb = [v for v in fb if v != vj]
                        minors = H[:, ra, :][:, :, rb]
                        det = np.linalg.det(minors)  # 1.0 for the (N, 0, 0) minors of k = 0
                        acc += ((-1) ** (i + j)) * (1 + (vi == vj)) * pair_weight * det
                rows.append(table[:, a])
                cols.append(table[:, b])
                vals.append(kfact2 * acc)
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_simplices(k), mesh.n_simplices(k)),
        ).tocsr()
        mat.sum_duplicates()
        return mat

    def _assemble_wedge(self, k: int) -> sp.csr_matrix:
        mesh, n = self.mesh, self.mesh.dim
        kc = n - k
        faces_k = list(itertools.combinations(range(n + 1), k + 1))
        faces_c = list(itertools.combinations(range(n + 1), kc + 1))
        table_k = mesh.face_table(k)
        table_c = mesh.face_table(kc)
        flags = mesh.top_orientation.astype(float)
        # gradient vectors in the (d lam_1 .. d lam_n) basis
        vecs = np.vstack([-np.ones(n), np.eye(n)])
        scale = math.factorial(k) * math.factorial(kc) / math.factorial(n + 2)
        rows, cols, vals = [], [], []
        for a, fa in enumerate(faces_k):
            for b, fb in enumerate(faces_c):
                coeff = 0.0
                for i, vi in enumerate(fa):
                    ra = [v for v in fa if v != vi]
                    for j, vj in enumerate(fb):
                        rb = [v for v in fb if v != vj]
                        wdet = np.linalg.det(vecs[ra + rb])  # k + (n - k) = n rows
                        coeff += ((-1) ** (i + j)) * (1 + (vi == vj)) * wdet
                if coeff == 0.0:
                    continue
                rows.append(table_k[:, a])
                cols.append(table_c[:, b])
                vals.append(scale * coeff * flags)
        if not rows:
            return sp.csr_matrix((mesh.n_simplices(k), mesh.n_simplices(kc)))
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_simplices(k), mesh.n_simplices(kc)),
        ).tocsr()
        mat.sum_duplicates()
        return mat

    # -- inner products -------------------------------------------------------

    def inner(self, a: Cochain, b: Cochain) -> float:
        if a.degree != b.degree:
            raise DegreeMismatchError("inner product needs equal degrees")
        return float(a.values @ (self.mass_matrix(a.degree) @ b.values))

    def norm(self, a: Cochain) -> float:
        return math.sqrt(max(self.inner(a, a), 0.0))


def _spd_factor(matrix):
    """SuperLU factor of a sparse SPD matrix in symmetric mode.

    An SPD matrix needs no pivoting, so the factor keeps the diagonal pivots
    of a minimum-degree ordering of A + A^T.  relax=1 and panel_size=1 turn
    off supernode relaxation and panel blocking: on these small, sparse mass
    matrices and the harmonic projector's C C^T and E^T M E, SuperLU's
    defaults cost more time and workspace for about the same fill (level-4
    cylinder M_1, 6,208 rows: 27,274 nonzeros in L + U against 26,700, half
    the factor time, and a peak-memory rise of 2.6 MB against 6.7 MB).
    """
    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     relax=1, panel_size=1, options={"SymmetricMode": True})


def exterior_derivative(mesh: SimplicialMesh, k: int) -> sp.csr_matrix:
    """Signed coboundary C^k -> C^{k+1}; composition of two of these vanishes."""
    if not 0 <= k < mesh.dim:
        raise DegreeOutOfRangeError(f"no coboundary from degree {k} on a {mesh.dim}-mesh")
    return mesh.coboundary_operator(k).astype(float)


def hodge_star(structure: HodgeStructure, cochain: Cochain) -> Cochain:
    """L^2-projection star: best Whitney (n-k)-form approximating the pointwise star."""
    mesh = structure.mesh
    k = cochain.degree
    rhs = structure.wedge_matrix(k).T @ cochain.values
    lu = structure.factorized_mass(mesh.dim - k)
    out = lu.solve(rhs)
    if not np.all(np.isfinite(out)):
        raise SolverFailureError("hodge star solve produced non-finite values")
    return Cochain(mesh, mesh.dim - k, out)


def period_matrix(cochains, basis: CycleBasis) -> np.ndarray:
    """Entry (j, k): the value of cochain k over cycle j, summed by `CycleBasis.periods`."""
    for coch in cochains:
        if len(coch.values) != len(basis.chains):
            raise DegreeMismatchError(
                f"degree-{coch.degree} cochain has {len(coch.values)} values, "
                f"chains have {len(basis.chains)} rows")
    values = np.array([coch.values[basis.support] for coch in cochains])
    return basis.periods(values.reshape(len(cochains), len(basis.support))).T


# -- harmonic fields -----------------------------------------------------------------


def harmonic_fields(structure: HodgeStructure, flavor: str):
    """Basis of the constrained harmonic space.

    flavor "dirichlet": degree-1 fields vanishing on boundary edges, closed,
    and M_1-orthogonal to differentials of interior-vertex functions.
    flavor "neumann": degree-(n-1) closed fields M-orthogonal to differentials
    of all (n-2)-cochains.

    The discrete Hodge projector (Arnold, Falk and Winther, Acta Numerica 15,
    2006) maps a block of max(b + 4, 6) Gaussian columns, b the Betti number,
    onto that space in two steps, each y <- y - U A^{-1} V^T y with
    A = V^T U: first the Euclidean projection onto closed cochains (U = V =
    C^T, C the closedness block), then the M-orthogonal removal of exact
    cochains (U = E, V = M E, E the differentials).  Each A is factored with
    a diagonal shift of _SHIFT times its largest entry: C C^T and E^T M E may
    be singular (relative top cohomology, constants), but the right-hand
    sides lie in their ranges.  Each step runs twice before the next begins,
    which squares its shift's leak, and its matrices and factor are released
    before the next step's are built, so one SuperLU factor is live at a
    time.  Finishing the closed step first loses nothing: the exact step
    subtracts exact cochains E x, which are closed.  The basis is the left
    singular vectors of the projected block whose singular values exceed
    _KERNEL_GAP times the 2-norm of the Gaussian block, so an empty space
    counts 0.  The Betti number only sizes the block; the caller compares the
    count against it.  structure.diagnostics["<flavor>_spectrum"] holds the
    projected block's singular values relative to that norm.
    """
    mesh = structure.mesh
    n = mesh.dim
    profile = mesh.betti_profile()
    if flavor == "dirichlet":
        degree, betti = 1, profile.b_rel_1
        cols, rows = mesh.interior_simplex_ids(1), mesh.interior_simplex_ids(0)
    elif flavor == "neumann":
        degree, betti = n - 1, profile.betti[n - 1]
        cols = np.arange(mesh.n_simplices(degree))
        rows = np.arange(mesh.n_simplices(degree - 1) if degree else 0)
    else:
        raise DegreeMismatchError(f"unknown flavor {flavor!r}")

    block = np.random.default_rng(0).standard_normal((len(cols), max(betti + 4, 6)))
    scale = np.linalg.norm(block, 2)
    if degree < n:
        closed = exterior_derivative(mesh, degree)[:, cols].T
        _project_out(block, closed, closed)
        del closed  # freed before the exact step's matrices are built
    if len(rows):
        exact = exterior_derivative(mesh, degree - 1)[:, rows]
        # M E is gathered on cols after the product, so M is not sliced
        _project_out(block, exact[cols], (structure.mass_matrix(degree) @ exact)[cols])
    try:
        vecs, sigma, _ = np.linalg.svd(block, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"harmonic projection failed: {exc}") from exc
    count = int(np.sum(sigma > _KERNEL_GAP * scale))
    structure.diagnostics[f"{flavor}_spectrum"] = sigma / scale
    basis = np.zeros((mesh.n_simplices(degree), count))
    basis[cols] = vecs[:, :count]
    return [Cochain(mesh, degree, basis[:, j]) for j in range(count)]


def _project_out(block, U, V):
    """block <- block - U A^{-1} V^T block, twice and in place, with A = V^T U shifted.

    The factor of A lives only in this call.
    """
    try:
        gram = sp.csc_matrix(V.T) @ U  # CSC, as SuperLU takes it
        lu = _spd_factor(gram + _SHIFT * np.abs(gram.data).max()
                         * sp.identity(gram.shape[0], format="csc"))
        for _ in range(2):
            block -= U @ lu.solve(V.T @ block)
    except (RuntimeError, ValueError) as exc:  # SuperLU, LinAlgError
        raise SolverFailureError(f"harmonic projection failed: {exc}") from exc
