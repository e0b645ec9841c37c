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
star(a) = M_{n-k}^{-1} P_k^T a.  Dirichlet harmonic 1-fields are the kernel of
{closedness on interior edges} + {M_1-orthogonality to differentials of
interior-vertex functions}; Neumann (n-1)-fields test against all functions.
Both kernels have exactly the corresponding Betti dimensions at the discrete
level, so a dimension mismatch signals solver failure, not discretization;
counting them cross-checks the combinatorial Betti numbers.
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
_MAX_SWEEPS = 30  # block inverse iterations before the kernel count gives up


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

    @classmethod
    def zeros(cls, mesh: SimplicialMesh, degree: int) -> "Cochain":
        return cls(mesh, degree, np.zeros(mesh.n_simplices(degree)))


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
                        det = np.linalg.det(minors) if k else np.ones(n_top)
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
                        block = vecs[ra + rb]
                        if block.shape[0] != n:
                            continue
                        wdet = np.linalg.det(block) if n else 1.0
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
    and normal matrices SuperLU's defaults cost more time and workspace for
    about the same fill (level-4 cylinder M_1, 6,208 rows: 27,274 nonzeros in
    L + U against 26,700, half the factor time, and a peak-memory rise of
    2.6 MB against 6.7 MB).
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


def codifferential(structure: HodgeStructure, cochain: Cochain) -> Cochain:
    """M-adjoint of d: delta = M_{k-1}^{-1} d^T M_k."""
    mesh = structure.mesh
    k = cochain.degree
    if k == 0:
        raise DegreeOutOfRangeError("no codifferential on 0-forms")
    rhs = exterior_derivative(mesh, k - 1).T @ (structure.mass_matrix(k) @ cochain.values)
    return Cochain(mesh, k - 1, structure.factorized_mass(k - 1).solve(rhs))


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

    The basis is the orthonormal kernel Ritz vectors of the constraint normal
    matrix (see _small_eigenpairs), as many as the Ritz values below
    _KERNEL_GAP times the largest one computed.  The Betti number only sizes
    the Ritz window; the caller compares the count against it.
    structure.diagnostics["<flavor>_spectrum"] holds the Ritz values: exact to
    rounding up to the shift |sigma|, upper bounds on the eigenvalues above it.
    """
    mesh = structure.mesh
    n = mesh.dim
    profile = mesh.betti_profile()
    if flavor == "dirichlet":
        degree = 1
        col_ids = mesh.interior_simplex_ids(1)
        blocks = []
        if n >= 2:
            blocks.append(exterior_derivative(mesh, 1)[:, col_ids])
        rows = mesh.interior_simplex_ids(0)
        weak = (exterior_derivative(mesh, 0).T @ structure.mass_matrix(1))[rows][:, col_ids]
        blocks.append(weak)
        betti = profile.b_rel_1
    elif flavor == "neumann":
        degree = n - 1
        col_ids = np.arange(mesh.n_simplices(degree))
        blocks = [exterior_derivative(mesh, degree)]
        if degree >= 1:
            blocks.append(exterior_derivative(mesh, degree - 1).T @ structure.mass_matrix(degree))
        betti = profile.betti[degree]
    else:
        raise DegreeMismatchError(f"unknown flavor {flavor!r}")

    dim = len(col_ids)
    normal = sp.csr_matrix((dim, dim))
    for block in blocks:
        block = sp.csr_matrix(block)
        scale = abs(block).max() if block.nnz else 1.0
        block = block / max(scale, 1e-300)
        normal = normal + block.T @ block
    lam, vecs = _small_eigenpairs(normal, betti)
    count = _kernel_dimension(lam)
    structure.diagnostics[f"{flavor}_spectrum"] = lam
    basis = np.zeros((mesh.n_simplices(degree), count))
    basis[col_ids] = vecs[:, :count]
    return [Cochain(mesh, degree, basis[:, j]) for j in range(count)]


def _small_eigenpairs(normal: sp.csr_matrix, betti: int):
    """Smallest Ritz pairs of the PSD normal matrix N, in ascending order.

    Block inverse iteration (subspace iteration, Saad 2011, ch. 5) on one
    SuperLU factor of the SPD N - sigma I (`_spd_factor`), sigma a small
    negative shift.  Each sweep solves for all `want` columns at once and
    orthonormalizes them; a Rayleigh-Ritz step, eigh(X^T N X), then gives the
    ascending Ritz values and the orthonormal Ritz vectors X W.  With
    cut = _KERNEL_GAP * max(theta), the scale of _kernel_dimension's own cut,
    a sweep meets the stopping rule when every pair the count takes has
    |N v - theta v| <= cut and every other pair's residual interval
    theta +- |N v - theta v| stays above the cut.
    Sweeps stop when two in a row meet it with the same count; the repeat
    keeps a first sweep whose kernel pairs still sit above the cut from
    passing with nothing counted, and leaves the kernel vectors exact to
    rounding.

    A sweep multiplies the kernel, and any eigenvalue below |sigma|, by at
    least 1 / (2 |sigma|), far above 1 / lambda_{want+1}, so those directions
    converge in a few sweeps.  The other Ritz values are upper bounds on the
    eigenvalues (Cauchy interlacing) and only set the scale of the cut.
    Dense eigh where the window spans the matrix (want >= dim - 1).
    """
    dim = normal.shape[0]
    want = min(dim, max(betti + 4, 6))
    try:
        if want >= dim - 1:
            return np.linalg.eigh(normal.toarray())
        sigma = -1e-6 * max(abs(normal).max(), 1.0)
        # in CSC already, so that the shifted CSR copy is freed before SuperLU runs
        lu = _spd_factor((normal - sigma * sp.identity(dim)).tocsc())
        block = np.random.default_rng(0).standard_normal((dim, want))
        held = None
        for _ in range(_MAX_SWEEPS):
            block = np.linalg.qr(lu.solve(block))[0]
            image = normal @ block
            theta, rot = np.linalg.eigh(block.T @ image)
            block, image = block @ rot, image @ rot
            counted = _kernel_dimension(theta)
            cut = _KERNEL_GAP * theta.max()
            residual = np.linalg.norm(image - block * theta, axis=0)
            # a window of all-small Ritz values bounds want eigenvalues below
            # the cut, so the count is the whole window whatever sweeps follow
            holds = counted == want or (np.all(residual[:counted] <= cut)
                                        and np.all(residual[counted:] < theta[counted:] - cut))
            if holds and held == counted:
                return theta, block
            held = counted if holds else None
    except (RuntimeError, ValueError) as exc:  # SuperLU, LinAlgError
        raise SolverFailureError(f"kernel eigensolve failed: {exc}") from exc
    raise SolverFailureError(f"kernel eigensolve did not converge in {_MAX_SWEEPS} sweeps")


def _kernel_dimension(lam: np.ndarray) -> int:
    """Eigenvalues below _KERNEL_GAP times the largest computed; all if none tops 1e-10."""
    lam = np.maximum(lam, 0.0)
    top = lam.max(initial=0.0)
    return int(np.sum(lam < _KERNEL_GAP * top)) if top > 1e-10 else len(lam)
