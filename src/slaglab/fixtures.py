"""Built-in analytic fixtures with closed-form expected values.

All calibrated fixtures are flat pieces of coordinate subtori of a square
torus, so every pullback, flux and period below has an exact closed form.
Orientation convention: the ambient is oriented by omega^n/n!, and fixture
meshes are oriented so that the discrete star of the tangent form reproduces
the dual form with sign +1 (frozen here after a one-off check; tests assert
the frozen signs).

  interval_c1          n=1 torus, L = [0, 1/2] x {y=0},           m=1
  cylinder_translation n=2 torus, L = [0, 1/2] x S^1 (flat),      m=1
  two_handle           n=2 torus, two disjoint flat cylinders,    m=2
  pair_of_pants        planar mesh (topology/metric tests only)
  mobius               non-orientable negative control

Closed form: each translation fixture moves handle k of axial width w_k
rigidly by a_k along y1.  In the pairing-normalized bases the relative flux
period over the axial cycle of handle k is -w_k a_k and the dual flux period
over its absolute cycle (the circumference; a boundary point for the
interval) is -a_k (`Fixture.expected_fluxes`); w_k is also the squared L2
norm of the unit tangent form of handle k.

Slides: translating a cylinder along its own circumference (x2) keeps it
calibrated and on its boundary Lagrangians and changes neither flux, so the
cylinder fixtures list e_x2 in `Fixture.slides`; the random oracle paths
move along the family and these slides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import AmbientModel, BoundaryLagrangian, make_model
from .errors import ConfigError
from .immersion import Immersion, ImmersionFamily
from .meshes import SimplicialMesh, build_mesh


@dataclass
class Fixture:
    name: str
    level: int
    mesh: SimplicialMesh
    model: AmbientModel | None
    base: Immersion | None
    lagrangians: list[BoundaryLagrangian]
    family: ImmersionFamily | None
    m: int
    widths: tuple = ()  # axial width of each translating handle
    slides: tuple = ()  # flux-neutral rigid directions, as 2n-vectors

    def expected_fluxes(self, amplitudes):
        """(relative, dual) flux periods of the straight path 0 -> amplitudes."""
        amp = np.asarray(amplitudes, dtype=float)
        if amp.shape != (len(self.widths),):
            raise ConfigError(
                f"path.amplitudes: the closed form of fixture {self.name!r} takes "
                f"{len(self.widths)} amplitudes, got shape {amp.shape}"
            )
        return -np.asarray(self.widths) * amp, -amp


_E_X2 = np.array([0.0, 0.0, 1.0, 0.0])


def _torus_model(n: int, almost_cy: bool) -> AmbientModel:
    """Flat square torus; almost_cy rescales the top form by 2 with rho = 2."""
    if almost_cy:
        return make_model(n, topology="torus", Omega_scale=2.0, rho=2.0)
    return make_model(n, topology="torus")


def _cylinder_mesh(n_axial: int, n_circ: int, vertex_offset: int = 0,
                   labels=(1, 2)):
    """Triangulated [0,1]_axial x S^1 strip; returns (tops, boundary_labels, n_vertices).

    Vertex (i, j) -> offset + i * n_circ + (j mod n_circ).  Triangle tuples are
    ordered so the oriented frame satisfies dx2 ^ dx1 > 0 (convention above).
    """
    def vid(i, j):
        return vertex_offset + i * n_circ + (j % n_circ)

    i, j = np.divmod(np.arange(n_axial * n_circ), n_circ)
    v00, v10, v01, v11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
    tops = np.c_[v10, v00, v11, v11, v00, v01].reshape(-1, 3)
    j = np.arange(n_circ)
    # bottom and top ring edge j, in turn
    rings = np.sort(np.c_[vid(0, j), vid(0, j + 1), vid(n_axial, j), vid(n_axial, j + 1)]
                    .reshape(-1, 2), axis=1)
    boundary = dict(zip(map(tuple, rings.tolist()), np.tile(labels, n_circ).tolist()))
    return list(map(tuple, tops.tolist())), boundary, (n_axial + 1) * n_circ


def _cylinder_positions(n_axial, n_circ, width, y1, y2):
    i, j = np.divmod(np.arange((n_axial + 1) * n_circ), n_circ)
    return np.c_[width * i / n_axial, np.full(len(i), y1), j / n_circ, np.full(len(i), y2)]


def cylinder_translation(level: int = 1, almost_cy: bool = False, width: float = 0.5) -> Fixture:
    """Flat calibrated cylinder in a 4-torus moving by vertical translation."""
    n_axial, n_circ = 8 * level, 16 * level
    model = _torus_model(2, almost_cy)
    tops, labels, n_vertices = _cylinder_mesh(n_axial, n_circ)
    mesh = build_mesh(n_vertices, tops, labels)
    base = Immersion(mesh, _cylinder_positions(n_axial, n_circ, width, 0.0, 0.0),
                     label="cylinder")
    e_y1 = np.array([0.0, 1.0, 0.0, 0.0])
    family = ImmersionFamily.translation(base, [e_y1], label="y1-translation")
    lams = [
        BoundaryLagrangian(1, np.array([0.0, 0.0, 0.0, 0.0]),
                           np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)),
        BoundaryLagrangian(2, np.array([width, 0.0, 0.0, 0.0]),
                           np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)),
    ]
    return Fixture("cylinder_translation", level, mesh, model, base, lams, family, 1,
                   widths=(width,), slides=(_E_X2,))


def interval_c1(level: int = 1, almost_cy: bool = False, width: float = 0.5) -> Fixture:
    """Straight segment in a 2-torus moving by vertical translation."""
    n_seg = 8 * level
    model = _torus_model(1, almost_cy)
    # segments point toward decreasing x, the orientation convention above
    segs = [(i + 1, i) for i in range(n_seg)]
    mesh = build_mesh(n_seg + 1, segs, {(0,): 1, (n_seg,): 2})
    pos = np.zeros((n_seg + 1, 2))
    pos[:, 0] = np.linspace(0.0, width, n_seg + 1)
    base = Immersion(mesh, pos, label="interval")
    family = ImmersionFamily.translation(base, [np.array([0.0, 1.0])],
                                         label="y-translation")
    lams = [
        BoundaryLagrangian(1, np.array([0.0, 0.0]), np.array([[0.0, 1.0]])),
        BoundaryLagrangian(2, np.array([width, 0.0]), np.array([[0.0, 1.0]])),
    ]
    return Fixture("interval_c1", level, mesh, model, base, lams, family, 1,
                   widths=(width,))


def two_handle(level: int = 1, almost_cy: bool = False,
               widths=(0.5, 0.25)) -> Fixture:
    """Two disjoint calibrated cylinders with independent vertical translations.

    The two handles sit at different heights in both imaginary directions, so
    the four boundary subtori are pairwise disjoint and the moduli dimension
    is two: one translation per handle.
    """
    w1, w2 = widths
    a1, c1 = 8 * level, 16 * level
    a2, c2 = 4 * level, 16 * level
    model = _torus_model(2, almost_cy)
    tops1, labels1, nv1 = _cylinder_mesh(a1, c1, vertex_offset=0, labels=(1, 2))
    tops2, labels2, nv2 = _cylinder_mesh(a2, c2, vertex_offset=nv1, labels=(3, 4))
    labels = dict(labels1)
    labels.update(labels2)
    mesh = build_mesh(nv1 + nv2, tops1 + tops2, labels)
    pos = np.vstack([
        _cylinder_positions(a1, c1, w1, 0.0, 0.0),
        _cylinder_positions(a2, c2, w2, 0.5, 0.5),
    ])
    base = Immersion(mesh, pos, label="two-handle")
    dir1 = np.zeros((nv1 + nv2, 4))
    dir1[:nv1, 1] = 1.0
    dir2 = np.zeros((nv1 + nv2, 4))
    dir2[nv1:, 1] = 1.0
    family = ImmersionFamily.translation(base, [dir1, dir2], label="independent y1")
    span = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    lams = [
        BoundaryLagrangian(1, np.array([0.0, 0.0, 0.0, 0.0]), span),
        BoundaryLagrangian(2, np.array([w1, 0.0, 0.0, 0.0]), span),
        BoundaryLagrangian(3, np.array([0.0, 0.5, 0.0, 0.5]), span),
        BoundaryLagrangian(4, np.array([w2, 0.5, 0.0, 0.5]), span),
    ]
    return Fixture("two_handle", level, mesh, model, base, lams, family, 2,
                   widths=(w1, w2), slides=(_E_X2,))


def pair_of_pants(level: int = 1) -> Fixture:
    """Planar disk with two square holes: pure mesh/metric fixture (no ambient)."""
    N = 8 * level
    holes = [
        (2 * level, 3 * level, 2 * level, 3 * level),
        (5 * level, 6 * level, 2 * level, 3 * level),
    ]

    def in_hole(ci, cj):
        return any(i0 <= ci < i1 and j0 <= cj < j1 for i0, i1, j0, j1 in holes)

    def vid(i, j):
        return i * (N + 1) + j

    tops = []
    for i in range(N):
        for j in range(N):
            if in_hole(i, j):
                continue
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tops.append((v00, v10, v11))
            tops.append((v00, v11, v01))
    # relabel used vertices densely
    used = sorted({v for t in tops for v in t})
    remap = {v: k for k, v in enumerate(used)}
    tops = [tuple(remap[v] for v in t) for t in tops]
    edge_count: dict[tuple, int] = {}
    for t in tops:
        for omit in range(3):
            e = tuple(sorted(v for k, v in enumerate(t) if k != omit))
            edge_count[e] = edge_count.get(e, 0) + 1
    inv = {k: v for v, k in remap.items()}
    labels = {}
    for e, cnt in edge_count.items():
        if cnt != 1:
            continue
        (i1, j1), (i2, j2) = (divmod(inv[e[0]], N + 1), divmod(inv[e[1]], N + 1))
        label = 1
        for idx, (hi0, hi1, hj0, hj1) in enumerate(holes):
            if (hi0 <= i1 <= hi1 and hj0 <= j1 <= hj1
                    and hi0 <= i2 <= hi1 and hj0 <= j2 <= hj1):
                label = 2 + idx
        labels[e] = label
    mesh = build_mesh(len(used), tops, labels)
    return Fixture("pair_of_pants", level, mesh, None, None, [], None, 2)


def mobius() -> list[tuple]:
    """Top simplices of a Moebius band; building this mesh must fail."""
    return [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]


FIXTURES = {
    "interval_c1": interval_c1,
    "cylinder_translation": cylinder_translation,
    "two_handle": two_handle,
    "pair_of_pants": pair_of_pants,
}


def build_fixture(name: str, level: int = 1, almost_cy: bool = False) -> Fixture:
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    if name == "pair_of_pants":
        return pair_of_pants(level)
    return FIXTURES[name](level, almost_cy=almost_cy)
