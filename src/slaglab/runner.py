"""Scenario-driven batch verification runner.

A scenario file selects a fixture, a family path, the suites to execute and
tolerance overrides.  Every executed check lands in the report exactly once
with a neutral statement of the law it verifies, the measured residual, the
tolerance and the verdict.  Reports are emitted as JSON and CSV with stable
ordering and formatting, so identical inputs produce byte-identical files.

Convergence studies rerun metric-sensitive checks over uniform refinement
levels and fit the observed order.  Residuals that sit at machine precision
on every level are reported with infinite order: the flat fixtures are exact
for constant-coefficient data, so the error has nothing to decrease from.
"""

from __future__ import annotations

import functools
import inspect
import json
import keyword
import math
import os
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .ambient import BoundaryLagrangian, make_model
from .charts import (
    AtlasReport,
    chart_jacobian,
    evaluate_chart,
    hessian_fit,
    l2_gram,
    pairing_structure,
    pullback_BW,
    sample_grid,
    tangent_cochains,
    transition_affine_fit,
)
from .dec import Cochain, HodgeStructure, harmonic_fields, hodge_star
from .errors import ConfigError, SlagError
from .fixtures import FIXTURES, Fixture, build_fixture
from .flux import (
    LAGRANGIAN_GATE,
    ImmersionPath,
    dual_form,
    homotopy_invariance_harness,
    path_fluxes,
    swept_rf_oracle,
    swept_sf_oracle,
    tangent_one_form,
)
from .immersion import Immersion, ImmersionFamily, pullback_metric, validate
from .meshes import absolute_cycle_basis, betti_profile, mesh_from_dict, relative_cycle_basis

_EXACTNESS_FLOOR = 1e-10  # a residual at or below it on every level has order inf
_DUALITY_PROBES = 5  # samples of the straight path at which the duality residual is read

DEFAULT_TOLERANCES = {
    "tangent_closedness": 1e-12,
    "tangent_boundary": 1e-12,
    "dual_closedness": 1e-12,
    "duality_error": 2e-2,
    "flux_oracle": 1e-8,
    "homotopy": 1e-8,
    "closed_form": 1e-10,
    "chart_dR": 1e-6,
    "chart_dS": 5e-2,
    "transition_residual": 1e-6,
    "transition_identity": 1e-12,
    "transition_volume": 1e-6,
    "w_pullback": 1e-6,
    "b_vs_l2": 5e-2,
    "hessian_symmetry": 1e-6,
}

# Every check a suite may yield: name -> (statement, tolerance).  The tolerance is a
# DEFAULT_TOLERANCES key, which a scenario may override, a fixed bound, or None for a
# pass/fail flag.  A suite yields (check, value) or (check, (value, detail)), and only
# `run` turns what it yields into a report entry.
CHECKS = {
    "topology/rank_duality":
        ("relative first cohomology rank equals codegree-one cohomology rank", None),
    "topology/boundary_squared": ("boundary of boundary vanishes (exact)", 0.0),
    "topology/harmonic_counts": ("constrained harmonic field counts match homology ranks", None),
    "tangent_laws/path_samples_valid":
        ("path samples satisfy the immersion and boundary constraints", None),
    "tangent_laws/theta_closed":
        ("tangent one-form of a constrained Lagrangian path is closed", "tangent_closedness"),
    "tangent_laws/theta_boundary":
        ("tangent one-form vanishes on boundary edges", "tangent_boundary"),
    "tangent_laws/phi_closed": ("dual form of a calibrated path is closed", "dual_closedness"),
    "duality/star_theta_equals_phi":
        ("the metric star of the tangent form equals the dual form", "duality_error"),
    "flux_oracles/relative_fixture":
        ("relative flux periods equal swept-surface integrals over basis chains", "flux_oracle"),
    "flux_oracles/special_fixture":
        ("dual flux periods equal swept-cylinder integrals over basis cycles", "flux_oracle"),
    "flux_oracles/random_paths":
        ("flux periods match sweep oracles on seeded random analytic paths", "flux_oracle"),
    "homotopy/relative_flux":
        ("relative flux is unchanged between endpoint-fixed homotopic paths", "homotopy"),
    "homotopy/special_flux":
        ("dual flux is unchanged between endpoint-fixed homotopic paths", "homotopy"),
    "homotopy/sweep_constancy":
        ("swept integral is constant along the homotopy parameter", "homotopy"),
    "closed_form/relative_flux":
        ("relative flux periods match the translation closed form", "closed_form"),
    "closed_form/special_flux":
        ("dual flux periods match the translation closed form", "closed_form"),
    "chart_derivative/dR_periods":
        ("chart derivative along the first flux equals tangent-form periods", "chart_dR"),
    "chart_derivative/dS_periods":
        ("chart derivative along the dual flux equals starred tangent-form periods", "chart_dS"),
    "transitions/translation_identity":
        ("basepoint change along a connecting path is a pure translation", "transition_identity"),
    "transitions/affine_residual":
        ("transition map between chart samples is affine", "transition_residual"),
    "transitions/volume":
        ("transition linear part preserves volume with determinant one", "transition_volume"),
    "embedding/W_vanishes":
        ("pullback of the symplectic pairing vanishes on the chart image", "w_pullback"),
    "embedding/B_matches_l2":
        ("pullback of the duality metric equals the tangent-form L2 Gram matrix", "b_vs_l2"),
    "embedding/gradient_graph":
        ("dual coordinates form a gradient graph over the chart coordinates", "hessian_symmetry"),
}


@dataclass
class CheckResult:
    name: str
    statement: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    scenario_name: str
    fixture: str
    level: int
    almost_cy: bool
    checks: list[CheckResult] = field(default_factory=list)
    mesh_stats: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    atlas: object = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def listed(self) -> list:
        """The checks as every printout and report file lists them: failures first, by name."""
        return sorted(self.checks, key=lambda c: (c.passed, c.name))


@dataclass
class Scenario:
    name: str
    fixture: str
    level: int = 1
    almost_cy: bool = False
    mesh_file: str | None = None
    family_spec: dict | None = None
    model_spec: dict | None = None
    lagrangian_spec: list | None = None
    amplitudes: list = field(default_factory=lambda: [0.3])
    n_samples: int = 33
    n_samples_smooth: int = 129
    s_curve_strength: float = 0.5
    suites: list = field(default_factory=lambda: list(SUITES))
    tolerances: dict = field(default_factory=dict)
    grid_radius: float = 0.1
    grid_points: int = 7
    n_random_paths: int = 20
    seed: int = 20240817
    out: str | None = None

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])


class _Workspace:
    """Lazily-built per-scenario objects shared across suites."""

    def __init__(self, scenario: Scenario, level=None):
        self.scenario = scenario
        if scenario.mesh_file is not None:
            try:
                with open(scenario.mesh_file, "r", encoding="utf-8") as fh:
                    mesh = mesh_from_dict(json.load(fh))
            except (OSError, SlagError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"fixture.mesh_file {scenario.mesh_file!r}: {exc}") from exc
            self.fixture = Fixture("mesh_file", 1, mesh, None, None, [], None)
        else:
            self.fixture: Fixture = build_fixture(
                scenario.fixture, level or scenario.level, almost_cy=scenario.almost_cy
            )
        if self.fixture.model is None:  # a mesh only: no block to apply, no flux to check
            for key, spec in (("model", scenario.model_spec), ("family", scenario.family_spec),
                              ("lagrangians", scenario.lagrangian_spec)):
                if spec is not None:
                    raise ConfigError(f"{key}: fixture {self.fixture.name!r} has no ambient "
                                      "model to apply this block to")
            if scenario.almost_cy:
                raise ConfigError(f"fixture.almost_cy: fixture {self.fixture.name!r} has no "
                                  "ambient model to rescale")
            needs = [suite for suite in scenario.suites if suite != "topology"]
            if needs:
                raise ConfigError(f"suites: fixture {self.fixture.name!r} has no ambient model, "
                                  f"so only 'topology' runs on it; got {needs}")
        if scenario.model_spec is not None:
            spec = dict(scenario.model_spec)
            if spec.setdefault("n", self.fixture.model.n) != self.fixture.model.n:
                raise ConfigError("model.n must match the fixture dimension")
            spec.setdefault("topology", self.fixture.model.topology)
            try:
                self.fixture.model = make_model(**spec)
            except (SlagError, TypeError, ValueError) as exc:
                raise ConfigError(f"model: {exc}") from exc
        if scenario.lagrangian_spec is not None:
            n, d = self.fixture.model.n, self.fixture.mesh.n_components
            self.fixture.lagrangians = []
            for i, lam in enumerate(scenario.lagrangian_spec):
                basepoint = np.asarray(lam["basepoint"], dtype=float)
                span = np.asarray(lam["span"], dtype=float)
                if basepoint.shape != (2 * n,) or span.shape != (n, 2 * n):
                    raise ConfigError(f"lagrangians[{i}] needs a basepoint of {2 * n} numbers "
                                      f"and {n} span rows of {2 * n}")
                self.fixture.lagrangians.append(BoundaryLagrangian(lam["index"], basepoint, span))
            indices = sorted(lam["index"] for lam in scenario.lagrangian_spec)
            if indices != list(range(1, d + 1)):
                raise ConfigError(f"lagrangians: indices {indices} must be the boundary "
                                  f"labels 1..{d}, each once")
        if scenario.model_spec is not None or scenario.lagrangian_spec is not None:
            self._check_lagrangians(scenario.lagrangian_spec is not None)
        if scenario.family_spec is not None:
            spec = scenario.family_spec
            try:
                self.fixture.family = ImmersionFamily.from_expressions(
                    self.fixture.base, self.fixture.model.n, spec["expressions"],
                    spec["parameters"], constants=spec.get("constants"))
            except ConfigError as exc:
                raise ConfigError(f"family: {exc}") from exc
            got, cycles = self.fixture.family.n_params, self.fixture.mesh.betti_profile().b_rel_1
            if got != cycles:
                raise ConfigError(f"family.parameters: got {got}, need one per relative cycle "
                                  f"of the mesh, {cycles}")
        self._straight_paths: dict = {}  # sample count -> straight path
        self.transition_fits: dict = {}  # set by the transitions suite
        self.atlas = None  # set by the embedding suite

    def _check_lagrangians(self, from_block: bool) -> None:
        """Refuse spans that are not Lagrangian under the final model, or that meet.

        A failure names the `lagrangians` block if it gave the spans, else `model`.
        """
        model, n, tiny = self.fixture.model, self.fixture.model.n, np.finfo(float).tiny
        for i, lam in enumerate(self.fixture.lagrangians):
            # unit rows, scaled to largest entry 1 first so that no norm overflows
            rows = lam.span / np.abs(lam.span).max(axis=1, keepdims=True).clip(tiny)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True).clip(tiny)
            rank = np.linalg.matrix_rank(rows)
            omega = model.lagrangian_residual(BoundaryLagrangian(lam.index, lam.basepoint, rows))
            if rank < n or not omega <= LAGRANGIAN_GATE:
                name = (f"lagrangians[{i}].span" if from_block
                        else f"model: boundary {lam.index}'s span")
                raise ConfigError(f"{name} must span a Lagrangian {n}-plane: "
                                  f"rank {rank}, omega {omega:.3e} on its unit rows")
        try:
            model.check_disjoint(self.fixture.lagrangians)
        except SlagError as exc:
            raise ConfigError(f"{'lagrangians' if from_block else 'model'}: {exc}") from exc

    @functools.cached_property
    def rel_abs(self):
        rel = relative_cycle_basis(self.fixture.mesh)
        ab = absolute_cycle_basis(self.fixture.mesh)
        if self.fixture.model is not None:
            ab = pairing_structure(self.structure, rel, ab).absolute
        return rel, ab

    @property
    def start(self) -> Immersion:
        """The family at u = 0, where every path of the suites starts.

        A `family` block may move it away from the fixture's base.  Each read
        evaluates it, so that no workspace holds a second copy of the vertex
        positions while it solves for harmonic fields.
        """
        family = self.fixture.family
        return Immersion(self.fixture.mesh, family.positions(np.zeros(family.n_params)))

    @functools.cached_property
    def structure(self) -> HodgeStructure:
        """The Hodge structure of the start's pulled-back metric."""
        return HodgeStructure(self.fixture.mesh, pullback_metric(self.fixture.model, self.start))

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The path amplitudes, one per family parameter, checked on first use.

        Amplitudes so large that the square of the straight path's velocities
        summed over a simplex overflows are a configuration error, not a failed
        check: the positions stay finite, the flux integrands or the duality
        norm's squares of them do not.  A NaN velocity is the family's own and
        is left to the checks.
        """
        amp = np.asarray(self.scenario.amplitudes, dtype=float)
        fx = self.fixture
        m = fx.family.n_params
        if amp.shape != (m,):
            raise ConfigError(
                f"path.amplitudes needs {m} entries for fixture "
                f"{fx.name!r}, got {amp.shape[0]}"
            )
        simplices = [fx.mesh.simplices[k] for k in {1, fx.mesh.dim - 1}]
        with np.errstate(over="ignore", invalid="ignore"):  # one sample at a time
            sums = (fx.family.velocity(t * amp, amp)[simp].sum(axis=1)
                    for t in np.linspace(0.0, 1.0, self.scenario.n_samples)
                    for simp in simplices)
            overflow = any(np.isinf(np.square(s)).any() for s in sums)
        if overflow:
            raise ConfigError(
                f"path.amplitudes {amp.tolist()} are too large: the square of the "
                "straight path's velocities summed over a simplex overflows"
            )
        amp.flags.writeable = False  # every caller shares the checked array
        return amp

    def straight_path(self, n_samples=None):
        """The straight path 0 -> amplitudes, built once per sample count.

        Edge vectors that overflow are a config error, raised on every call.
        The check evaluates the path's positions a block at a time, as a flux
        pass does.
        """
        n_samples = n_samples or self.scenario.n_samples
        if n_samples not in self._straight_paths:
            path = ImmersionPath.straight(self.fixture.family, self.amplitudes, n_samples)
            edges, limit = self.fixture.mesh.simplices[1], np.finfo(float).max / 2
            blocks = (path.family.positions(path.u[block]) for block in path.blocks())
            with np.errstate(over="ignore", invalid="ignore"):
                # |a - b| <= 2 max |x|, so only a sample above half the largest float can overflow
                overflow = any(np.isinf(s[edges[:, 1]] - s[edges[:, 0]]).any()
                               for x in blocks for s in x[np.abs(x).max(axis=(1, 2)) > limit])
            if overflow:
                raise ConfigError("family: the straight path's edge vectors overflow, so its "
                                  "frames are not finite")
            self._straight_paths[n_samples] = path
        return self._straight_paths[n_samples]

    @functools.cached_property
    def straight_fluxes(self):
        """(relative, dual) flux classes of the straight path, computed once.

        A failed pass is not kept: it runs, and raises, again for every suite that asks.
        """
        rel, ab = self.rel_abs
        return path_fluxes(self.fixture.model, self.straight_path(), rel, ab)

    def s_curve(self, strength=None):
        """S-profiled parameter curve 0 -> amplitudes and its derivative, on (T,) times."""
        amp = self.amplitudes
        if strength is None:
            strength = self.scenario.s_curve_strength
        p = lambda t: t - strength * np.sin(2 * np.pi * t) / (2 * np.pi)
        dp = lambda t: 1 - strength * np.cos(2 * np.pi * t)
        return (lambda t: p(t)[:, None] * amp), (lambda t: dp(t)[:, None] * amp)

    def s_curve_path(self, n_samples=None):
        return ImmersionPath(self.fixture.family, *self.s_curve(),
                             n_samples or self.scenario.n_samples_smooth)


# -- suites -------------------------------------------------------------------------------


def _suite_topology(ws: _Workspace):
    mesh = ws.fixture.mesh
    profile = betti_profile(mesh)
    unchecked = ("" if ws.fixture.model is not None
                 else "; harmonic_counts not run: no ambient metric")
    yield "rank_duality", (profile.duality_holds,
                           f"b_rel_1={profile.b_rel_1}, betti={profile.betti}{unchecked}")
    dd = 0.0
    for k in range(2, mesh.dim + 1):
        prod = mesh.boundary_operator(k - 1) @ mesh.boundary_operator(k)
        dd = max(dd, float(abs(prod).max()) if prod.nnz else 0.0)
    yield "boundary_squared", dd
    if ws.fixture.model is not None:
        ws.rel_abs  # builds the cycle bases and certifies their pairing
        dirichlet = harmonic_fields(ws.structure, "dirichlet")
        neumann = harmonic_fields(ws.structure, "neumann")
        yield "harmonic_counts", (
            len(dirichlet) == profile.b_rel_1 and len(neumann) == profile.b_top_minus_1,
            f"dirichlet={len(dirichlet)}, neumann={len(neumann)}")


def _suite_tangent_laws(ws: _Workspace):
    path = ws.straight_path()
    endpoint_reports = [
        validate(ws.fixture.model, path.immersion_at(j), ws.fixture.lagrangians)
        for j in (0, path.n_samples // 2, path.n_samples - 1)
    ]
    yield "path_samples_valid", (
        all(r.ok for r in endpoint_reports),
        f"worst containment {max(r.boundary_distance for r in endpoint_reports):.2e}")
    rf, sf = ws.straight_fluxes
    yield "theta_closed", rf.diagnostics["max_sample_closedness"]
    yield "theta_boundary", rf.diagnostics["max_sample_boundary_value"]
    yield "phi_closed", sf.diagnostics["max_sample_closedness"]


def _duality_residual(ws: _Workspace):
    """Max relative mass-norm error of star(theta) - phi over probe times.

    The probes are the samples of the _DUALITY_PROBES-sample straight path, at equally
    spaced times from 0 to 1.  Each probe is starred with the Hodge structure
    of its own immersion's metric.  A probe whose top frames equal the start
    immersion's bit for bit has the start's metric bit for bit, so the
    workspace's structure serves it; the frames cost a tenth of the metric
    (its Gram products and validation).
    """
    model, mesh, path = ws.fixture.model, ws.fixture.mesh, ws.straight_path(_DUALITY_PROBES)
    start = ws.start.simplex_frames(model, mesh.dim)
    worst = 0.0
    for j in range(_DUALITY_PROBES):
        sample = path.immersion_at(j)
        structure = (ws.structure if np.array_equal(sample.simplex_frames(model, mesh.dim), start)
                     else HodgeStructure(mesh, pullback_metric(model, sample)))
        theta = tangent_one_form(model, path, j)
        phi = dual_form(model, path, j)
        st = hodge_star(structure, theta)
        diff = Cochain(mesh, phi.degree, st.values - phi.values)
        denom = max(structure.norm(phi), 1e-300)
        worst = float(np.maximum(worst, structure.norm(diff) / denom))
    return worst


def _involution_residual(ws: _Workspace):
    """Relative mass-norm error of the star involution on a curved test form.

    The test cochain samples a non-constant analytic one-form, which Whitney
    interpolation cannot represent exactly, so this error genuinely shrinks
    under refinement (unlike the flat fixture data, which is exact).
    """
    fx = ws.fixture
    mesh = fx.mesh
    structure = ws.structure
    if mesh.dim != 2:
        return None
    edges = mesh.simplices[1]
    pos = ws.start.positions
    a = pos[edges[:, 0]]
    w = fx.model.wrap_displacement(pos[edges[:, 1]] - pos[edges[:, 0]])
    nodes, weights = np.polynomial.legendre.leggauss(4)
    vals = np.zeros(len(edges))
    for nd, wt in zip(nodes, weights):
        s = 0.5 * (nd + 1.0)
        x2 = a[:, 2] + s * w[:, 2]
        vals += 0.5 * wt * np.sin(2 * np.pi * x2) * w[:, 0]
    alpha = Cochain(mesh, 1, vals)
    stst = hodge_star(structure, hodge_star(structure, alpha))
    sign = (-1) ** (1 * (mesh.dim - 1))
    diff = Cochain(mesh, 1, stst.values - sign * alpha.values)
    return structure.norm(diff) / max(structure.norm(alpha), 1e-300)


def _suite_duality(ws: _Workspace):
    yield "star_theta_equals_phi", _duality_residual(ws)


def _random_rigid_path(ws: _Workspace, rng: np.random.Generator, n_samples: int):
    """Smooth random profile through the fixture family and its flux-neutral slides.

    Parameter k follows amps[k] * t + coefs[k, 0] sin(pi t) + coefs[k, 1] sin(2 pi t).
    """
    fx = ws.fixture
    m, slides = fx.family.n_params, fx.slides
    amps = rng.uniform(-0.2, 0.2, size=m)
    coefs = rng.uniform(-0.05, 0.05, size=(m + len(slides), 2))
    amps = np.concatenate([amps, rng.uniform(-0.2, 0.2, size=len(slides))])

    def slid(out, u):
        for k, d in enumerate(slides):
            out = out + u[..., m + k, None, None] * d
        return out

    def curve(t):
        t = t[:, None]
        return amps * t + coefs[:, 0] * np.sin(np.pi * t) + coefs[:, 1] * np.sin(2 * np.pi * t)

    def dcurve(t):
        t = t[:, None]
        return (
            amps
            + coefs[:, 0] * np.pi * np.cos(np.pi * t)
            + coefs[:, 1] * 2 * np.pi * np.cos(2 * np.pi * t)
        )

    family = ImmersionFamily(
        fx.mesh, m + len(slides),
        lambda u, vertices: slid(fx.family.positions(u[..., :m], vertices), u),
        lambda u, w: slid(fx.family.velocity(u[..., :m], w[..., :m]), w),
    )
    return ImmersionPath(family, curve, dcurve, n_samples)


def _suite_flux_oracles(ws: _Workspace):
    scenario = ws.scenario
    rel, ab = ws.rel_abs
    model = ws.fixture.model
    path = ws.straight_path()
    rf, sf = ws.straight_fluxes
    worst_rf = np.abs(swept_rf_oracle(model, path, rel) - rf.period_vector).max()
    worst_sf = np.abs(swept_sf_oracle(model, path, ab) - sf.period_vector).max()
    yield "relative_fixture", worst_rf
    yield "special_fixture", worst_sf
    rng = np.random.default_rng(scenario.seed)
    worst_rand = 0.0
    for _ in range(scenario.n_random_paths):
        rpath = _random_rigid_path(ws, rng, scenario.n_samples_smooth)
        rrf, rsf = path_fluxes(model, rpath, rel, ab)
        worst_rand = float(np.max([
            worst_rand,
            np.abs(swept_rf_oracle(model, rpath, rel) - rrf.period_vector).max(),
            np.abs(swept_sf_oracle(model, rpath, ab) - rsf.period_vector).max(),
        ]))
    yield "random_paths", (worst_rand, f"{scenario.n_random_paths} paths, seed {scenario.seed}")


def _suite_homotopy(ws: _Workspace):
    rel, ab = ws.rel_abs
    straight = ws.straight_path(n_samples=ws.scenario.n_samples_smooth)
    curved = ws.s_curve_path()
    hom = homotopy_invariance_harness(
        ws.fixture.model, straight, curved, rel, ab,
        homotopy=lambda u: ws.s_curve(strength=ws.scenario.s_curve_strength * u)[0],
    )
    yield "relative_flux", hom.rf_discrepancy
    yield "special_flux", hom.sf_discrepancy
    yield "sweep_constancy", hom.sweep_deviation


def _suite_closed_form(ws: _Workspace):
    rf_expect, sf_expect = ws.fixture.expected_fluxes(ws.amplitudes)
    rf, sf = ws.straight_fluxes
    yield "relative_flux", (float(np.abs(rf.period_vector - rf_expect).max()),
                            f"periods {rf.period_vector.tolist()}")
    yield "special_flux", (float(np.abs(sf.period_vector - sf_expect).max()),
                           f"periods {sf.period_vector.tolist()}")


def _suite_chart_derivative(ws: _Workspace):
    rel, ab = ws.rel_abs
    jac = chart_jacobian(ws.fixture.model, ws.fixture.family, ws.structure, rel, ab)
    yield "dR_periods", jac.dR_error
    yield "dS_periods", jac.dS_error


def _suite_transitions(ws: _Workspace):
    fx = ws.fixture
    rel, ab = ws.rel_abs
    m = fx.family.n_params
    rng = np.random.default_rng(ws.scenario.seed + 1)
    base_pts = rng.uniform(-0.08, 0.1, size=(2 * (m + 1) + 1, m))
    n = ws.scenario.n_samples
    samples_1 = [evaluate_chart(fx.model, fx.family, u, rel, ab, n) for u in base_pts]
    shift = np.full(m, 0.04)
    shift_sample = evaluate_chart(fx.model, fx.family, shift, rel, ab, n)
    samples_2 = [evaluate_chart(fx.model, fx.family, u - shift, rel, ab, n, base_shift=shift)
                 for u in base_pts]
    worst_identity = worst_res = worst_vol = 0.0
    for coord in ("R", "S"):
        fit = transition_affine_fit(samples_1, samples_2, coord)
        ws.transition_fits[f"basepoint_shift_{coord}"] = fit
        expected_b = -(shift_sample.R if coord == "R" else shift_sample.S)
        worst_identity = float(np.max([worst_identity, np.abs(fit.A - np.eye(m)).max(),
                                       np.abs(fit.b - expected_b).max()]))
        worst_res = float(np.maximum(worst_res, fit.residual))
        worst_vol = float(np.maximum(worst_vol, fit.volume_defect))
    yield "translation_identity", worst_identity
    yield "affine_residual", worst_res
    yield "volume", worst_vol


def _b_vs_l2(ws: _Workspace, points_per_axis: int):
    """Chart grid, its B/W pullback, the tangent-form L2 Gram and their relative gap."""
    fx = ws.fixture
    rel, ab = ws.rel_abs
    grid = sample_grid(
        fx.model, fx.family, rel, ab,
        radius=ws.scenario.grid_radius, points_per_axis=points_per_axis,
    )
    emb = pullback_BW(grid)
    L2 = l2_gram(ws.structure, tangent_cochains(fx.model, fx.family))
    rel_err = float(np.abs(emb.B_gram - L2).max() / max(np.abs(L2).max(), 1e-300))
    return grid, emb, L2, rel_err


def _suite_embedding(ws: _Workspace):
    grid, emb, L2, rel_err = _b_vs_l2(ws, ws.scenario.grid_points)
    yield "W_vanishes", emb.W_max
    yield "B_matches_l2", (rel_err, f"B={emb.B_gram.tolist()}, L2={L2.tolist()}")
    hess = hessian_fit(grid)
    yield "gradient_graph", (hess.symmetry_residual, f"hessian={hess.hessian.tolist()}")
    # shares the transitions suite's fits, whichever of the two suites runs first
    ws.atlas = AtlasReport(ws.transition_fits, L2, emb.B_gram, emb.W_max, hess)


# Every suite, in the default run order, as a generator of its checks.
SUITES = {
    "topology": _suite_topology,
    "tangent_laws": _suite_tangent_laws,
    "duality": _suite_duality,
    "flux_oracles": _suite_flux_oracles,
    "homotopy": _suite_homotopy,
    "closed_form": _suite_closed_form,
    "chart_derivative": _suite_chart_derivative,
    "transitions": _suite_transitions,
    "embedding": _suite_embedding,
}


# -- scenario files ------------------------------------------------------------------------


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_dict(data, default_name=os.path.splitext(os.path.basename(path))[0])


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _integer(low: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low


def _vector(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


def _names(v) -> bool:
    return (isinstance(v, list) and all(isinstance(s, str) and s.isidentifier()
                                        and not keyword.iskeyword(s) for s in v)
            and len(set(v)) == len(v))


# section -> key -> (Scenario field or None, predicate, what it must be).  A section name
# in place of the predicate is a nested object checked against that section, and a name
# ending in "[]" a list of such objects.  Defaults live on `Scenario` only.
_SCHEMA = {
    "scenario": {
        "name": ("name", lambda v: isinstance(v, str), "a string"),
        "fixture": (None, "fixture", None),
        "path": (None, "path", None),
        "grid": (None, "grid", None),
        "tolerances": ("tolerances", "tolerances", None),
        "model": ("model_spec", "model", None),
        "family": ("family_spec", "family", None),
        "lagrangians": ("lagrangian_spec", "lagrangians[]", None),
        "suites": ("suites", lambda v: isinstance(v, list) and len(v) > 0
                   and all(s in SUITES for s in v) and len(set(v)) == len(v),
                   f"a nonempty list of distinct suites from {list(SUITES)}"),
        "random_paths": ("n_random_paths", _integer(1), "a positive integer"),
        "seed": ("seed", _integer(0), "a nonnegative integer"),
        "out": ("out", lambda v: isinstance(v, str), "a directory name"),
    },
    "fixture": {
        "name": ("fixture", lambda v: isinstance(v, str) and v in FIXTURES,
                 f"one of {sorted(FIXTURES)}"),
        "level": ("level", _integer(1), "a positive integer"),
        "almost_cy": ("almost_cy", lambda v: isinstance(v, bool), "true or false"),
        "mesh_file": ("mesh_file", lambda v: isinstance(v, str), "a file name"),
    },
    "path": {
        "amplitudes": ("amplitudes", lambda v: _vector(v) and len(v) > 0,
                       "a nonempty list of finite numbers"),
        "samples": ("n_samples", _integer(3), "an integer >= 3"),
        "samples_smooth": ("n_samples_smooth", _integer(3), "an integer >= 3"),
        "s_curve_strength": ("s_curve_strength", _number, "a finite number"),
    },
    "grid": {
        "points": ("grid_points", _integer(3), "an integer >= 3"),
        "radius": ("grid_radius", lambda v: _number(v) and v > 0, "a positive finite number"),
    },
    "tolerances": {key: (None, lambda v: _number(v) and v >= 0, "a nonnegative finite number")
                   for key in DEFAULT_TOLERANCES},
    # make_model checks the tensors it is given; its errors name `model` at set-up
    "model": {key: (None, lambda v: True, "")
              for key in inspect.signature(make_model).parameters} | {
        "n": (None, _integer(1), "a positive integer"),
        "topology": (None, lambda v: v in ("euclidean", "torus"), "'euclidean' or 'torus'"),
        "Omega_scale": (None, _number, "a finite number"),
        "rho": (None, lambda v: _number(v) and v > 0, "a positive finite number"),
    },
    "family": {
        "expressions": (None, lambda v: isinstance(v, dict)
                        and all(isinstance(e, str) for e in v.values()),
                        "an object of coordinate names to expression strings"),
        "parameters": (None, _names, "a list of distinct identifiers"),
        "constants": (None, lambda v: isinstance(v, dict) and all(map(_number, v.values())),
                      "an object of names to finite numbers"),
    },
    "lagrangians": {
        "index": (None, _integer(1), "a positive integer"),
        "basepoint": (None, _vector, "a list of finite numbers"),
        "span": (None, lambda v: isinstance(v, list) and len(v) > 0 and all(map(_vector, v))
                 and len({len(row) for row in v}) == 1,
                 "a nonempty list of equal-length number lists"),
    },
}
_REQUIRED = {"scenario": ("fixture",), "family": ("expressions", "parameters"),
             "lagrangians": ("index", "basepoint", "span")}


def _walk(data, section: str, where: str, fields: dict) -> None:
    """Check one scenario object against `_SCHEMA[section]`, collecting Scenario fields."""
    schema = _SCHEMA[section]
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)}; allowed {sorted(schema)}")
    prefix = "" if section == "scenario" else f"{where}."
    for key in _REQUIRED.get(section, ()):
        if key not in data:
            raise ConfigError(f"missing field '{prefix}{key}'")
    for key, value in data.items():
        fieldname, ok, what = schema[key]
        if isinstance(ok, str) and ok.endswith("[]"):
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a JSON list, got {value!r}")
            for i, item in enumerate(value):
                _walk(item, ok[:-2], f"{key}[{i}]", fields)
        elif isinstance(ok, str):
            _walk(value, ok, key, fields)
        elif not ok(value):
            raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
        if fieldname is not None:
            fields[fieldname] = value


def scenario_from_dict(data: dict, default_name: str = "scenario") -> Scenario:
    fields = {"name": default_name}
    _walk(data, "scenario", "scenario", fields)
    block = data.get("fixture", {})
    clash = [key for key in ("name", "level", "almost_cy") if key in block]
    if "mesh_file" in block and clash:
        raise ConfigError(f"fixture.{clash[0]} cannot be combined with fixture.mesh_file")
    if "fixture" not in fields and "mesh_file" not in fields:
        raise ConfigError("missing field 'fixture.name'")
    return Scenario(**{"fixture": "mesh_file", **fields})

def run(scenario: Scenario) -> RunReport:
    start = time.perf_counter()
    ws = _Workspace(scenario)
    report = RunReport(scenario.name, scenario.fixture, scenario.level, scenario.almost_cy)
    mesh = ws.fixture.mesh
    report.mesh_stats = {
        "dim": mesh.dim,
        "vertices": mesh.n_vertices,
        "simplices": [mesh.n_simplices(k) for k in range(mesh.dim + 1)],
        "boundary_components": mesh.n_components,
    }

    def record(name, statement, tolerance, value):
        value, detail = value if isinstance(value, tuple) else (value, "")
        if tolerance is None:  # a flag: 0.0 passes and 1.0 fails against 0.5
            value, tolerance = (0.0 if value else 1.0), 0.5
        elif isinstance(tolerance, str):
            tolerance = scenario.tol(tolerance)
        residual = float(value)
        report.checks.append(CheckResult(name, statement, residual, float(tolerance),
                                         residual <= tolerance, detail))  # NaN fails

    for suite in scenario.suites:
        try:
            for check, value in SUITES[suite](ws):  # each check lands as soon as it is yielded
                record(f"{suite}/{check}", *CHECKS[f"{suite}/{check}"], value)
        except ConfigError:
            raise
        except Exception as exc:
            # a SlagError is the suite's finding; anything else a defect, on which slag run
            # exits 3, named with the frame that raised it
            detail = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, SlagError):
                check, statement = "error", "suite executed without module errors"
            else:
                check, statement = "internal_error", "suite executed without internal errors"
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                detail += f" [{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}]"
            record(f"{suite}/{check}", statement, None, (False, detail))
    report.atlas = ws.atlas
    report.elapsed_seconds = time.perf_counter() - start
    return report


# -- convergence studies ----------------------------------------------------------------


@dataclass
class ConvergenceRow:
    level: int
    h: float
    residuals: dict


@dataclass
class ConvergenceTable:
    quantity_names: list
    rows: list
    orders: dict


def fit_order(hs, residuals):
    """Least-squares slope of log(residual) vs log(h); inf when pinned at _EXACTNESS_FLOOR."""
    res = np.asarray(residuals, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if np.all(res <= _EXACTNESS_FLOOR):
        return float("inf")
    if len(res) < 2:
        return float("nan")
    safe = np.maximum(res, 1e-300)
    slope, _ = np.polyfit(np.log(hs), np.log(safe), 1)
    return float(slope)


def _convergence_table(rows) -> ConvergenceTable:
    names = sorted(rows[0].residuals)
    hs = [r.h for r in rows]
    orders = {nm: fit_order(hs, [r.residuals[nm] for r in rows]) for nm in names}
    return ConvergenceTable(names, rows, orders)


def _study_workspace(scenario: Scenario, level=None) -> _Workspace:
    ws = _Workspace(scenario, level)
    if ws.fixture.model is None:
        raise ConfigError(f"fixture: {ws.fixture.name!r} has no ambient model, so it has no "
                          "flux or metric to study")
    return ws


def quadrature_study(scenario: Scenario, sample_counts) -> ConvergenceTable:
    """Flux period error against the closed form as the time quadrature refines.

    The path follows a smooth asymmetric ramp through the fixture translation
    family, so the composite-Simpson error is genuinely fourth order; the
    reference value is the straight-path flux, which is exact for rigid
    translations independently of the quadrature.
    """
    ws = _study_workspace(scenario)
    rel, ab = ws.rel_abs
    model = ws.fixture.model
    amp = ws.amplitudes
    rf_reference, sf_reference = (f.period_vector for f in ws.straight_fluxes)
    ramp = (
        lambda t: (np.exp(t) - 1.0) / (math.e - 1.0),
        lambda t: np.exp(t) / (math.e - 1.0),
    )
    rows = []
    for n in sample_counts:
        path = ImmersionPath.straight(ws.fixture.family, amp, n_samples=n, profile=ramp)
        rf, sf = path_fluxes(model, path, rel, ab)
        rows.append(ConvergenceRow(
            n, 1.0 / (n - 1),
            {
                "rf_quadrature_error": float(np.abs(rf.period_vector - rf_reference).max()),
                "sf_quadrature_error": float(np.abs(sf.period_vector - sf_reference).max()),
            },
        ))
    return _convergence_table(rows)


def convergence_study(scenario: Scenario, levels) -> ConvergenceTable:
    rows = []
    for level in levels:
        ws = _study_workspace(scenario, level)
        b_vs_l2 = _b_vs_l2(ws, 5)[3]
        residuals = {"duality_error": _duality_residual(ws), "b_vs_l2": b_vs_l2}
        involution = _involution_residual(ws)
        if involution is not None:  # a star involution on 1-forms needs dim 2
            residuals["star_involution"] = involution
        rows.append(ConvergenceRow(level, 1.0 / level, residuals))
    return _convergence_table(rows)


# -- emission ------------------------------------------------------------------------------


def _float_repr(x) -> str:
    if x == float("inf"):
        return "inf"
    return repr(float(x))


def _write_json(path, data) -> None:
    """Strict JSON: a non-finite float is written as the string the CSV uses."""

    def finite(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return _float_repr(obj)
        if isinstance(obj, dict):
            return {k: finite(v) for k, v in obj.items()}
        return [finite(v) for v in obj] if isinstance(obj, (list, tuple)) else obj

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(finite(data), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def report_to_dict(report: RunReport) -> dict:
    return {
        "version": __version__,
        "scenario": report.scenario_name,
        "fixture": report.fixture,
        "level": report.level,
        "almost_cy": report.almost_cy,
        "mesh": report.mesh_stats,
        "passed": report.passed,
        "checks": [asdict(c) for c in report.listed],
    }


def emit(report: RunReport, out_dir) -> list:
    """Write report files with deterministic bytes; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    data = report_to_dict(report)
    written = [os.path.join(out_dir, "report.json"), os.path.join(out_dir, "report.csv")]
    _write_json(written[0], data)
    lines = ["name,passed,residual,tolerance,statement"]
    for c in data["checks"]:
        lines.append(
            f"{c['name']},{int(c['passed'])},{_float_repr(c['residual'])},"
            f"{_float_repr(c['tolerance'])},\"{c['statement']}\""
        )
    with open(written[1], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if report.atlas is not None:
        written += [os.path.join(out_dir, "atlas.json"), os.path.join(out_dir, "atlas.csv")]
        _write_json(written[2], report.atlas.to_dict())
        with open(written[3], "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.atlas.to_csv_rows()) + "\n")
    return written


def emit_convergence(table: ConvergenceTable, out_dir, filename="convergence.csv") -> list:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    lines = ["level,h," + ",".join(table.quantity_names)]
    for row in table.rows:
        vals = ",".join(_float_repr(row.residuals[nm]) for nm in table.quantity_names)
        lines.append(f"{row.level},{_float_repr(row.h)},{vals}")
    lines.append(
        "order,," + ",".join(_float_repr(table.orders[nm]) for nm in table.quantity_names)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return [path]
