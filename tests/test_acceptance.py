"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and never loosened at runtime.  Residuals that the
flat fixtures make exactly representable sit at machine precision on every
refinement level; the convergence clauses treat an all-levels-at-floor run as
infinitely fast convergence and additionally require a genuinely converging
companion quantity (the star involution error on a curved test form) to show
order >= 1, so the refinement machinery itself is still exercised.
"""

import itertools
import time

import numpy as np
import pytest

from slaglab.charts import (
    GridSamples,
    chart_jacobian,
    evaluate_chart,
    hessian_fit,
    l2_gram,
    pullback_BW,
    sample_grid,
    tangent_cochains,
    transition_affine_fit,
)
from slaglab.dec import harmonic_fields
from slaglab.flux import (
    ImmersionPath,
    homotopy_invariance_harness,
    relative_flux,
    special_flux,
    swept_rf_oracle,
    swept_sf_oracle,
)
from slaglab.immersion import ImmersionFamily, reparametrize
from slaglab.meshes import CycleBasis, betti_profile
from slaglab.runner import (
    DEFAULT_TOLERANCES,
    Scenario,
    _Workspace,
    _duality_residual,
    _involution_residual,
    _random_rigid_path,
    fit_order,
)

EXACTNESS_FLOOR = 1e-10


def synthetic_grid(u_axis, v_of_u) -> GridSamples:
    """Grid with prescribed v(u) map; for negative controls."""
    m = 2
    pts = len(u_axis)
    shape = (pts,) * m
    u = np.zeros(shape + (m,))
    R = np.zeros(shape + (m,))
    S = np.zeros(shape + (m,))
    for idx in itertools.product(range(pts), repeat=m):
        uu = np.array([u_axis[i] for i in idx])
        u[idx] = uu
        R[idx] = uu
        S[idx] = v_of_u(uu)
    spacing = np.full(m, u_axis[1] - u_axis[0])
    return GridSamples(shape, spacing, u, R, S)


def _report(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:>2}] {verdict} {label} {detail}")
    return ok


def _workspace(name, level=1, almost_cy=False, **overrides):
    scenario = Scenario(name=f"acceptance-{name}", fixture=name, level=level,
                        almost_cy=almost_cy, **overrides)
    return _Workspace(scenario)


# -- criterion 1: tangent-form laws ---------------------------------------------------


def _criterion_tangent_laws(almost_cy=False):
    start = time.perf_counter()
    ws = _workspace("cylinder_translation", almost_cy=almost_cy)
    rel, ab = ws.rel_abs
    path = ImmersionPath.straight(ws.fixture.family, [0.3], n_samples=33)
    rf = relative_flux(ws.fixture.model, path, rel)
    sf = special_flux(ws.fixture.model, path, ab)
    elapsed = time.perf_counter() - start
    residuals = (
        rf.diagnostics["max_sample_closedness"],
        rf.diagnostics["max_sample_boundary_value"],
        sf.diagnostics["max_sample_closedness"],
    )
    return residuals, elapsed


def test_criterion_1_tangent_form_laws():
    residuals, elapsed = _criterion_tangent_laws()
    ok = max(residuals) <= 1e-12 and elapsed < 5.0
    assert _report(1, "tangent-form laws (closed, boundary-flat, dual closed)", ok,
                   f"residuals={[f'{r:.1e}' for r in residuals]} {elapsed:.2f}s")


# -- criterion 2: duality under refinement ---------------------------------------------


def _criterion_duality(almost_cy=False):
    start = time.perf_counter()
    levels = [1, 2, 4]
    duality, involution = [], []
    for level in levels:
        ws = _workspace("cylinder_translation", level=level, almost_cy=almost_cy)
        duality.append(_duality_residual(ws))
        involution.append(_involution_residual(ws))
    hs = [1.0 / lv for lv in levels]
    return duality, involution, fit_order(hs, duality), fit_order(hs, involution), (
        time.perf_counter() - start
    )


def test_criterion_2_hodge_duality_convergence():
    duality, involution, order_d, order_i, elapsed = _criterion_duality()
    decreasing = order_d >= 1.0  # infinite when pinned at machine precision
    ok = (
        duality[-1] <= 2e-2
        and decreasing
        and order_i >= 1.0
        and elapsed < 60.0
    )
    assert _report(
        2, "star(tangent form) = dual form under refinement", ok,
        f"duality={[f'{r:.1e}' for r in duality]} order={order_d:g}, "
        f"involution order={order_i:.2f}, {elapsed:.1f}s",
    )


# -- criterion 3: flux vs swept oracle ---------------------------------------------------


def _cycles(basis):
    """Each cycle of the basis as a basis of its own."""
    return [CycleBasis(basis.degree, basis.chains[:, [j]], basis.dual[:, [j]])
            for j in range(basis.m)]


def _criterion_flux_oracles(almost_cy=False, n_random=20):
    worst = 0.0
    for name, amps in (("cylinder_translation", [0.3]), ("interval_c1", [0.3]),
                       ("two_handle", [0.3, -0.2])):
        ws = _workspace(name, almost_cy=almost_cy)
        rel, ab = ws.rel_abs
        model = ws.fixture.model
        path = ImmersionPath.straight(ws.fixture.family, amps, n_samples=33)
        rf = relative_flux(model, path, rel)
        sf = special_flux(model, path, ab)
        for j, gamma in enumerate(_cycles(rel)):
            worst = max(worst, abs(swept_rf_oracle(model, path, gamma)[0]
                                   - rf.period_vector[j]))
        for j, sigma in enumerate(_cycles(ab)):
            worst = max(worst, abs(swept_sf_oracle(model, path, sigma)[0]
                                   - sf.period_vector[j]))
    ws = _workspace("cylinder_translation", almost_cy=almost_cy)
    rel, ab = ws.rel_abs
    model = ws.fixture.model
    rng = np.random.default_rng(20240817)
    for _ in range(n_random):
        path = _random_rigid_path(ws, rng, 129)
        rf = relative_flux(model, path, rel)
        sf = special_flux(model, path, ab)
        for j, gamma in enumerate(_cycles(rel)):
            worst = max(worst, abs(swept_rf_oracle(model, path, gamma)[0]
                                   - rf.period_vector[j]))
        for j, sigma in enumerate(_cycles(ab)):
            worst = max(worst, abs(swept_sf_oracle(model, path, sigma)[0]
                                   - sf.period_vector[j]))
    return worst


def test_criterion_3_flux_vs_swept_oracles():
    worst = _criterion_flux_oracles()
    ok = worst <= 1e-8
    assert _report(3, "flux periods equal swept-surface oracles", ok,
                   f"worst |period - oracle| = {worst:.2e}")


# -- criterion 4: homotopy invariance ---------------------------------------------------


def _criterion_homotopy(almost_cy=False):
    ws = _workspace("cylinder_translation", almost_cy=almost_cy)
    rel, ab = ws.rel_abs
    straight = ws.straight_path(n_samples=129)
    curved = ws.s_curve_path(n_samples=129)
    hom = homotopy_invariance_harness(ws.fixture.model, straight, curved, rel, ab)
    return hom.rf_discrepancy, hom.sf_discrepancy


def test_criterion_4_homotopy_invariance():
    drf, dsf = _criterion_homotopy()
    ok = drf <= 1e-8 and dsf <= 1e-8
    assert _report(4, "straight vs S-curve paths give equal fluxes", ok,
                   f"|dRF|={drf:.2e} |dSF|={dsf:.2e}")


# -- criterion 5: closed-form regression ---------------------------------------------------


def _criterion_closed_form(almost_cy=False):
    ws = _workspace("cylinder_translation", almost_cy=almost_cy)
    rel, ab = ws.rel_abs
    path = ImmersionPath.straight(ws.fixture.family, [0.3], n_samples=33)
    rf = relative_flux(ws.fixture.model, path, rel).period_vector
    sf = special_flux(ws.fixture.model, path, ab).period_vector
    return rf[0], sf[0]


def test_criterion_5_closed_form_regression():
    rf, sf = _criterion_closed_form()
    # width 1/2, amplitude 0.3; signs frozen by the orientation convention
    ok = abs(abs(rf) - 0.15) <= 1e-10 and abs(abs(sf) - 0.3) <= 1e-10
    ok = ok and rf == pytest.approx(-0.15, abs=1e-10) and sf == pytest.approx(
        -0.3, abs=1e-10
    )
    assert _report(5, "cylinder regression |RF| = 0.15, |SF| = 0.30", ok,
                   f"RF={rf:.12f} SF={sf:.12f}")


# -- criterion 6: chart derivative identity ---------------------------------------------------


def _criterion_chart_derivative(almost_cy=False):
    ws = _workspace("cylinder_translation", level=4, almost_cy=almost_cy)
    rel, ab = ws.rel_abs
    jac = chart_jacobian(ws.fixture.model, ws.fixture.family, ws.structure, rel, ab)
    return jac.dR_error, jac.dS_error


def test_criterion_6_chart_derivative_identity():
    dr_err, ds_err = _criterion_chart_derivative()
    ok = dr_err <= 1e-6 and ds_err <= 5e-2
    assert _report(6, "chart derivatives equal (starred) tangent-form periods", ok,
                   f"|dR err|={dr_err:.2e} |dS err|={ds_err:.2e} (level 4)")


# -- criterion 7: affine transitions ---------------------------------------------------


def _criterion_transitions(almost_cy=False):
    ws = _workspace("cylinder_translation", almost_cy=almost_cy)
    fx = ws.fixture
    rel, ab = ws.rel_abs
    us = [np.array([x]) for x in (-0.08, -0.02, 0.03, 0.07, 0.1)]
    shift = np.array([0.04])
    s1 = [evaluate_chart(fx.model, fx.family, u, rel, ab) for u in us]
    s2 = [evaluate_chart(fx.model, fx.family, u - shift, rel, ab, base_shift=shift)
          for u in us]
    worst_res = worst_vol = worst_id = 0.0
    for coordinate in ("R", "S"):
        fit = transition_affine_fit(s1, s2, coordinate)
        worst_res = max(worst_res, fit.residual)
        worst_vol = max(worst_vol, fit.volume_defect)
        worst_id = max(worst_id, float(np.abs(fit.A - np.eye(1)).max()))
    # same-orbit lift: reparametrized basepoint gives the identity transition
    n_circ = 16
    psi = np.array([
        (v // n_circ) * n_circ + ((v % n_circ) + 2) % n_circ
        for v in range(fx.mesh.n_vertices)
    ])
    base2 = reparametrize(fx.base, psi)
    family2 = ImmersionFamily.translation(base2, [np.array([0, 1, 0, 0.0])])
    s3 = [evaluate_chart(fx.model, family2, u, rel, ab) for u in us]
    fit = transition_affine_fit(s1, s3, "R")
    worst_res = max(worst_res, fit.residual)
    worst_vol = max(worst_vol, fit.volume_defect)
    worst_id = max(worst_id, float(np.abs(fit.A - np.eye(1)).max()),
                   float(np.abs(fit.b).max()))
    return worst_res, worst_vol, worst_id


def test_criterion_7_affine_transitions():
    worst_res, worst_vol, worst_id = _criterion_transitions()
    ok = worst_res <= 1e-6 and worst_vol <= 1e-6 and worst_id <= 1e-12
    assert _report(7, "transition maps are volume-preserving affine translations", ok,
                   f"residual={worst_res:.2e} |detA-1|={worst_vol:.2e} "
                   f"|A-I|,|b-shift|={worst_id:.2e}")


# -- criterion 8: embedding ---------------------------------------------------


def _criterion_embedding(almost_cy=False):
    ws = _workspace("two_handle", almost_cy=almost_cy,
                    amplitudes=[0.3, -0.2], grid_points=7, grid_radius=0.08)
    fx = ws.fixture
    rel, ab = ws.rel_abs
    grid = sample_grid(fx.model, fx.family, rel, ab, radius=0.08, points_per_axis=7)
    emb = pullback_BW(grid)
    hess = hessian_fit(grid)
    b_errors = []
    for level in (1, 2, 4):
        wsl = _workspace("two_handle", level=level, almost_cy=almost_cy)
        rel_l, ab_l = wsl.rel_abs
        grid_l = sample_grid(wsl.fixture.model, wsl.fixture.family, rel_l, ab_l,
                             radius=0.08, points_per_axis=5)
        emb_l = pullback_BW(grid_l)
        L2 = l2_gram(wsl.structure, tangent_cochains(wsl.fixture.model, wsl.fixture.family))
        b_errors.append(float(np.abs(emb_l.B_gram - L2).max()
                              / max(np.abs(L2).max(), 1e-300)))
    order = fit_order([1.0, 0.5, 0.25], b_errors)
    curl = hessian_fit(
        synthetic_grid(np.linspace(-0.1, 0.1, 5), lambda u: np.array([u[1], -u[0]])))
    curl_rejected = curl.symmetry_residual > DEFAULT_TOLERANCES["hessian_symmetry"]
    return emb.W_max, b_errors, order, hess.symmetry_residual, curl_rejected


def test_criterion_8_embedding():
    w_max, b_errors, order, sym, curl_rejected = _criterion_embedding()
    ok = (
        w_max <= 1e-6
        and b_errors[-1] <= 5e-2
        and order >= 1.0
        and sym <= 1e-6
        and curl_rejected
    )
    assert _report(8, "isometric Lagrangian embedding diagnostics", ok,
                   f"|W|={w_max:.2e} B-vs-L2={[f'{e:.1e}' for e in b_errors]} "
                   f"order={order:g} symmetry={sym:.2e} curl_rejected={curl_rejected}")


# -- criterion 9: topology ---------------------------------------------------


def test_criterion_9_topology():
    results = {}
    ok = True
    for name, expected in (("cylinder_translation", 1), ("two_handle", 2)):
        ws = _workspace(name)
        profile = betti_profile(ws.fixture.mesh)
        ws.rel_abs  # builds the cycle bases and certifies their pairing
        dirichlet = harmonic_fields(ws.structure, "dirichlet")
        neumann = harmonic_fields(ws.structure, "neumann")
        results[name] = (profile.b_rel_1, profile.b_top_minus_1,
                         len(dirichlet), len(neumann))
        ok = ok and profile.b_rel_1 == profile.b_top_minus_1 == expected
        ok = ok and len(dirichlet) == len(neumann) == expected
    assert _report(9, "relative/absolute rank equality and harmonic counts", ok,
                   f"{results}")


# -- criterion 10: almost Calabi-Yau mode ---------------------------------------------------


def test_criterion_10_almost_cy_mode():
    residuals_1, elapsed_1 = _criterion_tangent_laws(almost_cy=True)
    duality, involution, order_d, order_i, _ = _criterion_duality(almost_cy=True)
    worst_flux = _criterion_flux_oracles(almost_cy=True, n_random=20)
    drf, dsf = _criterion_homotopy(almost_cy=True)
    rf, sf = _criterion_closed_form(almost_cy=True)
    dr_err, ds_err = _criterion_chart_derivative(almost_cy=True)
    t_res, t_vol, t_id = _criterion_transitions(almost_cy=True)
    w_max, b_errors, order_b, sym, curl = _criterion_embedding(almost_cy=True)
    ok = (
        max(residuals_1) <= 1e-12
        and duality[-1] <= 2e-2 and order_d >= 1.0 and order_i >= 1.0
        and worst_flux <= 1e-8
        and drf <= 1e-8 and dsf <= 1e-8
        and rf == pytest.approx(-0.15, abs=1e-10)
        and sf == pytest.approx(-0.3, abs=1e-10)
        and dr_err <= 1e-6 and ds_err <= 5e-2
        and t_res <= 1e-6 and t_vol <= 1e-6 and t_id <= 1e-12
        and w_max <= 1e-6 and b_errors[-1] <= 5e-2 and order_b >= 1.0
        and sym <= 1e-6 and curl
    )
    assert _report(10, "conformal mode (rho = 2) re-passes criteria 1-8 unchanged", ok,
                   f"RF={rf:.12f} SF={sf:.12f} duality={duality[-1]:.1e} "
                   f"flux={worst_flux:.1e}")
