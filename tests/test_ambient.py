import numpy as np
import pytest

from slaglab.ambient import BoundaryLagrangian, ConstantForm, make_model, standard_top_form
from slaglab.errors import (
    ArityMismatchError,
    NormalizationFailureError,
    NotKaehlerError,
)


def vec(*entries):
    return np.array(entries, dtype=float)


def contract(form: ConstantForm, vector: np.ndarray) -> ConstantForm:
    """Interior product into the first slot with a constant vector."""
    vector = np.asarray(vector, dtype=float)
    out: dict = {}
    for idx, val in form.coeffs.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            out[rest] = out.get(rest, 0) + ((-1) ** pos) * val * vector[i]
    return ConstantForm(form.dim, form.degree - 1, out)


def test_standard_models_normalize_exactly():
    for n in (1, 2, 3):
        model = make_model(n)
        assert model.normalization_residual < 1e-15
        assert model.rho == 1.0


def test_scaled_top_form_needs_rho():
    with pytest.raises(NormalizationFailureError):
        make_model(2, Omega_scale=2.0)
    model = make_model(2, Omega_scale=2.0, rho=2.0)
    assert model.rho == 2.0


@pytest.mark.parametrize(
    "rho", ["2", "1 + x1/2", 0.0, -2.0, float("inf"), float("nan"), True],
    ids=["string", "expression", "zero", "negative", "inf", "nan", "bool"],
)
def test_rho_must_be_a_positive_finite_number(rho):
    with pytest.raises(NormalizationFailureError, match="rho"):
        make_model(2, topology="torus", Omega_scale=2.0, rho=rho)


def test_omega_values():
    model = make_model(2)
    assert model.omega([vec(1, 0, 0, 0), vec(0, 1, 0, 0)]) == 1.0
    assert model.omega([vec(1, 0, 0, 0), vec(0, 0, 1, 0)]) == 0.0


def test_im_omega_values_from_expansion():
    # dz1 ^ dz2 = (dx1 + i dy1) ^ (dx2 + i dy2)
    Omega = make_model(2).Omega
    dx1, dy1, dx2, dy2 = np.eye(4)
    assert Omega([dx1, dx2]) == 1.0
    assert Omega([dx1, dy2]) == 1j
    assert Omega([dy1, dx2]) == 1j
    assert Omega([dy1, dy2]) == -1.0


def test_metric_and_conformal_metric():
    # with the unit calibration Omega / rho, the metric is g itself at rho = 2
    model = make_model(2, Omega_scale=2.0, rho=2.0, topology="torus")
    g = model.omega.as_matrix() @ model.J
    assert np.array_equal(g, np.eye(4))
    assert np.array_equal(model.metric_matrix(), g)
    # the unit calibration Omega / rho
    dx1, dy1, dx2, dy2 = np.eye(4)
    assert model.im_omega_hat([dx1, dy2]) == pytest.approx(1.0)


def test_gtilde_equals_g_when_rho_is_one():
    model, scaled = make_model(2), make_model(2, Omega_scale=2.0, rho=2.0)
    assert np.array_equal(model.metric_matrix(), scaled.metric_matrix())
    rng = np.random.default_rng(0)
    for _ in range(5):
        u, v = rng.normal(size=(2, 4))
        assert u @ model.metric_matrix() @ v == pytest.approx(model.omega([u, model.J @ v]),
                                                             abs=1e-14)


def test_arity_mismatch():
    model = make_model(2)
    with pytest.raises(ArityMismatchError):
        model.omega([vec(1, 0, 0, 0)])
    with pytest.raises(ArityMismatchError):
        model.omega.wedge(model.omega).as_matrix()


def test_j_compatibility_enforced():
    bad_j = np.eye(4)
    with pytest.raises(NotKaehlerError):
        make_model(2, J=bad_j)


def test_omega_j_invariance_and_spd_on_random_frames():
    model = make_model(2)
    rng = np.random.default_rng(1)
    J, g = model.J, model.metric_matrix()
    for _ in range(100):
        u, v = rng.normal(size=(2, 4))
        lhs = model.omega([J @ u, J @ v])
        rhs = model.omega([u, v])
        assert lhs == pytest.approx(rhs, abs=1e-14)
        assert u @ g @ u > 0


def test_lagrangian_check_examples():
    model = make_model(2, topology="torus")
    good = BoundaryLagrangian(
        1, np.zeros(4), np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    )
    assert model.lagrangian_residual(good) == 0.0
    bad = BoundaryLagrangian(
        1, np.zeros(4), np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    )
    assert model.lagrangian_residual(bad) == 1.0
    line_model = make_model(1)
    line = BoundaryLagrangian(1, np.zeros(2), np.array([[0.3, 0.7]]))
    assert line_model.lagrangian_residual(line) == 0.0


def test_disjointness_lattice_aware():
    model = make_model(2, topology="torus")
    span = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    l1 = BoundaryLagrangian(1, vec(0, 0, 0, 0), span)
    l2 = BoundaryLagrangian(2, vec(0.5, 0, 0, 0), span)
    model.check_disjoint([l1, l2])
    l3 = BoundaryLagrangian(3, vec(1.0, 0, 0, 0), span)  # same subtorus as l1 mod lattice
    with pytest.raises(NotKaehlerError):
        model.check_disjoint([l1, l3])


def test_wedge_and_contraction():
    form = standard_top_form(2)
    dx1, dy1 = np.eye(4)[0], np.eye(4)[1]
    contracted = contract(form.imag(), np.eye(4)[1])  # i_{dy1} Im(Omega)
    # Im(Omega) = dx1^dy2 + dy1^dx2, so contraction gives dx2
    assert contracted(np.eye(4)[2][None, :]) == pytest.approx(1.0)
    assert contracted(np.eye(4)[3][None, :]) == pytest.approx(0.0)
    omega = make_model(2).omega
    top = omega.wedge(omega)
    assert top.coeffs[(0, 1, 2, 3)] == pytest.approx(2.0)


def test_form_antisymmetry():
    omega = make_model(2).omega
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=(2, 4))
    assert float(omega(np.stack([u, v]))) == pytest.approx(
        -float(omega(np.stack([v, u]))), abs=1e-14
    )
