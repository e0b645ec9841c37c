"""Property-based checks of the numerical invariants on a fixed fixture mesh.

Randomized inputs (cochains, metrics, vectors) exercise identities that the
implementation promises for all data, not just fixture data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slaglab.ambient import make_model
from slaglab.dec import (
    Cochain,
    HodgeStructure,
    MetricField,
    exterior_derivative,
    hodge_star,
    period_matrix,
)
from slaglab.fixtures import cylinder_translation
from slaglab.immersion import pullback_metric
from slaglab.meshes import relative_cycle_basis

def apply_d(cochain):
    """The coboundary of a cochain, as a cochain one degree up."""
    op = exterior_derivative(cochain.mesh, cochain.degree)
    return Cochain(cochain.mesh, cochain.degree + 1, op @ cochain.values)


FX = cylinder_translation(1)
HS = HodgeStructure(FX.mesh, pullback_metric(FX.model, FX.base))
REL = relative_cycle_basis(FX.mesh)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def cochain_strategy(degree):
    count = FX.mesh.n_simplices(degree)
    return arrays(np.float64, (count,), elements=finite).map(
        lambda v: Cochain(FX.mesh, degree, v)
    )


@settings(max_examples=15, deadline=None)
@given(alpha=cochain_strategy(1), beta=cochain_strategy(1), c=finite)
def test_star_is_linear(alpha, beta, c):
    combo = Cochain(FX.mesh, 1, alpha.values + c * beta.values)
    lhs = hodge_star(HS, combo).values
    rhs = hodge_star(HS, alpha).values + c * hodge_star(HS, beta).values
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(f=arrays(np.float64, (FX.mesh.n_vertices,), elements=finite))
def test_exact_relative_periods_vanish(f):
    values = np.zeros(FX.mesh.n_vertices)
    interior = FX.mesh.interior_simplex_ids(0)
    values[interior] = f[interior]
    exact = apply_d(Cochain(FX.mesh, 0, values))
    scale = max(np.abs(values).max(), 1.0)
    assert np.abs(period_matrix([exact], REL)).max() <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(vectors=arrays(np.float64, (2, 4), elements=finite))
def test_symplectic_form_antisymmetry(vectors):
    model = make_model(2)
    forward = float(model.omega(vectors))
    backward = float(model.omega(vectors[::-1]))
    assert forward == pytest.approx(-backward, abs=1e-12 * max(1.0, abs(forward)))


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(min_value=0.2, max_value=5.0))
def test_mass_matrix_scaling_in_degree_zero(scale):
    scaled = MetricField(FX.mesh, scale**2 * HS.metric.gram)
    hs2 = HodgeStructure(FX.mesh, scaled)
    # 2d: volume scales by c^2 in degree 0
    lhs = hs2.mass_matrix(0).toarray()
    rhs = scale**2 * HS.mass_matrix(0).toarray()
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
