"""The checked-in symbolic derivation must agree with the numerical pipeline."""

import importlib.util
import pathlib

import pytest
import sympy as sym

from slaglab.charts import l2_gram, tangent_cochains
from slaglab.dec import HodgeStructure
from slaglab.fixtures import cylinder_translation
from slaglab.flux import ImmersionPath, relative_flux, special_flux
from slaglab.immersion import pullback_metric
from slaglab.meshes import absolute_cycle_basis, relative_cycle_basis
from slaglab.charts import pairing_structure

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "derive_expected_values.py"


def load_script():
    spec = importlib.util.spec_from_file_location("derive_expected_values", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_symbolic_derivation_matches_pipeline():
    symbolic = load_script().derive()
    fx = cylinder_translation(1)
    rel = relative_cycle_basis(fx.mesh)
    ab = absolute_cycle_basis(fx.mesh)
    hs = HodgeStructure(fx.mesh, pullback_metric(fx.model, fx.base))
    ab = pairing_structure(hs, rel, ab).absolute
    path = ImmersionPath.straight(fx.family, [0.3], n_samples=33)
    rf = relative_flux(fx.model, path, fx.lagrangians, rel).period_vector[0]
    sf = special_flux(fx.model, path, fx.lagrangians, ab).period_vector[0]
    assert rf == pytest.approx(float(symbolic["rf"]), abs=1e-14)
    assert sf == pytest.approx(float(symbolic["sf"]), abs=1e-14)
    rf_expect, sf_expect = fx.expected_fluxes([0.3])
    assert rf_expect.tolist() == pytest.approx([float(symbolic["rf"])], abs=1e-15)
    assert sf_expect.tolist() == pytest.approx([float(symbolic["sf"])], abs=1e-15)
    L2 = l2_gram(hs, tangent_cochains(fx.model, fx.family))
    assert L2[0, 0] == pytest.approx(float(symbolic["l2"]), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mclean_identity_needs_the_unscaled_metric(n):
    """i_v Im(Omega/rho)|_L = +- *_g i_v omega|_L holds for g itself in every dimension.

    The rescaled metric rho^(-2/n) g multiplies the star side by rho^((2-n)/n),
    which is 1 only at n = 2.
    """
    result = load_script().mclean_identity(n)
    assert result["sign"] in (1, -1)
    rho = sym.Symbol("rho", positive=True)
    assert sym.simplify(result["rescaled"] - rho ** sym.Rational(2 - n, n)) == 0
