"""Unit + property tests for affine expressions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.expr import Affine, var

_NAMES = ("i", "j", "k", "t")


def affines(max_coef: int = 50):
    coefs = st.integers(min_value=-max_coef, max_value=max_coef)
    terms = st.dictionaries(st.sampled_from(_NAMES), coefs, max_size=4)
    return st.builds(Affine, coefs, terms)


def envs():
    return st.fixed_dictionaries(
        {name: st.integers(min_value=-100, max_value=100)
         for name in _NAMES})


class TestConstruction:
    def test_var_is_identity_term(self):
        expr = var("i")
        assert expr.terms == {"i": 1} and expr.const == 0

    def test_var_rejects_non_identifier(self):
        with pytest.raises(ValueError):
            var("not an id")

    def test_zero_coefficients_are_dropped(self):
        assert Affine(3, {"i": 0}).terms == {}

    def test_wrap_rejects_floats(self):
        with pytest.raises(TypeError):
            Affine.wrap(1.5)


class TestAlgebra:
    @given(affines(), affines(), envs())
    def test_addition_commutes_with_evaluation(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(affines(), st.integers(min_value=-20, max_value=20), envs())
    def test_scaling_commutes_with_evaluation(self, a, factor, env):
        assert (a * factor).evaluate(env) == factor * a.evaluate(env)

    @given(affines(), affines(), envs())
    def test_subtraction(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(affines(), envs())
    def test_negation(self, a, env):
        assert (-a).evaluate(env) == -a.evaluate(env)

    def test_product_of_two_variables_rejected(self):
        with pytest.raises(TypeError):
            var("i") * var("j")

    def test_product_with_constant_affine_allowed(self):
        assert (var("i") * Affine(3)).evaluate({"i": 5}) == 15

    @given(affines())
    def test_equality_and_hash_consistency(self, a):
        clone = Affine(a.const, dict(a.terms))
        assert a == clone and hash(a) == hash(clone)

    def test_int_mixing(self):
        expr = 2 + var("i") * 3 - 1
        assert expr.evaluate({"i": 4}) == 13

    def test_reflected_subtraction(self):
        assert (10 - var("i")).evaluate({"i": 3}) == 7

    def test_constant_terms_fold(self):
        # 2i + j + 1 with i bound to 3, built term by term
        assert Affine(3) * 2 + var("j") + 1 == var("j") + 7

    @given(affines(), envs())
    def test_binding_every_variable_is_constant(self, a, env):
        bound = Affine(a.const)
        for name, coef in a.terms.items():
            bound = bound + Affine.wrap(env[name]) * coef
        assert bound.is_constant
        assert bound.const == a.evaluate(env)


class TestRendering:
    @given(affines(), envs())
    def test_to_python_matches_evaluate(self, a, env):
        rendered = a.to_python()
        assert eval(rendered, {}, dict(env)) == a.evaluate(env)

    def test_repr_shows_the_python_form(self):
        expr = var("i") * 2 + 1
        assert repr(expr) == f"Affine({expr.to_python()})"

