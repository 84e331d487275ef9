from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sobolev.exponents import (
    ADMISSIBLE, NOT_GUARANTEED, Condition, DimensionMismatch, DomainClass,
    Exponent, ExponentError, WrongDomainClass,
    check_derivative, check_embedding, check_extension, check_multiplication,
    check_pointwise, space,
)

FS = DomainClass.FULL_SPACE
BL = DomainClass.BOUNDED_LIPSCHITZ
GO = DomainClass.GENERAL_OPEN
CS = DomainClass.COMPACT_SUPPORT_IN_OPEN


class TestTypes:
    def test_p_must_exceed_one(self):
        with pytest.raises(ExponentError):
            Exponent(Fraction(1), Fraction(1))
        with pytest.raises(ExponentError):
            Exponent(Fraction(1), Fraction(1, 2))

    def test_floats_rejected(self):
        with pytest.raises(ExponentError):
            Exponent(0.5, Fraction(2))

    @pytest.mark.parametrize("relation", ["!=", "~", ""])
    def test_unknown_relation_rejected(self, relation):
        cond = Condition("1 ? 2", Fraction(1), relation, Fraction(2), False)
        with pytest.raises(ValueError, match="unknown relation"):
            cond.reevaluate()

    def test_dimension_positive(self):
        with pytest.raises(ExponentError):
            space(1, 2, 0)


class TestEmbedding:
    def test_full_space_admissible(self):
        v = check_embedding(space(2, 2, 2, FS), space(1, 4, 2, FS))
        assert v.result == ADMISSIBLE
        assert v.theorem_tag == "embedding I"
        # 2 - 2/2 = 1 >= 1 - 2/4 = 1/2
        assert all(c.satisfied for c in v.conditions)

    def test_general_open_not_guaranteed(self):
        v = check_embedding(space(2, 2, 2, GO), space(1, 4, 2, GO))
        assert v.result == NOT_GUARANTEED
        # every candidate contributed its first failing condition
        assert v.conditions
        assert all(not c.satisfied for c in v.conditions)

    def test_identity_embedding_any_class(self):
        for d in (FS, BL, GO, CS):
            v = check_embedding(space("1/2", 2, 1, d), space("1/2", 2, 1, d))
            assert v.result == ADMISSIBLE

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_embedding(space(1, 2, 1, FS), space(1, 2, 2, FS))

    def test_boundary_equality_accepted_thm_I(self):
        # s - n/p = t - n/q exactly: 1 - 2/2 = 0 = 1/2 - 2/4 ... pick exact case
        v = check_embedding(space(1, 2, 2, FS), space("1/2", 4, 2, FS))
        # 1 - 1 = 0; 1/2 - 1/2 = 0 -> equality accepted by >=
        assert v.result == ADMISSIBLE

    def test_manifold_class_has_no_family(self):
        v = check_embedding(space(2, 2, 2, DomainClass.COMPACT_MANIFOLD),
                            space(1, 2, 2, DomainClass.COMPACT_MANIFOLD))
        assert v.result == NOT_GUARANTEED

    def test_lipschitz_does_not_need_p_le_q(self):
        # p=4 > q=2 is fine on a Lipschitz domain when the balance holds
        v = check_embedding(space(2, 4, 2, BL), space(1, 2, 2, BL))
        assert v.result == ADMISSIBLE
        assert v.theorem_tag == "embedding III"
        # same exponents on the whole space fail the p <= q hypothesis
        v2 = check_embedding(space(2, 4, 2, FS), space(1, 2, 2, FS))
        assert v2.result == NOT_GUARANTEED

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", ["3/2", "2", "3"])
    @pytest.mark.parametrize("t", ["1/4", "1/2", "3/4"])
    def test_w1_into_fractional_needs_a_lipschitz_domain(self, n, p, t):
        # on a general open set W^{1,p} need not embed in W^{t,p}, 0 < t < 1
        v = check_embedding(space(1, p, n, GO), space(t, p, n, GO))
        assert v.result == NOT_GUARANTEED
        assert [c.text for c in v.conditions] == [
            "t is a nonnegative integer", "s < 1", "floor(s) = floor(t)",
            "t is a nonnegative integer"]
        assert [c.theorem_tag for c in v.candidates] == [
            "embedding IV.3", "embedding IV.4", "embedding IV.5",
            "embedding IV.6"]
        v = check_embedding(space(1, p, n, BL), space(t, p, n, BL))
        assert v.result == ADMISSIBLE
        assert v.theorem_tag == "embedding III"


class TestMultiplication:
    def test_positive_case(self):
        v = check_multiplication(space(1, 2, 3), space(1, 2, 3), space(0, 2, 3))
        assert v.result == ADMISSIBLE
        # matched by the first multiplication theorem in the fixed order
        assert v.theorem_tag.startswith("multiplication 4.")

    def test_half_smoothness_not_guaranteed(self):
        v = check_multiplication(space("1/2", 2, 3), space("1/2", 2, 3),
                                 space("1/2", 2, 3))
        assert v.result == NOT_GUARANTEED

    def test_negative_target_via_4_5(self):
        v = check_multiplication(space(1, 2, 1), space(1, 2, 1),
                                 space("-1/2", 2, 1))
        assert v.result == ADMISSIBLE
        assert v.theorem_tag == "multiplication 4.5"

    def test_algebra_shortcut_first(self):
        v = check_multiplication(space(2, 2, 3), space(2, 2, 3), space(2, 2, 3))
        assert v.result == ADMISSIBLE
        assert v.theorem_tag == "algebra 3.3"

    def test_lipschitz_transfer_recorded(self):
        v = check_multiplication(space(1, 2, 3, BL), space(1, 2, 3, BL),
                                 space(0, 2, 3, BL))
        assert v.result == ADMISSIBLE
        assert any("transfer" in c.text for c in v.conditions)

    def test_lipschitz_transfer_blocks_exceptional_negative(self):
        # product space s - 1/p = -3/2 - 1/2 = -2, a negative integer:
        # the transfer hypothesis fails for every candidate
        v = check_multiplication(space(2, 2, 1, BL), space(2, 2, 1, BL),
                                 space("-3/2", 2, 1, BL))
        assert v.result == NOT_GUARANTEED

    def test_open_domain_has_no_family(self):
        v = check_multiplication(space(1, 2, 3, GO), space(1, 2, 3, GO),
                                 space(0, 2, 3, GO))
        assert v.result == NOT_GUARANTEED


class TestPointwise:
    def test_algebra(self):
        v = check_pointwise(space(2, 2, 3), "algebra")
        assert v.result == ADMISSIBLE

    def test_linfty_fails(self):
        v = check_pointwise(space(1, 2, 4), "linfty")
        assert v.result == NOT_GUARANTEED

    def test_composition(self):
        v = check_pointwise(space("3/2", 2, 2), "composition")
        assert v.result == ADMISSIBLE

    def test_composition_needs_s_at_least_one(self):
        v = check_pointwise(space("1/2", 8, 2), "composition")
        assert v.result == NOT_GUARANTEED

    def test_boundary_sp_equal_n_rejected(self):
        # strict inequality: s*p = n exactly must fail
        v = check_pointwise(space(1, 2, 2), "algebra")
        assert v.result == NOT_GUARANTEED

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_pointwise(space(1, 2, 2), "frobnicate")


class TestDerivative:
    def test_whole_space_any_s(self):
        v = check_derivative(space("1/2", 2, 1, FS), 1)
        assert v.result == ADMISSIBLE
        assert v.target == (Fraction(-1, 2), Fraction(2))

    def test_lipschitz_exceptional_blocked(self):
        v = check_derivative(space("3/2", 2, 1, BL), 2)
        assert v.result == NOT_GUARANTEED

    def test_open_low_order(self):
        v = check_derivative(space(2, 2, 1, GO), 1)
        assert v.result == ADMISSIBLE
        assert v.theorem_tag.startswith("derivative 3")

    def test_order_must_be_positive(self):
        with pytest.raises(ExponentError):
            check_derivative(space(1, 2, 1, FS), 0)

    def test_lipschitz_nonexceptional_high_order(self):
        v = check_derivative(space("4/3", 2, 1, BL), 2)
        assert v.result == ADMISSIBLE
        assert v.theorem_tag.startswith("derivative 4")


class TestExtension:
    def test_positive_order(self):
        v = check_extension(space(1, 2, 1, CS))
        assert v.result == ADMISSIBLE

    def test_negative_fraction_in_range(self):
        v = check_extension(space("-1/2", 2, 1, CS))
        assert v.result == ADMISSIBLE

    def test_negative_noninteger_below_minus_one(self):
        v = check_extension(space("-3/2", 2, 1, CS))
        assert v.result == NOT_GUARANTEED

    def test_negative_noninteger_with_lipschitz_enclosing(self):
        v = check_extension(space("-3/2", 2, 1, CS, enclosing="lipschitz"))
        assert v.result == ADMISSIBLE

    def test_negative_integer(self):
        v = check_extension(space(-2, 2, 1, CS))
        assert v.result == ADMISSIBLE

    def test_wrong_domain_class(self):
        with pytest.raises(WrongDomainClass):
            check_extension(space(1, 2, 1, FS))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                         max_denominator=6)
ps = st.fractions(min_value=Fraction(9, 8), max_value=Fraction(8),
                  max_denominator=8)


def test_determinism():
    a = check_multiplication(space(1, 2, 3), space(1, 2, 3), space(0, 2, 3))
    b = check_multiplication(space(1, 2, 3), space(1, 2, 3), space(0, 2, 3))
    assert a == b


@given(s=rationals, p=ps, t=rationals, q=ps,
       tprime=st.fractions(min_value=Fraction(0), max_value=Fraction(4),
                           max_denominator=6),
       n=st.integers(min_value=1, max_value=4))
def test_monotonicity_in_target_smoothness(s, p, t, q, tprime, n):
    v = check_embedding(space(s, p, n, FS), space(t, q, n, FS))
    if v.result == ADMISSIBLE and tprime <= t:
        v2 = check_embedding(space(s, p, n, FS), space(tprime, q, n, FS))
        assert v2.result == ADMISSIBLE


@given(s1=rationals, p1=ps, s2=rationals, p2=ps, s=rationals, p=ps,
       n=st.integers(min_value=1, max_value=4))
def test_certificate_soundness_multiplication(s1, p1, s2, p2, s, p, n):
    v = check_multiplication(space(s1, p1, n), space(s2, p2, n), space(s, p, n))
    for cond in v.conditions:
        assert cond.reevaluate() == cond.satisfied
    for cand in v.candidates:
        for cond in cand.conditions:
            assert cond.reevaluate() == cond.satisfied
        assert cand.matched == all(c.satisfied for c in cand.conditions)
    if v.result == ADMISSIBLE:
        assert all(c.satisfied for c in v.conditions)
    else:
        assert all(not c.satisfied for c in v.conditions)


@given(s=rationals, p=ps, t=rationals, q=ps,
       n=st.integers(min_value=1, max_value=4),
       d=st.sampled_from([FS, BL, GO, CS]))
def test_certificate_soundness_embedding(s, p, t, q, n, d):
    v = check_embedding(space(s, p, n, d), space(t, q, n, d))
    for cond in v.conditions:
        assert cond.reevaluate() == cond.satisfied
    if v.result == ADMISSIBLE:
        assert all(c.satisfied for c in v.conditions)
