"""Exact-ring invariants: arithmetic, the quadratic relation, differentiation."""

import math
import operator
import random
from fractions import Fraction

import pytest

from zetalab.symring import (
    GEN_L,
    GEN_Q,
    GEN_S,
    GEN_T,
    GEN_T0,
    ONE,
    ZERO,
    EvalPoint,
    PoleAtPointError,
    RatFunc,
    SymElem,
    SymRingError,
    q_pow,
)

RNG = random.Random(1799)


def random_elem(with_radical=True):
    e = ZERO
    for _ in range(3):
        coeff = Fraction(RNG.randint(-4, 4), RNG.randint(1, 4))
        mono = SymElem.from_rational(coeff)
        for name in ("Q", "T0", "T", "T1", "T2"):
            mono = mono * SymElem.monomial(name, RNG.randint(-2, 2))
        e = e + mono
    if with_radical and RNG.random() < 0.5:
        e = e + GEN_S * SymElem.monomial("T0", RNG.randint(-1, 1))
    return e


def test_defining_relation():
    assert (GEN_S * GEN_S).canonical_str() == "(Q^2 + 1)/(Q^2 - 1)"
    rel = GEN_S * GEN_S - (q_pow(2) + 1) / (q_pow(2) - 1)
    assert rel.is_zero
    # no S-power above 1 survives normalisation
    cube = GEN_S**3
    assert cube.an == ZERO.an and not cube.bn == ZERO.bn


def test_additive_identity_and_zero():
    x = random_elem()
    assert (x + ZERO) == x
    assert (x - x).is_zero


def test_radical_square_collapses():
    # ((q-1) S)^2 = q^2 - 1, the reason one extension suffices
    e = ((q_pow(2) - 1) * GEN_S) ** 2
    assert e == q_pow(4) - 1
    # sqrt(1 - q^-2) style combinations land back in the base field
    f = (q_pow(-2) * (q_pow(2) - 1) * GEN_S) ** 2
    assert f == (1 - q_pow(-4)) * (q_pow(2) + 1) / (q_pow(2) + 1)


def test_substitute_basics():
    assert abs(GEN_S.substitute(EvalPoint(q=3)) - math.sqrt(2)) < 1e-14
    assert abs(GEN_Q.substitute(EvalPoint(q=4)) - 2) < 1e-14
    rel = GEN_S * GEN_S - (q_pow(2) + 1) / (q_pow(2) - 1)
    for q in (2, 3, 5, 9, 32):
        assert abs(rel.substitute(EvalPoint(q=q))) < 1e-14


def random_point():
    z = lambda: complex(RNG.uniform(-0.6, 0.6), RNG.uniform(-1.0, 1.0))  # noqa: E731
    return EvalPoint(q=RNG.choice((2, 3, 5, 7, 9, 11)), s0=z(), s=z(), s1=z(), s2=z())


def test_arith_substitute_roundtrip():
    for _ in range(100):
        pt = random_point()
        a, b = random_elem(), random_elem()
        va, vb = a.substitute(pt), b.substitute(pt)
        for op in (operator.add, operator.sub, operator.mul):
            got, ref = op(a, b).substitute(pt), op(va, vb)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
        if not b.is_zero:
            got = (a / b).substitute(pt)
            ref = va / vb
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_division_by_zero_raises():
    with pytest.raises(SymRingError):
        ONE / ZERO


def test_normalize_idempotent_equality_decidable():
    x = (GEN_T**2 - 1) / (GEN_T - 1)
    assert x == GEN_T + 1
    y = (GEN_T0**2 - q_pow(-2)) / (GEN_T0 - q_pow(-1))
    assert y == GEN_T0 + q_pow(-1)


def test_d_ds_chain_rule():
    assert GEN_T0.d_ds("s0") == -(GEN_L * GEN_T0)
    assert GEN_T0.d_ds("s").is_zero
    assert (GEN_T0**2).d_ds("s0") == SymElem.from_rational(-2) * GEN_L * GEN_T0**2


def test_d_ds_linear_and_leibniz_symbolic():
    for _ in range(100):
        a, b = random_elem(), random_elem()
        var = RNG.choice(["s0", "s", "s1", "s2"])
        lin = (a + b).d_ds(var) - a.d_ds(var) - b.d_ds(var)
        assert lin.is_zero
        leib = (a * b).d_ds(var) - a.d_ds(var) * b - a * b.d_ds(var)
        assert leib.is_zero


def test_d_ds_finite_difference():
    elem = (GEN_T0**3 + GEN_T * GEN_T0) / (1 + q_pow(-2) * GEN_T0**2)
    h = 1e-4

    def f(s0):
        return elem.substitute(EvalPoint(q=3, s0=s0, s=0.4))

    fd = (f(0.3 + h) - f(0.3 - h)) / (2 * h)
    sym = elem.d_ds("s0").substitute(EvalPoint(q=3, s0=0.3, s=0.4))
    assert abs(fd - sym) <= 1e-6


def test_invert_var():
    iv = (GEN_T**2 / (1 - GEN_T)).invert_var("s")
    assert iv == 1 / (GEN_T**2 - GEN_T)
    x = random_elem(with_radical=False)
    pt = EvalPoint(q=7, s=0.5 + 0.3j)
    ptm = EvalPoint(q=7, s=-0.5 - 0.3j)
    a = x.invert_var("s").substitute(pt)
    b = x.substitute(ptm)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_laurent_and_lambda_constraints():
    m = SymElem.monomial("T0", -3)
    assert m * GEN_T0**3 == ONE
    with pytest.raises(SymRingError):
        SymElem.monomial("L", -1)
    with pytest.raises(SymRingError):
        ONE / GEN_L  # log q may not enter a denominator


def test_pole_detection():
    with pytest.raises(PoleAtPointError):
        (1 / (1 - GEN_T)).substitute(EvalPoint(q=2, s=0))
    # nearby but nonzero denominators evaluate fine
    val = (1 / (1 - GEN_T)).substitute(EvalPoint(q=2, s=0.01))
    assert abs(val) > 100


def test_canonical_str_deterministic():
    x = GEN_T0 * q_pow(2) + SymElem.from_rational(Fraction(2, 3)) - GEN_S * GEN_T
    assert x.canonical_str() == x.canonical_str()
    y = -GEN_S * GEN_T + q_pow(2) * GEN_T0 + SymElem.from_rational(Fraction(2, 3))
    assert x.canonical_str() == y.canonical_str()


def test_eval_point_validation():
    with pytest.raises(SymRingError):
        EvalPoint(q=1)


def test_ratfunc():
    r = RatFunc.linear(1, -2) / RatFunc.linear(1, 2)
    assert abs(r(0.25j) - (1 - 0.5j) / (1 + 0.5j)) < 1e-14
    s = r * RatFunc.linear(1, 2) - RatFunc.linear(1, -2)
    assert s.is_zero
    assert (RatFunc.const(Fraction(3, 4)) + RatFunc.const(Fraction(1, 4)))(2.0) == 1.0
    with pytest.raises(SymRingError):
        r / RatFunc.const(0)
    # stored reduced, so equal values compare equal
    lin = RatFunc.linear(1, 1) * RatFunc.linear(-1, 1) / RatFunc.linear(-1, 1)
    assert lin == RatFunc.linear(1, 1)
    assert lin != RatFunc.linear(1, 2)
    # ints coerce on either side
    assert 1 + r == r + 1
    assert 2 * r == r * 2 == r + r
    assert abs((r - 1)(0.25j) - (r(0.25j) - 1)) < 1e-14
    assert (r / 2) * 2 == r
    with pytest.raises(PoleAtPointError):
        (RatFunc.linear(1, -2) / RatFunc.linear(1, 2))(-0.5)
