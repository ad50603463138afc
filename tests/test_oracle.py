"""Brute-force oracles: coset enumeration, shell sums, system solving."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetalab import locgl2 as lg
from zetalab import oracle as oc
from zetalab.symring import EvalPoint

SRC = Path(__file__).resolve().parent.parent / "src"
ACCEPTANCE_PAIRS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))


def expected_mass(q: int, v: int, m: int) -> Fraction:
    if v == m:  # residual cell = closed-form tail
        return Fraction(1, q ** (m - 1)) / (q + 1)
    if v == 0:
        return Fraction(q, q + 1)
    return Fraction(q - 1, q**v) / (q + 1)


@pytest.mark.parametrize("q,m", ACCEPTANCE_PAIRS)
def test_coset_masses_exact(q, m):
    rep = oc.coset_count(q, m)
    assert sum(rep.masses.values()) == 1
    for v in range(m + 1):
        assert rep.masses.get(v, Fraction(0)) == expected_mass(q, v, m), v
    # representatives genuinely live in their cells
    for v, (a, b, c, d) in rep.representatives.items():
        assert math.gcd(a * d - b * c, rep.modulus) % q != 0 or (a * d - b * c) % q != 0
        x, val = c, 0
        while val < m and x % q == 0:
            x //= q
            val += 1
        assert val == v


def test_coset_group_order():
    rep = oc.coset_count(2, 1)
    assert rep.group_order == 6  # GL2 over the field with two elements
    rep = oc.coset_count(3, 1)
    assert rep.group_order == 48


def test_coset_limit():
    with pytest.raises(oc.OracleError):
        oc.coset_count(5, 3)  # 125 > default enumeration limit


def test_transition_system_symbolic_and_numeric():
    for n in (0, 1, 2, 3):
        sol = oc.solve_transition_system(n, "symbolic")
        for l in range(n + 1):
            assert (sol[l] - lg.transition_coeff(n, l)).is_zero, (n, l)
    pt = EvalPoint(q=7, s0=0.25 + 0.15j)
    sol = oc.solve_transition_system(4, "numeric", pt)
    for l in range(5):
        want = lg.transition_coeff(4, l).substitute(pt)
        assert abs(sol[l] - want) <= 1e-11 * max(1.0, abs(want)), l


def test_whittaker_support():
    # vanishing below the conductor-zero support line
    assert oc.whittaker_value(3, 0, 0.2 + 0.1j, -1) == 0
    assert oc.whittaker_value(3, 2, 0.2, -5) == 0
    # spherical value at the identity is the inverse local zeta at 1 + 2 s0
    w0 = oc.whittaker_value(5, 0, 0.3, 0)
    assert abs(w0 - (1 - 5.0 ** (-1 - 0.6))) < 1e-14


def test_spherical_zeta_matches_closed_form():
    pt = EvalPoint(q=3, s=2.0, s0=0.5)
    closed = lg.spherical_zeta().value.substitute(pt)
    assert abs(oc.zeta_by_summation(0, pt) - closed) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("l", range(7))
def test_zeta_ratios_match(l):
    for (q, s, s0) in ((2, 1.7 + 0.4j, 0.21 + 0.9j), (5, 2.5 - 0.8j, -0.33 + 0.2j), (11, 1.6, 0.05j)):
        pt = EvalPoint(q=q, s=s, s0=s0)
        want = 1.0 if l == 0 else lg.zeta_ratio(l).value.substitute(pt)
        got = oc.zeta_ratio_by_summation(l, pt)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (l, q)


def test_zeta_sum_s0_reflection_consistency():
    # s0 -> -s0 changes the value only through the zeta_F(1 ± 2 s0) normalisation
    pp = EvalPoint(q=5, s=2.0, s0=0.3)
    pm = EvalPoint(q=5, s=2.0, s0=-0.3)
    r_closed = lg.spherical_zeta().value.substitute(pp) / lg.spherical_zeta().value.substitute(pm)
    r_oracle = oc.zeta_by_summation(0, pp) / oc.zeta_by_summation(0, pm)
    assert abs(r_closed - r_oracle) <= 1e-10 * abs(r_closed)


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_whittaker_mix_matches_shell_values(q):
    # the closed tail A u^m + B v^m is exact from m = l on, including l = 0,
    # where the geometric part of A starts at the first shell
    for s0 in (0.3, -0.2, 0.2 + 0.5j, -0.35 + 1.3j, 0.7j):
        for l in range(7):
            a, u, b, v = oc._whittaker_mix(q, l, s0)
            for m in range(l, l + 9):
                want = oc.whittaker_value(q, l, s0, m)
                assert abs(a * u**m + b * v**m - want) <= 1e-13 * max(1.0, abs(want)), (s0, l, m)


def test_sums_exact_near_the_guard():
    # inside the convergence guards but close to them the tail carries most
    # of the sum, so a wrong tail coefficient shows at full size
    pt = EvalPoint(q=2, s=0.05, s0=0.5)
    prs = EvalPoint(q=2, s=0.2, s1=0.5j, s2=0.55)
    cases = ((oc.zeta_by_summation(0, pt), lg.spherical_zeta().value, pt),
             (oc.zeta_ratio_by_summation(1, pt), lg.zeta_ratio(1).value, pt),
             (oc.rs_by_summation(0, prs), lg.rs_spherical_zeta().value, prs))
    for got, closed, at in cases:
        want = closed.substitute(at)
        assert abs(got - want) <= 1e-12 * abs(want), at


def test_sums_exact_near_a_degenerate_point():
    # near q^(-2 s0) = 1 the mix coefficients grow like 1/(1 - q^(-2 s0)) and
    # cancel, so the closed tail alone would lose digits there
    for eps in (1e-7j, 1e-6j, 2e-3, 2e-3j):
        pt = EvalPoint(q=3, s=2.0, s0=eps)
        pairs = [(oc.zeta_by_summation(0, pt), lg.spherical_zeta().value, pt)]
        prs = EvalPoint(q=3, s=2.0, s1=eps, s2=0.3j)
        pairs += [(oc.rs_by_summation(l, prs), lg.rs_zeta_ratio(l).value, prs) for l in (1, 2)]
        pairs += [(oc.rs_by_summation(0, prs), lg.rs_spherical_zeta().value, prs),
                  (oc.herm_by_summation(2, prs), lg.herm_zeta_ratio(2).value, prs)]
        for got, closed, at in pairs:
            want = closed.substitute(at)
            assert abs(got - want) <= 1e-11 * abs(want), (eps, at)


def test_oracle_does_not_import_locgl2():
    code = "import sys, zetalab.oracle; print('zetalab.locgl2' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_divergence_guard():
    with pytest.raises(oc.DivergenceError):
        oc.zeta_by_summation(0, EvalPoint(q=3, s=0.1, s0=0.8))
    with pytest.raises(oc.DivergenceError):
        oc.rs_by_summation(0, EvalPoint(q=3, s=-1.2))


RS_POINTS = (
    (2, 1.9 + 0.3j, 0.23 + 0.11j, -0.31 + 0.07j),
    (5, 1.0, 0.2, 0.3),
    (3, 2.0, 0.5j, 0.5j),
    (7, 2.2 - 0.5j, 0.1 - 0.6j, -0.2 + 0.4j),
)


@pytest.mark.parametrize("q,s,s1,s2", RS_POINTS)
def test_rankin_selberg_family(q, s, s1, s2):
    pt = EvalPoint(q=q, s=s, s1=s1, s2=s2)
    closed = lg.rs_spherical_zeta().value.substitute(pt)
    assert abs(oc.rs_by_summation(0, pt) - closed) <= 1e-10 * abs(closed)
    for n in (0, 1, 2, 3):
        want = lg.rs_a_coeff(n).value.substitute(pt)
        assert abs(oc.rs_a_by_summation(n, pt) - want) <= 1e-9 * max(1.0, abs(want)), n
    for l in (1, 2):
        want = lg.rs_zeta_ratio(l).value.substitute(pt)
        assert abs(oc.rs_by_summation(l, pt) - want) <= 1e-9 * max(1.0, abs(want)), l


@pytest.mark.parametrize("q,s,s1,s2", RS_POINTS[:3])
def test_hermitian_family(q, s, s1, s2):
    pt = EvalPoint(q=q, s=s, s1=s1, s2=s2)
    for n in (0, 1, 2):
        want = lg.herm_a_coeff(n).value.substitute(pt)
        assert abs(oc.herm_a_by_summation(n, pt) - want) <= 1e-9 * max(1.0, abs(want)), n
    for l in (1, 2):
        want = lg.herm_zeta_ratio(l).value.substitute(pt)
        assert abs(oc.herm_by_summation(l, pt) - want) <= 1e-9 * max(1.0, abs(want)), l


def test_herm_l0_equals_rs_spherical():
    pt = EvalPoint(q=3, s=1.8, s1=0.3j, s2=0.2j)
    assert abs(oc.herm_by_summation(0, pt) - oc.rs_by_summation(0, pt)) < 1e-14


def test_trivial_character_negative_control():
    # replacing the additive character by the trivial one must break the match
    pt = EvalPoint(q=3, s=2.0, s0=0.4)
    closed = lg.spherical_zeta().value.substitute(pt)
    bad = oc.zeta_by_summation(0, pt, psi_trivial=True)
    assert abs(bad - closed) > 1e-3 * abs(closed)


def test_oracle_is_deterministic():
    pt = EvalPoint(q=7, s=2.3 - 1.1j, s0=0.12 + 0.7j)
    a = oc.zeta_by_summation(4, pt)
    b = oc.zeta_by_summation(4, pt)
    assert a == b  # identical summation order, bit-for-bit


def test_degenerate_s0_fallback():
    # t = q^(-2 s0) = 1 makes the geometric split singular; the direct path
    # must still agree with the closed form
    pt = EvalPoint(q=5, s=2.0, s0=0.0)
    closed = lg.spherical_zeta().value.substitute(pt)
    assert abs(oc.zeta_by_summation(0, pt) - closed) <= 1e-9 * abs(closed)
    # the same for the product sums when s1 = 0 and/or s2 = 0, where W_1 at
    # s1 = 0 vanishes at one shell for q = 3 and the direct sum must run past it
    for pt in (EvalPoint(q=3, s=2.1), EvalPoint(q=5, s=1.9 + 0.2j, s2=0.3j)):
        pairs = [(oc.rs_by_summation(0, pt), lg.rs_spherical_zeta().value)]
        pairs += [(oc.rs_by_summation(l, pt), lg.rs_zeta_ratio(l).value) for l in (1, 2)]
        pairs += [(oc.rs_a_by_summation(n, pt), lg.rs_a_coeff(n).value) for n in range(4)]
        pairs += [(oc.herm_by_summation(l, pt), lg.herm_zeta_ratio(l).value) for l in (1, 2)]
        for got, closed in pairs:
            want = closed.substitute(pt)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), pt
