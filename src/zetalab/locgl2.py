"""Closed-form local GL(2) data, all returned as exact symbolic elements.

The objects here describe the unramified principal series of GL(2) over a
non-archimedean local field with residue size q:

* masses of the double cosets of the maximal compact under the Borel-integral
  left action and the level-m right action, indexed by the valuation of the
  lower-left matrix entry;
* the cell values a(l, n) of the level-l "classical" vectors, orthonormal for
  those masses;
* dimensions d_l of the corresponding K-types;
* eigenvalues of the (normalized) standard intertwining operator on each
  K-type, including the archimedean factors as plain rational functions of s;
* the transition coefficients c(n, l; s0) expanding a diagonal translate of
  the spherical vector in the classical basis, and their three-term
  recursion, which is checked, not used to solve;
* closed forms for the local zeta values and ratios attached to three
  pairings: the one-variable Mellin transform, the Rankin-Selberg pairing of
  two spherical Whittaker functions, and the hermitian (conjugate) pairing,
  each solved from its lower-triangular system by one forward substitution.

Everything is a SymElem over Q = q^(1/2), T0 = q^(-s0), T = q^(-s),
T1 = q^(-s1), T2 = q^(-s2), so each identity below can be verified exactly.
All difference quotients such as (q^(js0) - q^(-js0))/(q^(s0) - q^(-s0)) are
stored as expanded Laurent polynomials: their apparent poles at q^(s0) = ±1
are removable and never enter a denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .symring import (
    GEN_S,
    GEN_T,
    ONE,
    ZERO,
    EvalPoint,
    RatFunc,
    SymElem,
    q_pow,
    t_pow,
)

__all__ = [
    "N_MAX",
    "L_MAX_RATIO",
    "CosetMassTable",
    "ClassicalVectorTable",
    "LocalZetaClosedForm",
    "BoundCheckReport",
    "coset_masses",
    "classical_vectors",
    "dimension",
    "mu_factor",
    "intertwining_eigenvalue",
    "transition_coeff",
    "tilde_c",
    "solve_transition",
    "spherical_zeta",
    "zeta_ratio",
    "rs_a_coeff",
    "rs_spherical_zeta",
    "rs_zeta_ratio",
    "herm_a_coeff",
    "herm_zeta_ratio",
    "unitarity_identity",
    "orthonormality_residual",
    "dimension_residual",
    "evaluation_residual",
    "tilde_c_residual",
    "dual_ratio_residual",
    "herm_system_residual",
    "bound_check",
    "golden_payload",
]

# Table depth limits.  The identity and decay suites use n <= 6; depth 8
# leaves margin for the transition tables, and the zeta ratios stop at 6.
N_MAX = 8
L_MAX_RATIO = 6

_Q2 = q_pow(2)  # the residue size q itself
_QINV = q_pow(-2)  # q^-1
# sqrt((q-1)/(q+1)) = S (q-1)/(q+1); see the quadratic relation in symring.
_SQRT_RATIO_DOWN = GEN_S * (_Q2 - 1) / (_Q2 + 1)
# 1/sqrt(1 - q^-2) = q S/(q+1).
_INV_SQRT_ONE_MINUS = _Q2 * GEN_S / (_Q2 + 1)
# 1/sqrt(q^2 - 1) = S/(q+1).
_INV_SQRT_Q2M1 = GEN_S / (_Q2 + 1)


# ---------------------------------------------------------------------------
# coset masses and classical vectors
# ---------------------------------------------------------------------------


def mass_w(n: int) -> SymElem:
    """Mass of the valuation-n double coset; the maximal compact has mass 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return _Q2 / (_Q2 + 1)
    return q_pow(-2 * (n - 1)) * (1 - _QINV) / (_Q2 + 1)


def tail_mass(m: int) -> SymElem:
    """Closed form of the tail sum of masses over valuations >= m."""
    if m <= 0:
        return ONE
    return q_pow(-2 * (m - 1)) / (_Q2 + 1)


@dataclass(frozen=True)
class CosetMassTable:
    m: int
    masses: tuple  # w_0 .. w_m as SymElem
    tail: SymElem  # sum of masses over valuations >= m+1

    def total(self) -> SymElem:
        out = self.tail
        for w in self.masses:
            out = out + w
        return out


def coset_masses(m: int) -> CosetMassTable:
    if m < 0:
        raise ValueError("m must be >= 0")
    return CosetMassTable(m=m, masses=tuple(mass_w(n) for n in range(m + 1)), tail=tail_mass(m + 1))


@lru_cache(maxsize=None)
def _a_entry(l: int, n: int) -> SymElem:
    if l == 0:
        return ONE
    if l == 1:
        return q_pow(-1) if n == 0 else -q_pow(1)
    if n <= l - 2:
        return ZERO
    if n == l - 1:
        return q_pow(l - 2) * GEN_S
    return -(_Q2 - 1) * q_pow(l - 2) * GEN_S


@dataclass(frozen=True)
class ClassicalVectorTable:
    l_max: int

    def entry(self, l: int, n: int) -> SymElem:
        """Value a(l, n) on the valuation-n cell; constant in n once n >= l."""
        if l < 0 or n < 0:
            raise ValueError("indices must be >= 0")
        if l > self.l_max:
            raise ValueError(f"l exceeds table depth {self.l_max}")
        return _a_entry(l, min(n, l))


def classical_vectors(l_max: int) -> ClassicalVectorTable:
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    return ClassicalVectorTable(l_max=l_max)


def dimension(n: int) -> SymElem:
    """Dimension d_n of the level-n K-type: 1, q, then q^n - q^(n-2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE
    if n == 1:
        return _Q2
    return q_pow(2 * n) - q_pow(2 * (n - 2))


def dimension_residual(n: int) -> SymElem:
    """d_n - a(n, n)^2, identically zero for n >= 1."""
    return dimension(n) - _a_entry(n, n) ** 2


def orthonormality_residual(l: int, lp: int) -> SymElem:
    """sum_n a(l,n) a(lp,n) w_n - delta_{l,lp}, with the infinite tail in closed form."""
    m = max(l, lp)
    acc = ZERO
    for n in range(m + 1):
        acc = acc + _a_entry(l, min(n, l)) * _a_entry(lp, min(n, lp)) * mass_w(n)
    acc = acc + _a_entry(l, l) * _a_entry(lp, lp) * tail_mass(m + 1)
    if l == lp:
        acc = acc - ONE
    return acc


# ---------------------------------------------------------------------------
# intertwining eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalZetaClosedForm:
    """A named closed-form local value.

    value is a SymElem for non-archimedean data (variables as in symring) or a
    RatFunc in a plain variable s for archimedean factors.  The power of the
    additive-character conductor C(psi) is carried separately as the linear
    form conductor_exponent = (a, b, c) meaning C(psi)^(a*s + b*s0 + c); the
    oracle fixes a conductor-zero character, so this power is 1 there.
    """

    kind: str
    index: tuple
    value: Union[SymElem, RatFunc]
    conductor_exponent: tuple = (Fraction(0), Fraction(0), Fraction(0))


def intertwining_eigenvalue(l: int) -> LocalZetaClosedForm:
    """Eigenvalue of the raw standard intertwining operator on the level-l type.

    Normalisation: the measure of the integral ring is 1.  The level-0 value
    (1 - q^(-(1+2s)))/(1 - q^(-2s)) is exactly the spherical factor that the
    normalized operator divides out; the normalized eigenvalue mu_factor below
    is the ratio of this value at level l to the one at level 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    den = 1 - GEN_T**2
    if l == 0:
        val = (1 - _QINV * GEN_T**2) / den
    else:
        val = t_pow("s", 2 * l) * (1 - _QINV * GEN_T ** (-2)) / den
    return LocalZetaClosedForm(kind="m_eigenvalue", index=(l,), value=val)


def mu_factor(place: str, n: int) -> LocalZetaClosedForm:
    """Eigenvalue of the normalized intertwining operator on the level-n type.

    finite:  q^(-2ns) (1 - q^(-(1-2s)))/(1 - q^(-(1+2s))) for n >= 1; the
             level-0 eigenvalue is 1 because the normalized operator fixes
             the spherical vector (the product form ranges over n > 0 only).
    real:    prod over even k in [0, |n|-2] of (k+1-2s)/(k+1+2s), n even.
    complex: prod over k in [1, |n|/2] of (k-2s)/(k+2s), n even.

    The archimedean values involve no q and are returned as exact univariate
    rational functions of s.
    """
    if place == "finite":
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return LocalZetaClosedForm(kind="mu_factor", index=(place, 0), value=ONE)
        val = t_pow("s", 2 * n) * (1 - _QINV * GEN_T ** (-2)) / (1 - _QINV * GEN_T**2)
        return LocalZetaClosedForm(kind="mu_factor", index=(place, n), value=val)
    if place == "real":
        if n % 2:
            raise ValueError("real-place K-types require even n")
        val = RatFunc.const(1)
        for k in range(0, abs(n) - 1, 2):
            val = val * (RatFunc.linear(k + 1, -2) / RatFunc.linear(k + 1, 2))
        return LocalZetaClosedForm(kind="mu_factor", index=(place, n), value=val)
    if place == "complex":
        if n % 2:
            raise ValueError("complex-place K-types require even n")
        val = RatFunc.const(1)
        for k in range(1, abs(n) // 2 + 1):
            val = val * (RatFunc.linear(k, -2) / RatFunc.linear(k, 2))
        return LocalZetaClosedForm(kind="mu_factor", index=(place, n), value=val)
    raise ValueError(f"unknown place type {place!r}")


# ---------------------------------------------------------------------------
# transition coefficients
# ---------------------------------------------------------------------------


def _geom(svar: str, j: int) -> SymElem:
    """(q^(j v) - q^(-j v))/(q^v - q^(-v)) as an expanded Laurent polynomial."""
    if j == 0:
        return ZERO
    if j < 0:
        return -_geom(svar, -j)
    acc = ZERO
    for i in range(j):
        acc = acc + t_pow(svar, -(j - 1 - 2 * i))
    return acc


@lru_cache(maxsize=None)
def transition_coeff(n: int, l: int, svar: str = "s0") -> SymElem:
    """Closed form of c(n, l; s0) with removable poles expanded away.

    The s0-slot may be bound to any of the T-variables via svar; the
    Rankin-Selberg and hermitian ratios use s1 and s2 copies of the same
    coefficients (their coefficients are real, so the conjugate of
    c(n, l; conj(v)) is the same symbolic expression in the v-variable).
    """
    if not (0 <= l <= n):
        raise ValueError("need 0 <= l <= n")
    if n == 0:
        return ONE
    t2 = t_pow(svar, 2)
    if l == 0:
        return q_pow(-n) / (1 + _QINV) * (_geom(svar, n + 1) - _QINV * _geom(svar, n - 1))
    # sum_{i=0}^{n-l} q^((n-2i)v); the l = 1 column is normalised differently
    body = t_pow(svar, -l) * _geom(svar, n - l + 1)
    norm = 1 / (1 + _QINV) if l == 1 else _SQRT_RATIO_DOWN
    return -q_pow(-(n - l)) * body * (1 - _QINV * t2) * norm


def tilde_c(n: int, l: int, svar: str = "s0") -> SymElem:
    """c(n, l)/c(n, n), the monic-normalised coefficients of the recursion."""
    return transition_coeff(n, l, svar) / transition_coeff(n, n, svar)


def _recursion_weights(svar: str) -> tuple:
    """The weights (-q^(-1/2)(1 + q^(-2v)), q^(-1-2v)) of rows n - 1 and n - 2."""
    t2 = t_pow(svar, 2)
    return -q_pow(-1) * (1 + t2), _QINV * t2


def tilde_c_residual(n: int, l: int, svar: str = "s0") -> SymElem:
    """Three-term recursion defect of the tilde coefficients; zero when valid.

    Row n plus the _recursion_weights times rows n - 1 and n - 2 is the unit
    vector; at n = 3 the last weight carries an extra factor (1 - q^-2)^(-1/2)
    because the l = 1 column is normalised differently.  The recursion is
    checked here only; solve_transition solves by forward substitution.
    """
    if n < 3:
        raise ValueError("recursion starts at n = 3")

    def ct(nn: int, ll: int) -> SymElem:
        return tilde_c(nn, ll, svar) if ll <= nn else ZERO

    mid, last = _recursion_weights(svar)
    if n == 3:
        last = last * _INV_SQRT_ONE_MINUS
    res = ct(n, l) + mid * ct(n - 1, l) + last * ct(n - 2, l)
    if n == l:
        res = res - ONE
    return res


def _solve_lower(rhs: Sequence[SymElem], coeff) -> list:
    """Forward substitution: x_n = (rhs[n] - sum_{l<n} coeff(n, l) x_l)/coeff(n, n)."""
    out = []
    for n, r in enumerate(rhs):
        for l, x in enumerate(out):
            r = r - coeff(n, l) * x
        out.append(r / coeff(n, n))
    return out


def solve_transition(a_seq: Sequence[SymElem], svar: str = "s0") -> list:
    """Solve a_n = sum_l c(n, l) zeta_l for zeta_0, ..., zeta_N by forward substitution.

    The system is lower triangular with c(n, n) != 0.  The three-term
    recursion of the tilde coefficients (tilde_c_residual) is checked, not
    used here.  The output satisfies the defining system for every
    n < len(a_seq).
    """
    if len(a_seq) - 1 > N_MAX:
        raise ValueError(f"sequence depth capped at {N_MAX + 1}")
    a = [x if isinstance(x, SymElem) else SymElem.from_rational(x) for x in a_seq]
    return _solve_lower(a, lambda n, l: transition_coeff(n, l, svar))


def evaluation_residual(n: int, k: int, svar: str = "s0") -> SymElem:
    """Defect of the evaluation system q^((n-2k)(1/2+s0)) = sum_l c(n,l) a(l,n-k)."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    lhs = q_pow(n - 2 * k) * t_pow(svar, -(n - 2 * k))
    rhs = ZERO
    for l in range(n + 1):
        rhs = rhs + transition_coeff(n, l, svar) * _a_entry(l, min(n - k, l))
    return lhs - rhs


def unitarity_identity(n: int, svar: str = "s0") -> SymElem:
    """sum_l c(n,l;s0) c(n,l;-s0) - 1; zero since the coefficients are a unitary row.

    For purely imaginary s0 the conjugate of q^(-s0) is q^(s0), so the
    modulus-squared identity is this rational identity with the T-variable
    inverted in the second factor.
    """
    acc = -ONE
    for l in range(n + 1):
        cl = transition_coeff(n, l, svar)
        acc = acc + cl * cl.invert_var(svar)
    return acc


# ---------------------------------------------------------------------------
# one-variable local zeta closed forms
# ---------------------------------------------------------------------------


def spherical_zeta() -> LocalZetaClosedForm:
    """Spherical one-variable local zeta value.

    zeta_F(s - s0 + 1/2) zeta_F(s + s0 + 1/2)/zeta_F(1 + 2 s0) with zeta_F
    the local Euler factor (1 - q^-z)^(-1), times C(psi)^(s - s0 - 1/2).
    The matching brute-force sum is sum_m W(a(pi^m)) q^(-m s) over the
    Whittaker values of the spherical vector; see oracle.zeta_by_summation.
    """
    num = 1 - _QINV * t_pow("s0", 2)
    den = (1 - q_pow(-1) * GEN_T * t_pow("s0", -1)) * (1 - q_pow(-1) * GEN_T * t_pow("s0", 1))
    return LocalZetaClosedForm(
        kind="spherical",
        index=(),
        value=num / den,
        conductor_exponent=(Fraction(1), Fraction(-1), Fraction(-1, 2)),
    )


def zeta_ratio(l: int, dual: bool = False) -> LocalZetaClosedForm:
    """One-variable ratio zeta_l(s, s0) of the level-l value to the spherical one.

    solve_transition applied to the sequence a_n = q^(-n s); for l = 1, 2
    this is the displayed closed form.  With dual=True the ratio for the
    longest-Weyl translate is returned; it equals the plain ratio at -s,
    realised by inverting the T-variable.
    """
    if l < 0 or l > L_MAX_RATIO:
        raise ValueError(f"zeta ratios available for 0 <= l <= {L_MAX_RATIO}")
    val = solve_transition([GEN_T**n for n in range(l + 1)])[l]
    if dual:
        val = val.invert_var("s")
    return LocalZetaClosedForm(kind="ratio_l", index=(l, "dual" if dual else "plain"), value=val)


def dual_ratio_residual(l: int) -> SymElem:
    """zeta_l(-s, s0) minus the ratio solved from the dual system a_n = q^(n s)."""
    direct = zeta_ratio(l, dual=True).value
    solved = solve_transition([GEN_T ** (-n) for n in range(l + 1)])[l]
    return direct - solved


# ---------------------------------------------------------------------------
# Rankin-Selberg closed forms
# ---------------------------------------------------------------------------


def rs_a_coeff(n: int) -> LocalZetaClosedForm:
    """Ratio a_n(s, s1, s2) of the translated to the plain spherical pairing.

    q^(-n(s+1/2))/(1 - q^(-2-2s)) times a bracket of three expanded difference
    quotients in s2; the removable poles at q^(s2) = ±1 are expanded away.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pref = t_pow("s", n) * q_pow(-n) / (1 - q_pow(-4) * GEN_T**2)
    bracket = (
        _geom("s2", n + 1)
        - q_pow(-2) * GEN_T * (t_pow("s1", -1) + t_pow("s1", 1)) * _geom("s2", n)
        + q_pow(-4) * GEN_T**2 * _geom("s2", n - 1)
    )
    return LocalZetaClosedForm(kind="rs_a_n", index=(n,), value=pref * bracket)


def rs_spherical_zeta() -> LocalZetaClosedForm:
    """Spherical Rankin-Selberg local zeta value.

    Four local factors zeta_F(1/2 + s ± s1 ± s2) over
    zeta_F(1+2s1) zeta_F(1+2s2) zeta_F(1+2s), times C(psi)^(s-1).  The
    matching sum is sum_m W(s1; m) W(s2; m) q^(-m(s - 1/2)).
    """
    num = (1 - _QINV * t_pow("s1", 2)) * (1 - _QINV * t_pow("s2", 2)) * (1 - _QINV * GEN_T**2)
    den = ONE
    for e1 in (1, -1):
        for e2 in (1, -1):
            den = den * (1 - q_pow(-1) * GEN_T * t_pow("s1", e1) * t_pow("s2", e2))
    return LocalZetaClosedForm(
        kind="rs_spherical",
        index=(),
        value=num / den,
        conductor_exponent=(Fraction(1), Fraction(0), Fraction(-1)),
    )


def rs_zeta_ratio(l: int) -> LocalZetaClosedForm:
    """Rankin-Selberg ratio zeta_l(s, s1, s2) for l = 1, 2.

    solve_transition applied to the sequence rs_a_coeff(n), with the
    transition coefficients in the s1 variable, times q^(-1/2) at l = 1 and
    1/sqrt(q^2-1) at l = 2: the inverse square roots of the K-type
    dimensions, reduced into the quadratic extension.
    """
    if l not in (1, 2):
        raise ValueError("closed forms exist for l in {1, 2}")
    solved = solve_transition([rs_a_coeff(n).value for n in range(l + 1)], "s1")[l]
    val = (q_pow(-1) if l == 1 else _INV_SQRT_Q2M1) * solved
    return LocalZetaClosedForm(kind="rs_ratio_l", index=(l,), value=val)


# ---------------------------------------------------------------------------
# hermitian-pairing closed forms
# ---------------------------------------------------------------------------


def herm_a_coeff(n: int) -> LocalZetaClosedForm:
    """Hermitian translate ratio; degenerates to the total coset mass 1 at n = 0.

    The general cell sum is q^(ns) q/(q+1) + sum_{k=1}^{n-1} q^((n-2k)s)
    q^(-k) (q-1)/(q+1) + q^(-ns) q^(-n) q/(q+1), independent of s1, s2.
    """
    if n not in (0, 1, 2):
        raise ValueError("closed forms recorded for n in {0, 1, 2}")
    if n == 0:
        val = ONE
    elif n == 1:
        val = t_pow("s", -1) * (1 + _QINV * GEN_T**2) / (1 + _QINV)
    else:
        val = t_pow("s", -2) * (1 + q_pow(-4) * GEN_T**4) / (1 + _QINV) + _QINV * (
            1 - _QINV
        ) / (1 + _QINV)
    return LocalZetaClosedForm(kind="herm_a_n", index=(n,), value=val)


def herm_zeta_ratio(l: int) -> LocalZetaClosedForm:
    """Hermitian ratio ztilde_l(s, s1, s2) for l = 1, 2.

    Forward substitution in atilde_n = sum_l c(n, l; s1) c(n, l; s2) ztilde_l.
    The conjugated slot uses the same symbolic coefficients in the
    s2-variable, since they are real: conj(c(n, l; conj(s2))) = c(n, l; s2).
    The source's l = 2 display has (1+q^-1)(1-q^-1)^2 in the denominator of
    its middle term; that typo fails the defining system (checked both
    symbolically and against brute-force cell summation), and the solution
    has (1+q^-1)^2 (1-q^-1) there.
    """
    if l not in (1, 2):
        raise ValueError("closed forms exist for l in {1, 2}")
    a = [herm_a_coeff(n).value for n in range(l + 1)]
    val = _solve_lower(
        a, lambda n, k: transition_coeff(n, k, "s1") * transition_coeff(n, k, "s2")
    )[l]
    return LocalZetaClosedForm(kind="herm_ratio_l", index=(l,), value=val)


def herm_system_residual(n: int) -> SymElem:
    """Defect of atilde_n = sum_l c(n,l;s1) c(n,l;s2) ztilde_l for n <= 2."""
    if n not in (0, 1, 2):
        raise ValueError("system recorded for n in {0, 1, 2}")
    zt = [ONE] + [herm_zeta_ratio(l).value for l in range(1, n + 1)]
    rhs = ZERO
    for l in range(n + 1):
        rhs = rhs + transition_coeff(n, l, "s1") * transition_coeff(n, l, "s2") * zt[l]
    return herm_a_coeff(n).value - rhs


# ---------------------------------------------------------------------------
# numeric decay-shape checks
# ---------------------------------------------------------------------------


@dataclass
class BoundCheckReport:
    kind: str
    constant: float
    cases: list
    worst_ratio: float
    passed: bool


_DEFAULT_QS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# bound_check's depth and derivative orders, its Re s on the vertical line and
# the imaginary parts sampled by c_decay and vertical_line
_N_MAX = 6
_K_MAX = 2
_EPS = 0.1
_IM_SAMPLES = (0.1, 0.3, 0.7, 1.1)


def _dk(elem: SymElem, var: str, k: int) -> SymElem:
    for _ in range(k):
        elem = elem.d_ds(var)
    return elem


def bound_check(
    kind: str,
    constant: float = 10.0,
    qs: Sequence[int] = _DEFAULT_QS,
) -> BoundCheckReport:
    """Numeric decay-shape checks for the four bound families.

    Each case evaluates a formal s-derivative of a closed form at sample
    points and compares |value| against constant * (stated decay shape).
    The checks assert the shape with an explicit constant, not the source's
    unspecified O-constants; worst ratios are reported for freezing.  Each
    case's ratio is lhs / (constant * shape) with the raw shape below, and
    worst_ratio is the largest of them.  passed holds when every ratio
    divided by the frequency factor l^order of q^(-ls) is at most 1: the
    order-th s-derivative of q^(-ls) carries (l log q)^order (README,
    "Finite-q forms of the bounds").  The factor is l^n for
    zeta_ratio_decay, l^(k1 + k2) for herm_decay and 1 for the other kinds,
    whose shapes carry their frequency factor already.

      c_decay:          |d^k c(n,0;s0)| vs n^k q^(-n/2) log^k q on s0 in iR
                        for n <= _N_MAX = 6, and vs log^k q at the point
                        s0 = 1/2 for n <= 2 (the point evaluation has
                        c(n,0;1/2) = 1 with derivatives growing like
                        (n log q)^k, so the log-only shape is the one used
                        by the source, where the translate depth is at
                        most 2).
      zeta_ratio_decay: |d^n/ds^n zeta_l(s,0,0)|_{s=0} vs q^(-l) log^n q.
                        The shape is q-stable, but its constants grow like
                        l^n: at l = 2 they exceed 10 from n ~ 4 on.
      herm_decay:       |d^{k1}_{s1} d^{k2}_{s2} ztilde_l(s,s1,s2)| at
                        s = 0, s1 = s2 = 1/2 vs q^(-l) log^(k1+k2) q.
                        s = 0 is the pairing's central point (argument
                        1/2 + s = 1/2), where ztilde_l vanishes and the
                        derivatives inherit the stated q^(-l) decay; at
                        s = 1/2 the decay would only be q^(-l/2).
      vertical_line:    |d^n_{s0} zeta_l(s,s0)| at s0 = 1/2, Re s = _EPS = 0.1
                        vs q^(|l|(_EPS-1/2)) log^n q for |l| <= 1.
    """
    cases = []
    scaled = []  # ratio / frequency factor, which decides passed

    def push(params: dict, lhs: float, rhs: float, frequency: float = 1.0):
        ratio = lhs / rhs if rhs > 0 else math.inf
        cases.append({**params, "lhs": lhs, "bound": rhs, "ratio": ratio})
        scaled.append(ratio / frequency)

    if kind == "c_decay":
        for q in qs:
            logq = math.log(q)
            for n in range(1, _N_MAX + 1):
                base = transition_coeff(n, 0)
                for k in range(_K_MAX + 1):
                    der = _dk(base, "s0", k)
                    for t in _IM_SAMPLES:
                        lhs = abs(der.substitute(EvalPoint(q=q, s0=1j * t)))
                        rhs = constant * (n**k) * q ** (-n / 2) * logq**k
                        push({"q": q, "n": n, "k": k, "s0": f"{t}i"}, lhs, rhs)
                    if n <= 2:
                        lhs = abs(der.substitute(EvalPoint(q=q, s0=0.5)))
                        rhs = constant * logq**k
                        push({"q": q, "n": n, "k": k, "s0": "1/2"}, lhs, rhs)
    elif kind == "zeta_ratio_decay":
        for l in (1, 2):
            base = rs_zeta_ratio(l).value
            ders = [base]
            for _ in range(_N_MAX):
                ders.append(ders[-1].d_ds("s"))
            for q in qs:
                logq = math.log(q)
                pt = EvalPoint(q=q)  # s = s1 = s2 = 0
                for n in range(_N_MAX + 1):
                    lhs = abs(ders[n].substitute(pt))
                    rhs = constant * q ** (-l) * max(logq, math.log(2)) ** n
                    push({"q": q, "l": l, "n": n}, lhs, rhs, l**n)
    elif kind == "herm_decay":
        for l in (1, 2):
            base = herm_zeta_ratio(l).value
            for k1 in range(_K_MAX + 1):
                d1 = _dk(base, "s1", k1)
                for k2 in range(_K_MAX + 1):
                    der = _dk(d1, "s2", k2)
                    for q in qs:
                        logq = math.log(q)
                        pt = EvalPoint(q=q, s=0.0, s1=0.5, s2=0.5)
                        lhs = abs(der.substitute(pt))
                        rhs = constant * q ** (-l) * max(logq, math.log(2)) ** (k1 + k2)
                        push({"q": q, "l": l, "k1": k1, "k2": k2}, lhs, rhs, l ** (k1 + k2))
    elif kind == "vertical_line":
        for l in (-1, 0, 1):
            base = zeta_ratio(abs(l), dual=(l < 0)).value
            for n in range(_K_MAX + 1):
                der = _dk(base, "s0", n)
                for q in qs:
                    logq = math.log(q)
                    for t in _IM_SAMPLES:
                        pt = EvalPoint(q=q, s=_EPS + 1j * t, s0=0.5)
                        lhs = abs(der.substitute(pt))
                        rhs = constant * q ** (abs(l) * (_EPS - 0.5)) * logq**n
                        push({"q": q, "l": l, "n": n, "im_s": t}, lhs, rhs)
    else:
        raise ValueError(f"unknown bound check kind {kind!r}")

    worst = max((c["ratio"] for c in cases), default=0.0)
    passed = max(scaled, default=0.0) <= 1.0
    return BoundCheckReport(kind=kind, constant=constant, cases=cases, worst_ratio=worst, passed=passed)


# ---------------------------------------------------------------------------
# golden-file payload
# ---------------------------------------------------------------------------


def golden_payload() -> dict:
    """Canonical text forms of the tabled closed forms, for regression pinning."""
    coeffs = {
        f"c({n},{l})": transition_coeff(n, l).canonical_str()
        for n in range(5)
        for l in range(n + 1)
    }
    ratios = {
        "zeta_1": zeta_ratio(1).value.canonical_str(),
        "zeta_2": zeta_ratio(2).value.canonical_str(),
        "rs_zeta_1": rs_zeta_ratio(1).value.canonical_str(),
        "rs_zeta_2": rs_zeta_ratio(2).value.canonical_str(),
        "herm_zeta_1": herm_zeta_ratio(1).value.canonical_str(),
        "herm_zeta_2": herm_zeta_ratio(2).value.canonical_str(),
    }
    return {"schema": 1, "transition_coeffs": coeffs, "zeta_ratios": ratios}
