"""Independent brute-force checks for every closed form in locgl2.

Three kinds of machinery, deliberately sharing no code path with the closed
forms they validate:

* enumeration of GL2 over Z/q^m, classifying matrices by the valuation of
  the lower-left entry, which reproduces the double-coset masses as exact
  rationals;
* shell-by-shell summation of p-adic integrals.  Whittaker values at
  diagonal points come from the Jacquet integral cut along the shells
  |x| = q^k, where the additive character of conductor zero averages to the
  standard Ramanujan-type factors; local zeta values are then geometric-type
  sums over the valuation with closed-form tails;
* direct solution (exact or numeric) of the linear system defining the
  transition coefficients, starting only from the classical-vector cell
  data.

Sum conventions are calibrated once against the level-0 (spherical) closed
forms and recorded here:

  one-variable:    zeta(s, W)              ==  sum_m W(m) q^(-m s)
  Rankin-Selberg:  zeta(e0^(s), W x W')    ==  sum_m W(m) W'(m) q^(-m(s-1/2))
  level ratios and a_n ratios pair numerator and denominator at the same
  exponent q^(-m s), matching the closed-form ratios at the same point.

With this calibration every closed form matches to ~1e-12 relative; no
normalisation constant needs to be guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .symring import EvalPoint, SymElem, q_pow

__all__ = [
    "OracleError",
    "DivergenceError",
    "CosetReport",
    "ShellSum",
    "coset_count",
    "whittaker_value",
    "zeta_by_summation",
    "zeta_ratio_by_summation",
    "rs_by_summation",
    "rs_a_by_summation",
    "herm_by_summation",
    "herm_a_by_summation",
    "solve_transition_system",
]

MODULUS_LIMIT = 27
_RATIO_GUARD = 0.995


class OracleError(ValueError):
    pass


class DivergenceError(OracleError):
    """The requested shell sum does not converge at this evaluation point."""


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetReport:
    modulus: int
    q: int
    m: int
    cell_sizes: dict  # valuation (0..m-1) and m for the residual level-m cell
    masses: dict  # same keys, Fraction masses
    representatives: dict  # one matrix (a, b, c, d) per cell
    group_order: int


def coset_count(q: int, m: int) -> CosetReport:
    """Enumerate GL2(Z/q^m) and classify by the valuation of the lower-left entry.

    Valuations 0 .. m-1 are the genuine double cosets; entries divisible by
    q^m land in the residual cell, whose mass is the closed-form tail.
    """
    if m < 1:
        raise OracleError("m must be >= 1")
    mod = q**m
    if mod > MODULUS_LIMIT:
        raise OracleError(f"modulus {mod} exceeds enumeration limit {MODULUS_LIMIT}")
    rng = np.arange(mod, dtype=np.int64)
    a, b, c, d = np.meshgrid(rng, rng, rng, rng, indexing="ij", sparse=True)
    det = (a * d - b * c) % mod
    # det must be a unit mod q^m, i.e. not divisible by q
    unit = (det % q) != 0
    vals_of_c = np.full(mod, m, dtype=np.int64)
    for r in range(1, mod):
        x, v = r, 0
        while x % q == 0:
            x //= q
            v += 1
        vals_of_c[r] = v
    cell_sizes: dict = {}
    reps: dict = {}
    total = 0
    for v in range(m + 1):
        cmask = vals_of_c == v
        cnt = int(np.sum(unit & cmask[np.newaxis, np.newaxis, :, np.newaxis]))
        if cnt:
            cell_sizes[v] = cnt
            total += cnt
            cidx = int(np.nonzero(cmask)[0][0])
            sub = unit[:, :, cidx, :]
            ai, bi, di = (int(x[0]) for x in np.nonzero(sub))
            reps[v] = (ai, bi, cidx, di)
    masses = {v: Fraction(n, total) for v, n in cell_sizes.items()}
    return CosetReport(
        modulus=mod, q=q, m=m, cell_sizes=cell_sizes, masses=masses,
        representatives=reps, group_order=total,
    )


# ---------------------------------------------------------------------------
# Whittaker shell values
# ---------------------------------------------------------------------------


def _a_num(q: int, l: int, n: int) -> float:
    # classical-vector cell data, duplicated on purpose from the proof-level
    # solution so the shell sums do not import the module under test
    if l == 0:
        return 1.0
    if l == 1:
        return q**-0.5 if n == 0 else -(q**0.5)
    if n <= l - 2:
        return 0.0
    root = math.sqrt((q + 1.0) / (q - 1.0))
    if n == l - 1:
        return q ** ((l - 2) / 2.0) * root
    return -(q - 1.0) * q ** ((l - 2) / 2.0) * root


def whittaker_value(q: int, l: int, s0: complex, m: int, psi_trivial: bool = False) -> complex:
    """Whittaker value of the level-l vector at the diagonal point of valuation m.

    Computed from the Jacquet integral: the region |x| <= 1 lands in the
    big cell with value a(l, 0); each shell |x| = q^k contributes the cell
    value a(l, k) weighted by the section factor q^(-k(1+2 s0)) and by the
    additive-character shell average (q^k(1 - 1/q), -q^(k-1) or 0 for a
    conductor-zero character).  psi_trivial=True replaces the character
    averages by plain volumes; this is the negative control and no longer
    matches any closed form.
    """
    if psi_trivial:
        t = q ** (-2 * s0)
        if abs(t) >= 1:
            raise DivergenceError("trivial-character control needs Re s0 > 0")
        acc = complex(_a_num(q, l, 0))
        k = 1
        term = 1.0
        while k < l + 4 or abs(term) > 1e-18 * max(abs(acc), 1.0):
            term = _a_num(q, l, k) * (1 - 1.0 / q) * t**k
            acc += term
            k += 1
            if k > 4000:
                break
        acc += _a_num(q, l, l) * (1 - 1.0 / q) * t**k / (1 - t)
        return q ** (-m * (0.5 - s0)) * acc
    if m < 0:
        return 0j
    t = q ** (-2 * s0)
    acc = complex(_a_num(q, l, 0))
    for k in range(1, m + 1):
        acc += _a_num(q, l, k) * (1 - 1.0 / q) * t**k
    acc -= _a_num(q, l, m + 1) / q * t ** (m + 1)
    return q ** (-m * (0.5 - s0)) * acc


def _whittaker_mix(q: int, l: int, s0: complex):
    """(A, u, B, v) with W_l(m) = A u^m + B v^m for every m >= l."""
    t = q ** (-2 * s0)
    if abs(1 - t) < 1e-8:
        return None
    head = complex(_a_num(q, l, 0))
    for k in range(1, l):
        head += _a_num(q, l, k) * (1 - 1.0 / q) * t**k
    all_ = _a_num(q, l, l)
    c_coef = head + (1 - 1.0 / q) * all_ * t**l / (1 - t)
    d_coef = -all_ * t * ((1 - 1.0 / q) / (1 - t) + 1.0 / q)
    u = q ** (-(0.5 - s0))
    v = q ** (-(0.5 + s0))
    return c_coef, u, d_coef, v


@dataclass(frozen=True)
class ShellSum:
    q: int
    descriptor: str
    k_min: int
    k_max: int
    partial: complex
    tail: complex

    @property
    def value(self) -> complex:
        return self.partial + self.tail


def _geom_tail(coef: complex, ratio: complex, m_next: int) -> complex:
    """sum_{m >= m_next} coef * ratio^m in closed form."""
    if coef == 0:
        return 0j
    if abs(ratio) >= _RATIO_GUARD:
        raise DivergenceError("geometric ratio too close to 1")
    return coef * ratio**m_next / (1 - ratio)


def _sum_single(q: int, l: int, s0: complex, weight: complex, k_max: int,
                descriptor: str, psi_trivial: bool = False) -> ShellSum:
    """sum_{m >= 0} W_l(m) weight^m with closed-form tail past k_max."""
    if abs(weight) >= 1:
        raise DivergenceError("weight ratio >= 1")
    partial = 0j
    for m in range(k_max + 1):
        partial += whittaker_value(q, l, s0, m, psi_trivial) * weight**m
    if psi_trivial:
        # m-dependence is a single geometric factor q^(-m(1/2-s0)) weight^m
        w0 = whittaker_value(q, l, s0, 0, True)
        tail = _geom_tail(w0, q ** (-(0.5 - s0)) * weight, k_max + 1)
        return ShellSum(q, descriptor, 0, k_max, partial, tail)
    mix = _whittaker_mix(q, l, s0)
    if mix is None:
        # removable-degeneracy fallback: extend the direct sum
        m = k_max + 1
        tail = 0j
        while True:
            term = whittaker_value(q, l, s0, m) * weight**m
            tail += term
            m += 1
            if abs(term) < 1e-17 * max(1.0, abs(partial + tail)) or m > k_max + 4000:
                break
        return ShellSum(q, descriptor, 0, k_max, partial, tail)
    a_coef, u, b_coef, v = mix
    tail = _geom_tail(a_coef, u * weight, k_max + 1) + _geom_tail(b_coef, v * weight, k_max + 1)
    return ShellSum(q, descriptor, 0, k_max, partial, tail)


def zeta_by_summation(l: int, at: EvalPoint, k_max: int = 60,
                      psi_trivial: bool = False) -> complex:
    """One-variable local zeta of the level-l Whittaker vector: sum_m W_l(m) q^(-m s).

    For l = 0 this matches the spherical closed form (times C(psi)-power 1,
    since the oracle fixes a conductor-zero character); for l >= 1 it is the
    numerator of the level ratio at the same point.
    """
    if l < 0 or l > 6:
        raise OracleError("shell sums provided for 0 <= l <= 6")
    q = at.q
    if at.s.real + 0.5 - abs(at.s0.real) <= 0.02:
        raise DivergenceError("need Re s > |Re s0| - 1/2 with margin")
    weight = q ** (-complex(at.s))
    return _sum_single(q, l, at.s0, weight, k_max, f"zeta l={l}", psi_trivial).value


def zeta_ratio_by_summation(l: int, at: EvalPoint, k_max: int = 60) -> complex:
    """Level ratio zeta_l(s, s0) by two shell sums at the same exponent."""
    num = zeta_by_summation(l, at, k_max)
    den = zeta_by_summation(0, at, k_max)
    return num / den


# ---------------------------------------------------------------------------
# product sums (Rankin-Selberg and hermitian pairings)
# ---------------------------------------------------------------------------


def _sum_product(q: int, l1: int, s01: complex, shift1: int,
                 l2: int, s02: complex, shift2: int,
                 weight: complex, k_max: int, conj2: bool = False,
                 descriptor: str = "product") -> ShellSum:
    """sum_m W_{l1}(s01; m+shift1) * W_{l2}(s02; m+shift2)(^-) * weight^m.

    The second factor is complex-conjugated when conj2 is set (true numeric
    conjugation; nothing symbolic).  Both factors vanish below valuation 0,
    so the sum starts at m = max(-shift1, -shift2); past the saturation
    depth each factor is a two-term geometric mix, so the tail is a sum of
    four closed geometric series.
    """
    m_min = max(-shift1, -shift2)

    def f2(mv: int) -> complex:
        w = whittaker_value(q, l2, s02, mv + shift2)
        return w.conjugate() if conj2 else w

    partial = 0j
    m_stop = m_min + k_max
    for m in range(m_min, m_stop + 1):
        partial += whittaker_value(q, l1, s01, m + shift1) * f2(m) * weight**m
    mix1 = _whittaker_mix(q, l1, s01)
    mix2 = _whittaker_mix(q, l2, s02)
    if mix1 is None or mix2 is None:
        tail = 0j
        m = m_stop + 1
        while True:
            term = whittaker_value(q, l1, s01, m + shift1) * f2(m) * weight**m
            tail += term
            m += 1
            if abs(term) < 1e-17 * max(1.0, abs(partial + tail)) or m > m_stop + 4000:
                break
        return ShellSum(q, descriptor, m_min, m_stop, partial, tail)
    a1, u1, b1, v1 = mix1
    a2, u2, b2, v2 = mix2
    if conj2:
        a2, u2, b2, v2 = a2.conjugate(), u2.conjugate(), b2.conjugate(), v2.conjugate()
    # W(m+shift) = (A u^shift) u^m + (B v^shift) v^m once m+shift >= l
    tail = 0j
    m_next = m_stop + 1
    assert m_next + shift1 >= l1 and m_next + shift2 >= l2
    for c1, r1 in ((a1 * u1**shift1, u1), (b1 * v1**shift1, v1)):
        for c2, r2 in ((a2 * u2**shift2, u2), (b2 * v2**shift2, v2)):
            tail += _geom_tail(c1 * c2, r1 * r2 * weight, m_next)
    return ShellSum(q, descriptor, m_min, m_stop, partial, tail)


def _rs_guard(at: EvalPoint):
    margin = 1.0 + at.s.real - abs(at.s1.real) - abs(at.s2.real)
    if margin <= 0.02:
        raise DivergenceError("need Re(1 + s ± s1 ± s2) > 0 with margin")


def rs_by_summation(l: int, at: EvalPoint, k_max: int = 60) -> complex:
    """Rankin-Selberg shell sums for the spherical pairing of two principal series.

    l = 0 returns the full spherical value sum_m W(s1; m) W(s2; m)
    q^(-m(s-1/2)), matching the spherical closed form; l = 1, 2 return the
    normalised ratio: the K-integral collapses to a single shell sum
    weighted by the inverse square root of the K-type dimension.
    """
    if l not in (0, 1, 2):
        raise OracleError("Rankin-Selberg sums provided for l in {0, 1, 2}")
    _rs_guard(at)
    q = at.q
    if l == 0:
        w = q ** (-(complex(at.s) - 0.5))
        return _sum_product(q, 0, at.s1, 0, 0, at.s2, 0, w, k_max, descriptor="rs l=0").value
    w = q ** (-complex(at.s))
    num = _sum_product(q, l, at.s1, 0, 0, at.s2, 0, w, k_max, descriptor=f"rs l={l}").value
    den = _sum_product(q, 0, at.s1, 0, 0, at.s2, 0, w, k_max, descriptor="rs den").value
    dims = {1: float(q), 2: float(q * q - 1)}
    return num / den / math.sqrt(dims[l])


def rs_a_by_summation(n: int, at: EvalPoint, k_max: int = 60) -> complex:
    """Translate ratio a_n(s, s1, s2) by two shell sums at the same exponent."""
    if n < 0:
        raise OracleError("n must be >= 0")
    _rs_guard(at)
    q = at.q
    w = q ** (-complex(at.s))
    num = _sum_product(q, 0, at.s1, -n, 0, at.s2, 0, w, k_max, descriptor=f"rs a_{n}").value
    den = _sum_product(q, 0, at.s1, 0, 0, at.s2, 0, w, k_max, descriptor="rs den").value
    return num / den


def herm_a_by_summation(n: int, at: EvalPoint, k_max: int = 60) -> complex:
    """Hermitian translate ratio atilde_n by explicit coset-cell bookkeeping.

    The compact group splits modulo the level-n subgroup into q^(n-1) lower
    unipotent cells and q^n Weyl-translate cells.  On a lower cell of
    parameter valuation k the integrand reduces to diagonal values shifted
    by n - 2k (the character factors cancel against their conjugates); the
    zero-parameter cell shifts by -n and the Weyl cells by +n.
    """
    if n < 0:
        raise OracleError("n must be >= 0")
    _rs_guard(at)
    if n == 0:
        return 1.0 + 0j
    q = at.q
    w = q ** (-complex(at.s))
    s2c = complex(at.s2).conjugate()

    def cell(shift: int) -> complex:
        return _sum_product(
            q, 0, at.s1, shift, 0, s2c, shift, w, k_max, conj2=True,
            descriptor=f"herm cell shift={shift}",
        ).value

    index = q ** (n - 1) * (q + 1)
    total = 0j
    for k in range(1, n):
        count = q ** (n - k) - q ** (n - k - 1)
        total += count * cell(n - 2 * k)
    total += cell(-n)  # zero-parameter lower cell
    total += q**n * cell(n)  # Weyl-translate cells
    den = cell(0)
    return total / index / den


def _c_numeric(n: int, at_s0: complex, q: int) -> np.ndarray:
    """Transition coefficients at a numeric point, solved from the cell system."""
    mat = np.array(
        [[_a_num(q, l, min(n - k, l)) for l in range(n + 1)] for k in range(n + 1)],
        dtype=complex,
    )
    rhs = np.array([q ** ((n - 2 * k) * (0.5 + at_s0)) for k in range(n + 1)], dtype=complex)
    return np.linalg.solve(mat, rhs)


def herm_by_summation(l: int, at: EvalPoint, k_max: int = 60) -> complex:
    """Hermitian ratio ztilde_l for l in {0, 1, 2}, from cells plus a solved system.

    l = 0 returns the spherical hermitian value, which coincides with the
    Rankin-Selberg spherical value.  For l = 1, 2 the translate ratios
    atilde_n are computed by cell bookkeeping and the defining linear system
    is solved with transition coefficients obtained numerically from the
    cell data (true complex conjugation on the second slot throughout), so
    the closed forms under test are never consulted.
    """
    if l not in (0, 1, 2):
        raise OracleError("hermitian sums provided for l in {0, 1, 2}")
    if l == 0:
        return rs_by_summation(0, at, k_max)
    q = at.q
    cs1 = {n: _c_numeric(n, complex(at.s1), q) for n in (1, 2)}
    cs2 = {n: _c_numeric(n, complex(at.s2).conjugate(), q).conjugate() for n in (1, 2)}
    at1 = herm_a_by_summation(1, at, k_max)
    zt1 = (at1 - cs1[1][0] * cs2[1][0]) / (cs1[1][1] * cs2[1][1])
    if l == 1:
        return zt1
    at2 = herm_a_by_summation(2, at, k_max)
    return (at2 - cs1[2][0] * cs2[2][0] - cs1[2][1] * cs2[2][1] * zt1) / (
        cs1[2][2] * cs2[2][2]
    )


# ---------------------------------------------------------------------------
# transition system solver
# ---------------------------------------------------------------------------


def solve_transition_system(n: int, mode: str = "symbolic",
                            at: Optional[EvalPoint] = None):
    """Solve the evaluation system for the coefficients c(n, l; s0).

    symbolic mode performs exact Gaussian elimination over the quadratic
    extension and returns SymElems; numeric mode solves the complex system
    at an EvalPoint.  Either way the matrix is built from the classical cell
    values only, never from the closed forms being validated.
    """
    if n < 0 or n > 8:
        raise OracleError("system depth capped at 8")
    if mode == "numeric":
        if at is None:
            raise OracleError("numeric mode needs an EvalPoint")
        return _c_numeric(n, complex(at.s0), at.q)
    if mode != "symbolic":
        raise OracleError("mode must be symbolic or numeric")

    from .symring import GEN_S, ONE, ZERO, t_pow

    def a_sym(l: int, nn: int) -> SymElem:
        nn = min(nn, l)
        if l == 0:
            return ONE
        if l == 1:
            return q_pow(-1) if nn == 0 else -q_pow(1)
        if nn <= l - 2:
            return ZERO
        if nn == l - 1:
            return q_pow(l - 2) * GEN_S
        return -(q_pow(2) - 1) * q_pow(l - 2) * GEN_S

    rows = [[a_sym(l, n - k) for l in range(n + 1)] for k in range(n + 1)]
    rhs = [q_pow(n - 2 * k) * t_pow("s0", -(n - 2 * k)) for k in range(n + 1)]
    # Gaussian elimination with first-nonzero pivoting
    size = n + 1
    cols = list(range(size))
    for col in range(size):
        piv = next((r for r in range(col, size) if not rows[r][col].is_zero), None)
        if piv is None:
            raise OracleError("singular transition system; cell data transcribed wrong")
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = ONE / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        rhs[col] = rhs[col] * inv
        for r in range(size):
            if r != col and not rows[r][col].is_zero:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    return rhs
