"""Independent brute-force checks for every closed form in locgl2.

Three kinds of machinery, deliberately sharing no code path with the closed
forms they validate:

* enumeration of GL2 over Z/q^m, classifying matrices by the valuation of
  the lower-left entry, which reproduces the double-coset masses as exact
  rationals;
* shell-by-shell summation of p-adic integrals.  Whittaker values at
  diagonal points come from the Jacquet integral cut along the shells
  |x| = q^k, where the additive character of conductor zero averages to the
  standard Ramanujan-type factors.  From valuation l on the level-l value
  is exactly A u^m + B v^m, so a local zeta value is a direct sum over l
  head shells plus one closed geometric tail.  One engine computes every
  such sum, of one Whittaker factor or of a Rankin-Selberg or hermitian
  product of two;
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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .symring import GEN_S, ONE, EvalPoint, q_pow, t_pow

__all__ = [
    "OracleError",
    "DivergenceError",
    "CosetReport",
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


def _a_cell(l: int, n: int, half, root):
    """Cell value a(l, n) with half(k) = q^(k/2) and root = sqrt((q+1)/(q-1)).

    Duplicated on purpose from the proof-level solution so the oracle does
    not import the module under test: floats for the shell sums, SymElems
    for the exact transition system.
    """
    if l == 0:
        return half(0)
    if l == 1:
        return half(-1) if n == 0 else -half(1)
    if n <= l - 2:
        return 0 * root
    if n == l - 1:
        return half(l - 2) * root
    return -(half(2) - 1) * half(l - 2) * root


def _a_num(q: int, l: int, n: int) -> float:
    """a(l, n) at residue size q in floating point."""
    return _a_cell(l, n, lambda k: q ** (k / 2.0), math.sqrt((q + 1.0) / (q - 1.0)))


def whittaker_value(q: int, l: int, s0: complex, m: int) -> complex:
    """Whittaker value of the level-l vector at the diagonal point of valuation m.

    Computed from the Jacquet integral: the region |x| <= 1 lands in the
    big cell with value a(l, 0); each shell |x| = q^k contributes the cell
    value a(l, k) weighted by the section factor q^(-k(1+2 s0)) and by the
    additive-character shell average (q^k(1 - 1/q), -q^(k-1) or 0 for a
    conductor-zero character).
    """
    if m < 0:
        return 0j
    t = q ** (-2 * s0)
    acc = complex(_a_num(q, l, 0))
    for k in range(1, m + 1):
        acc += _a_num(q, l, k) * (1 - 1.0 / q) * t**k
    acc -= _a_num(q, l, m + 1) / q * t ** (m + 1)
    return q ** (-m * (0.5 - s0)) * acc


def _whittaker_mix(q: int, l: int, s0: complex):
    """(A, u, B, v) with W_l(m) = A u^m + B v^m for every m >= l.

    A sums the shells k < l one by one and the shells k >= max(l, 1), where
    a(l, k) = a(l, l), as one geometric series; B v^m is the boundary shell
    m + 1 together with the part of that series past m.  A and B grow like
    1/(1 - t), t = q^(-2 s0), and cancel in W, so the closed form loses about
    -log10|1 - t| digits; None is returned when |1 - t| < 1e-3.
    """
    t = q ** (-2 * s0)
    if abs(1 - t) < 1e-3:
        return None
    head = complex(_a_num(q, l, 0))
    for k in range(1, l):
        head += _a_num(q, l, k) * (1 - 1.0 / q) * t**k
    all_ = _a_num(q, l, l)
    c_coef = head + (1 - 1.0 / q) * all_ * t ** max(l, 1) / (1 - t)
    d_coef = -all_ * t * ((1 - 1.0 / q) / (1 - t) + 1.0 / q)
    u = q ** (-(0.5 - s0))
    v = q ** (-(0.5 + s0))
    return c_coef, u, d_coef, v


def _factor(q: int, l: int, s0: complex, shift: int = 0, conj: bool = False,
            psi_trivial: bool = False):
    """One factor W_l(s0; m + shift) of a shell sum, complex-conjugated if conj.

    Returns (value, first, mixed, tail): value(m) is the factor at m, which
    vanishes for m < first; from m >= mixed on it equals sum c r^m over the
    tail terms ((c, r), ...), and tail is None when q^(-2 s0) is so close to
    1 that the split is degenerate or ill-conditioned (_whittaker_mix).

    psi_trivial=True is the negative control: with plain shell volumes in
    place of the character averages the value is A u^m (the mix's A) at
    every m >= 0, which matches no closed form.
    """
    mix = _whittaker_mix(q, l, s0)
    if psi_trivial:
        if mix is None or abs(q ** (-2 * s0)) >= 1:
            raise DivergenceError("trivial-character control needs |q^(-2 s0)| < 1, away from 1")
        a, u = mix[:2]
        return (lambda m: a * u**m), 0, 0, ((a, u),)

    def value(m: int) -> complex:
        w = whittaker_value(q, l, s0, m + shift)
        return w.conjugate() if conj else w

    tail = None
    if mix is not None:
        a, u, b, v = (x.conjugate() for x in mix) if conj else mix
        # W(m+shift) = (A u^shift) u^m + (B v^shift) v^m once m+shift >= l
        tail = ((a * u**shift, u), (b * v**shift, v))
    return value, -shift, l - shift, tail


def _geom_tail(coef: complex, ratio: complex, m_next: int) -> complex:
    """sum_{m >= m_next} coef * ratio^m in closed form."""
    if coef == 0:
        return 0j
    if abs(ratio) >= _RATIO_GUARD:
        raise DivergenceError("geometric ratio too close to 1")
    return coef * ratio**m_next / (1 - ratio)


def _shell_sum(factors, weight: complex) -> complex:
    """sum_m prod_i f_i(m) * weight^m over the factors made by _factor.

    Every factor vanishes below its first m, so the sum starts at the largest
    of them.  The head below the largest mixed index is summed directly (l
    shells for a level-l factor, none at level 0); past it every factor is
    exactly a sum of geometric terms, so the tail is one closed geometric
    series per product of tail terms.  If a factor is degenerate the direct
    sum runs instead, over at least 61 shells (a factor can vanish at a
    single shell) and then until its terms are negligible, at most 4061.
    """
    values, firsts, mixed, tails = zip(*factors)

    def term(m: int) -> complex:
        prod = values[0](m)
        for value in values[1:]:
            prod = prod * value(m)
        return prod * weight**m

    m_min = max(firsts)
    if None in tails:
        total = 0j
        for m in range(m_min, m_min + 4061):
            t = term(m)
            total += t
            if m > m_min + 60 and abs(t) < 1e-17 * max(1.0, abs(total)):
                break
        return total
    m_tail = max(m_min, *mixed)
    total = sum((term(m) for m in range(m_min, m_tail)), 0j)
    for terms in itertools.product(*tails):
        c, r = terms[0]
        for ci, ri in terms[1:]:
            c, r = c * ci, r * ri
        total += _geom_tail(c, r * weight, m_tail)
    return total


def zeta_by_summation(l: int, at: EvalPoint, psi_trivial: bool = False) -> complex:
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
    if abs(weight) >= 1:
        raise DivergenceError("weight ratio >= 1")
    return _shell_sum([_factor(q, l, at.s0, psi_trivial=psi_trivial)], weight)


def zeta_ratio_by_summation(l: int, at: EvalPoint) -> complex:
    """Level ratio zeta_l(s, s0) by two shell sums at the same exponent."""
    num = zeta_by_summation(l, at)
    den = zeta_by_summation(0, at)
    return num / den


# ---------------------------------------------------------------------------
# product sums (Rankin-Selberg and hermitian pairings)
# ---------------------------------------------------------------------------


def _rs_guard(at: EvalPoint):
    margin = 1.0 + at.s.real - abs(at.s1.real) - abs(at.s2.real)
    if margin <= 0.02:
        raise DivergenceError("need Re(1 + s ± s1 ± s2) > 0 with margin")


def rs_by_summation(l: int, at: EvalPoint) -> complex:
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
    sph1, sph2 = _factor(q, 0, at.s1), _factor(q, 0, at.s2)
    if l == 0:
        w = q ** (-(complex(at.s) - 0.5))
        return _shell_sum([sph1, sph2], w)
    w = q ** (-complex(at.s))
    num = _shell_sum([_factor(q, l, at.s1), sph2], w)
    den = _shell_sum([sph1, sph2], w)
    dims = {1: float(q), 2: float(q * q - 1)}
    return num / den / math.sqrt(dims[l])


def rs_a_by_summation(n: int, at: EvalPoint) -> complex:
    """Translate ratio a_n(s, s1, s2) by two shell sums at the same exponent."""
    if n < 0:
        raise OracleError("n must be >= 0")
    _rs_guard(at)
    q = at.q
    w = q ** (-complex(at.s))
    sph2 = _factor(q, 0, at.s2)
    num = _shell_sum([_factor(q, 0, at.s1, -n), sph2], w)
    den = _shell_sum([_factor(q, 0, at.s1), sph2], w)
    return num / den


def herm_a_by_summation(n: int, at: EvalPoint) -> complex:
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
        return _shell_sum([_factor(q, 0, at.s1, shift), _factor(q, 0, s2c, shift, conj=True)], w)

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


def herm_by_summation(l: int, at: EvalPoint) -> complex:
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
        return rs_by_summation(0, at)
    zt = [1.0]  # ztilde_0 = 1: the system's n = 0 row is atilde_0 = 1
    for n in range(1, l + 1):
        c1 = _c_numeric(n, complex(at.s1), at.q)
        c2 = _c_numeric(n, complex(at.s2).conjugate(), at.q).conjugate()
        acc = herm_a_by_summation(n, at)
        for k in range(n):
            acc = acc - c1[k] * c2[k] * zt[k]
        zt.append(acc / (c1[n] * c2[n]))
    return zt[l]


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

    rows = [[_a_cell(l, min(n - k, l), q_pow, GEN_S) for l in range(n + 1)]
            for k in range(n + 1)]
    rhs = [q_pow(n - 2 * k) * t_pow("s0", -(n - 2 * k)) for k in range(n + 1)]
    # Gaussian elimination with first-nonzero pivoting
    size = n + 1
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
