"""Dirichlet characters, central L-values and conductor-exponent scans.

The character group mod q is one cached CharacterGroup: the unit group split
into cyclic components with explicit generators, and the discrete logs of
every unit on them (each component's table is scattered from one array of
generator powers, built as giant steps times baby steps).  A character is
nothing but (q, index k) on the dual grid: parity (CharacterGroup.parity,
one rule for one index or an array), conductor, primitivity and label are
read off k, and its value table (exact integer phases) is built only when
read.  The primitive characters of q are one int64 index array, a row per
character (enumerate_characters, one mask per component), and the scan works
on those rows without building a character object.  CharacterGroup.sums
gives sum_r chi(r) f(r) for every chi at once by one FFT over the
discrete-log grid.

Central values are computed two independent ways:

* l_central: a balanced smoothed approximate functional equation

      L(1/2, chi) = sum_n chi(n) n^(-1/2) V1(n / (X sqrt(q/pi)))
                  - eps(chi) sum_n conj(chi)(n) n^(-1/2) V2(n X / sqrt(q/pi))

  where eps(chi) = tau(chi)/(i^a sqrt(q)), V1/V2 are inverse Mellin
  transforms of M[h0](±s) times the archimedean gamma-factor ratio along
  Re s = 1 (V2 tends to -1 at 0; the minus sign above makes both sides
  effectively positive-weight sums of length about sqrt(q) polylog).
  On Re s = sigma the contour sum at u = log(n/x) < 0 is exp(-sigma u)
  times a sum that cancels to about exp(sigma u), so its rounding, summed
  over n, grows like x^sigma.  With sigma = 1 the tables' whole bound stays
  below 3.3e-11 for every supported q and balance (worst at q = 10^5,
  balance 5); sigma = 2 pushed it to 3e-8 there, past the default target.

  V1 and V2 depend on n only through u = log(n/x) and the parity, so each
  (parity, side) is tabulated once: 60 Chebyshev panels of width 1/4 and
  degree 28 on u in [-7, 8], sampled from the 20 x 32-node Gauss-Legendre
  contour sum on 0 <= t <= 40 and evaluated by Clenshaw's recurrence.  An
  argument outside [-7, 8] raises (n = 1 leaves it only above q = 1.5e5
  at balance 5); tables are never extrapolated.  The absolute error
  budget, checked against the target, is the sum of
    - the series tails past N1 and N2 (shifted-contour bounds at Re s in
      {4, 8, 12});
    - the contour truncation at t = 40 (gamma decay exp(-pi t/4)), summed
      over n as x^sigma zeta(sigma + 1/2);
    - per weight n^(-1/2) and summed over n, each table's per-panel bound:
      the Chebyshev interpolation error on a Bernstein ellipse, the
      rounding of the sampled contour sums times the Lebesgue constant,
      the rounding of the coefficients, of Clenshaw's recurrence and of
      u, and the Gauss-Legendre error of the contour rule (Bernstein
      ellipses of the t-panels, where M[h0] and the gamma ratio are
      bounded by their values on the real axis).
  The values M[h0](s) and the gamma ratios at the contour nodes are taken
  as exact: their own evaluation errors are not in the budget.

  The combination is written once (_central_values) in terms of the
  character sums sum_r chi(r) f(r): l_central passes dot products against
  one character's values, the scan passes group transforms gathered at the
  primitive indices of one parity, and both check the Gauss sums there.

* l_oracle_hurwitz: L(s, chi) = q^(-s) sum_a chi(a) zeta_H(s, a/q) with the
  Hurwitz zeta evaluated by Euler-Maclaurin (50 direct terms, Bernoulli
  corrections through B12), absolute error ~1e-10 for Re s >= 0.4,
  |Im s| <= 10.  At real s (the central point included) every power is
  taken in float64 and the row of zeta_H(s, a/q) is real; the truncation
  and the error claim are the same as at complex s.

The scan walks a range of moduli, records max over primitive chi of
|L(1/2, chi)|, and fits the growth exponent in log-log coordinates; the
Burgess-type target exponent 1/4 - (1-2*theta)/16 is reported alongside for
context.  The scan is an empirical sanity trend, not a proof check.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import gamma, loggamma, zeta

from . import mellin

__all__ = [
    "LfuncError",
    "AfeError",
    "CharacterGroup",
    "DirichletCharacter",
    "ScanRecord",
    "FitResult",
    "character_group",
    "enumerate_characters",
    "all_characters",
    "character_by_label",
    "gauss_sum",
    "root_number",
    "hurwitz_zeta",
    "l_oracle_hurwitz",
    "l_central",
    "scan",
    "exponent_fit",
    "burgess_target",
    "primitive_character_count",
]

MAX_MODULUS = 100_000
MAX_ORACLE_MODULUS = 10_000


class LfuncError(ValueError):
    pass


class AfeError(LfuncError):
    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved bound {achieved:.3e})")
        self.achieved = achieved


# ---------------------------------------------------------------------------
# the character group
# ---------------------------------------------------------------------------


def factorize(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int, e: int) -> int:
    """Generator of the (cyclic) unit group mod p^e for odd p."""
    fac = [f for f, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class _Component:
    prime: int
    power: int  # the prime power p^e dividing q
    order: int  # cyclic order of this component
    kind: str  # odd | four | two_sign | two_five


@dataclass(frozen=True, eq=False)
class CharacterGroup:
    """(Z/q)^* as a grid of cyclic components, and its characters on the dual grid.

    units lists the unit residues in ascending order and coords[i, j] is the
    discrete log of units[j] on the generator of components[i], a cyclic
    group of order orders[i].  The character of index k is
    chi_k(r) = exp(2 pi i sum_i k_i coords[i](r) / orders[i]).
    """

    q: int
    components: tuple
    orders: tuple
    units: np.ndarray
    coords: np.ndarray

    def sums(self, f, conj: bool = False) -> np.ndarray:
        """sum_r chi_k(r) f(r) for every index k, as an array of shape orders.

        f is indexed by residue mod q (entries off the units are ignored);
        with conj the characters are conjugated.  One FFT over the grid of
        discrete logs serves every character at once.
        """
        cell = np.zeros(len(self.units), dtype=np.int64)
        for c, n in zip(self.coords, self.orders):
            cell = cell * n + c
        grid = np.zeros(math.prod(self.orders), dtype=complex)
        grid[cell] = np.asarray(f)[self.units]
        grid = grid.reshape(self.orders)
        axes = tuple(range(grid.ndim))
        if conj:
            return np.fft.fftn(grid, axes=axes)
        return np.fft.ifftn(grid, axes=axes, norm="forward")

    def parity(self, index):
        """0 for even and 1 for odd chi_k, for one index k or an array of them (one per row).

        chi_k(-1) = (-1)^(sum_i 2 k_i c_i / n_i) with c_i the logs of -1 =
        units[-1]; each 2 c_i / n_i is an integer because (-1)^2 = 1.
        """
        half_turns = 2 * self.coords[:, -1] // np.array(self.orders, dtype=np.int64)
        out = np.asarray(index, dtype=np.int64) @ half_turns % 2
        return int(out) if out.ndim == 0 else out


def _power_table(g: int, n: int, m: int) -> np.ndarray:
    """g^i mod m for i in range(n), as giant steps g^(b j) times baby steps g^r.

    The outer product of the two short lists needs only O(sqrt n) Python
    steps; its entries stay below m^2 <= 10^10, inside int64.
    """
    b = math.isqrt(n - 1) + 1
    baby = np.array([pow(g, r, m) for r in range(b)], dtype=np.int64)
    giant = np.array([pow(g, b * j, m) for j in range(-(-n // b))], dtype=np.int64)
    return (giant[:, None] * baby[None, :] % m).ravel()[:n]


@lru_cache(maxsize=512)
def character_group(q: int) -> CharacterGroup:
    """Cyclic decomposition of (Z/q)^* with discrete-log coordinates, cached.

    Odd prime powers contribute one cyclic component each; 4 contributes one
    of order 2; 2^e with e >= 3 contributes the sign component (order 2) and
    the 5-power component (order 2^(e-2)).
    """
    if q < 1:
        raise LfuncError("modulus must be >= 1")
    if q > MAX_MODULUS:
        raise LfuncError(f"modulus limit is {MAX_MODULUS}")
    comps: list = []
    tables: list = []
    for p, e in factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                tab = -np.ones(4, dtype=np.int64)
                tab[1], tab[3] = 0, 1
                comps.append(_Component(2, 4, 2, "four"))
                tables.append(tab)
            else:
                half = 2 ** (e - 2)
                fives = _power_table(5, half, pe)
                sign_tab = -np.ones(pe, dtype=np.int64)
                five_tab = -np.ones(pe, dtype=np.int64)
                sign_tab[fives], sign_tab[pe - fives] = 0, 1
                five_tab[fives] = five_tab[pe - fives] = np.arange(half)
                comps.append(_Component(2, pe, 2, "two_sign"))
                tables.append(sign_tab)
                comps.append(_Component(2, pe, half, "two_five"))
                tables.append(five_tab)
        else:
            g = _primitive_root(p, e)
            order = pe - pe // p
            tab = -np.ones(pe, dtype=np.int64)
            tab[_power_table(g, order, pe)] = np.arange(order)
            comps.append(_Component(p, pe, order, "odd"))
            tables.append(tab)
    residues = np.arange(q, dtype=np.int64)
    units = residues[np.gcd(residues, q) == 1]
    coords = np.zeros((len(comps), len(units)), dtype=np.int64)
    for i, (c, tab) in enumerate(zip(comps, tables)):
        coords[i] = tab[units % c.power]
    return CharacterGroup(q, tuple(comps), tuple(c.order for c in comps), units, coords)


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q: the index k of chi_k on character_group(q).

    parity (0 for even, 1 for odd characters), conductor, primitivity and
    label are read off the index; values[n] is chi(n mod q), built on first
    read from exact integer phases.
    """

    q: int
    index: tuple

    @property
    def parity(self) -> int:
        return character_group(self.q).parity(self.index)

    @property
    def conductor(self) -> int:
        return _conductor_of_index(character_group(self.q), self.index)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    @property
    def label(self) -> str:
        return ".".join(map(str, self.index)) if self.index else "0"

    @cached_property
    def values(self) -> np.ndarray:
        group = character_group(self.q)
        exponent = math.lcm(*group.orders)
        phases = np.zeros(len(group.units), dtype=np.int64)
        for k, n, c in zip(self.index, group.orders, group.coords):
            phases += k * (exponent // n) * c
        values = np.zeros(self.q, dtype=complex)
        values[group.units] = _root_table(exponent)[phases % exponent]
        return values

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.q])

    def conj(self) -> "DirichletCharacter":
        orders = character_group(self.q).orders
        return DirichletCharacter(self.q, tuple(-k % n for k, n in zip(self.index, orders)))

    def __repr__(self) -> str:
        tag = "primitive" if self.is_primitive else f"conductor {self.conductor}"
        return f"DirichletCharacter(q={self.q}, label={self.label}, parity={self.parity}, {tag})"


def _local_conductor(c: _Component, k: int, sign_k: int = 0) -> int:
    """The part of the conductor that component c contributes at index k.

    At 2^e with e >= 3 the sign index sign_k is counted with the 5-power
    index that follows it, so the sign component alone contributes 1.
    """
    if c.kind == "two_sign":
        return 1
    if not k:
        return 4 if c.kind == "two_five" and sign_k else 1
    if c.kind == "four":
        return 4
    d = c.order // math.gcd(c.order, k)  # the order of the character on c
    if c.kind == "two_five":
        return 4 * d
    v = 0
    while d % c.prime == 0:
        d //= c.prime
        v += 1
    return c.prime ** (1 + v)


def _conductor_of_index(group: CharacterGroup, index: tuple) -> int:
    cond = 1
    sign_k = 0
    for c, k in zip(group.components, index):
        cond *= _local_conductor(c, k, sign_k)
        sign_k = k if c.kind == "two_sign" else 0
    return cond


# one modulus q uses two tables: lambda(q) for character values, q for Gauss sums
@lru_cache(maxsize=2)
def _root_table(exponent: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(exponent) / exponent)


def all_characters(q: int) -> list:
    """Every Dirichlet character mod q, in lexicographic index order."""
    orders = character_group(q).orders
    return [DirichletCharacter(q, idx) for idx in itertools.product(*map(range, orders))]


def enumerate_characters(q: int) -> np.ndarray:
    """The primitive characters mod q as one int64 index array, a row k per chi_k.

    The rows are in lexicographic index order, the order of all_characters;
    q = 1 gives one row of length 0 and q = 2 mod 4 gives none.  Primitivity
    is a condition on each component of the index (its local conductor, the
    rule of _local_conductor, is the full prime power), so each component
    contributes one mask and the rows are the product of the masked ranges.
    DirichletCharacter(q, tuple(k)) is the character of a row k.
    """
    group = character_group(q)
    # one empty row to extend, or none at q = 2 mod 4: no character mod 2 has conductor 2
    rows = np.zeros((0 if q % 4 == 2 else 1, 0), dtype=np.int64)
    for c in group.components:
        k = np.arange(c.order, dtype=np.int64)
        d = c.order // np.gcd(c.order, k)  # the order of the character on c
        if c.kind == "odd":
            keep = (k != 0) & (d % (c.power // c.prime) == 0)
        elif c.kind == "four":
            keep = k == 1
        elif c.kind == "two_five":
            keep = 4 * d == c.power
        else:  # two_sign is free: primitivity at 2^e, e >= 3, is decided by the 5-power index
            keep = np.ones(c.order, dtype=bool)
        k = k[keep]
        rows = np.column_stack([np.repeat(rows, len(k), axis=0), np.tile(k, len(rows))])
    return rows


def character_by_label(q: int, label: str) -> DirichletCharacter:
    """Look up a character mod q by its dot-joined exponent label."""
    orders = character_group(q).orders
    label_format = f"dot-joined integers, one per component of (Z/{q})^* (it has {len(orders)})"
    try:
        index = () if not orders and label in ("", "0") else tuple(int(p) for p in label.split("."))
    except ValueError:
        raise LfuncError(f"label {label!r} mod {q} must be {label_format}") from None
    if len(index) != len(orders):
        raise LfuncError(
            f"label {label!r} mod {q} has {len(index)} parts; it must be {label_format}")
    return DirichletCharacter(q, tuple(k % n for k, n in zip(index, orders)))


def primitive_character_count(q: int) -> int:
    """Number of primitive characters mod q: sum over d|q of mu(q/d) phi(d)."""

    def phi(n: int) -> int:
        out = n
        for p, _ in factorize(n):
            out = out // p * (p - 1)
        return out

    def mu(n: int) -> int:
        out = 1
        for _, e in factorize(n):
            if e > 1:
                return 0
            out = -out
        return out

    return sum(mu(q // d) * phi(d) for d in range(1, q + 1) if q % d == 0)


def _value_sums(chi: DirichletCharacter):
    """The sums of _central_values for one character, as dot products of length q.

    One character does not go through the group FFT, whose length phi(q)
    can have a large prime factor (277 at q = 9973).
    """

    def sums(f, conj: bool = False) -> complex:
        return complex(np.vdot(chi.values, f) if conj else chi.values @ f)  # vdot conjugates

    return sums


def _check_gauss(q: int, tau) -> None:
    """|tau(chi)| = sqrt(q) for primitive chi; anything else means corrupt data."""
    if np.any(np.abs(np.abs(tau) - math.sqrt(q)) > 1e-8 * math.sqrt(q)):
        raise LfuncError("Gauss sum modulus check failed; character data corrupt")


def _gauss_sums(q: int, sums):
    """tau(chi) = sums(e(r/q)) for the characters sums ranges over, checked."""
    tau = sums(_root_table(q))
    _check_gauss(q, tau)
    return tau


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q); primitive characters only."""
    if not chi.is_primitive:
        raise LfuncError("Gauss sums are computed for primitive characters only")
    return _gauss_sums(chi.q, _value_sums(chi))


def root_number(chi: DirichletCharacter) -> complex:
    """eps(chi) = tau(chi) / (i^a sqrt(q)); unimodular for primitive chi."""
    return gauss_sum(chi) / (1j**chi.parity * math.sqrt(chi.q))


# ---------------------------------------------------------------------------
# Hurwitz-zeta oracle
# ---------------------------------------------------------------------------

_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
)
_EM_TERMS = 50


def _hurwitz_vec(s: complex, xs: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin Hurwitz zeta for an array of offsets in (0, 1].

    Float64 at real s (for real offsets) and complex otherwise.  The error
    is ~1e-10 absolute, relative where |zeta_H| exceeds 1 (near x^(-s) for
    a small offset x).
    """
    s = complex(s)
    if abs(s - 1) < 1e-12:
        raise LfuncError("Hurwitz zeta has a pole at s = 1")
    if s.real < 0.4 or abs(s.imag) > 10:
        raise LfuncError("oracle validated for Re s >= 0.4, |Im s| <= 10 only")
    s = s.real if s.imag == 0 else s  # real s: every power in float64
    ks = np.arange(_EM_TERMS)[:, None]
    direct = np.sum((ks + xs[None, :]) ** (-s), axis=0)
    m = _EM_TERMS + xs
    out = direct + m ** (1 - s) / (s - 1) + 0.5 * m ** (-s)
    poch = s
    fact = 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        if j > 1:
            poch = poch * (s + 2 * j - 3) * (s + 2 * j - 2)
            fact *= (2 * j - 1) * (2 * j)
        out = out + (float(b) / fact) * poch * m ** (-s - 2 * j + 1)
    return out


def hurwitz_zeta(s: complex, x: float) -> complex:
    """zeta_H(s, x) for 0 < x <= 1; error ~1e-10 (as _hurwitz_vec) in the guard domain."""
    if not 0 < x <= 1:
        raise LfuncError("offset must lie in (0, 1]")
    return complex(_hurwitz_vec(s, np.array([float(x)]))[0])


@lru_cache(maxsize=64)
def _hurwitz_row(q: int, s_key: tuple) -> np.ndarray:
    s = complex(*s_key)
    return _hurwitz_vec(s, np.arange(1, q + 1) / q)


def l_oracle_hurwitz(chi: DirichletCharacter, s: complex) -> complex:
    """L(s, chi) = q^(-s) sum_a chi(a) zeta_H(s, a/q), the independent oracle.

    At s = 1 the Hurwitz poles cancel for non-principal characters and the
    value reduces to -q^(-1) sum_a chi(a) psi(a/q) with psi the digamma.
    """
    q = chi.q
    if q > MAX_ORACLE_MODULUS:
        raise LfuncError(f"oracle modulus limit is {MAX_ORACLE_MODULUS}")
    s = complex(s)
    if abs(s - 1) < 1e-12:
        from scipy.special import digamma

        if abs(np.sum(chi.values)) > 1e-9:
            raise LfuncError("L(s, chi) has a pole at s = 1 for principal chi")
        vals = np.roll(chi.values, -1)
        return complex(-np.sum(vals * digamma(np.arange(1, q + 1) / q)) / q)
    row = _hurwitz_row(q, (s.real, s.imag))
    vals = np.roll(chi.values, -1)  # chi(1), ..., chi(q-1), chi(q=0 mod q)
    return complex(q ** (-s) * np.sum(vals * row))


# ---------------------------------------------------------------------------
# smoothed approximate functional equation
# ---------------------------------------------------------------------------

_SIGMA = 1.0
_PANEL_WIDTH = 2.0
_CONTOUR_NODES = 32  # Gauss-Legendre nodes per contour panel
_T_CAP = 40.0
_TAIL_SIGMAS = (4.0, 8.0, 12.0)


@lru_cache(maxsize=4)
def _contour(t_cap: float) -> tuple:
    """Nodes, weights and cached M[h0](±(sigma + i t)) on [0, t_cap]."""
    panels = int(round(t_cap / _PANEL_WIDTH))
    gl_x, gl_w = np.polynomial.legendre.leggauss(_CONTOUR_NODES)
    nodes, weights = [], []
    for i in range(panels):
        mid = (i + 0.5) * _PANEL_WIDTH
        half = 0.5 * _PANEL_WIDTH
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    t = np.concatenate(nodes)
    w = np.concatenate(weights)
    h_plus = mellin.mellin_h0_batch(_SIGMA + 1j * t, 4)
    s_minus = -_SIGMA - 1j * t
    near_pole = np.min(np.abs(s_minus[:, None] + np.arange(4)[None, :]), axis=1) < 0.05
    h_minus = np.empty_like(h_plus)
    if np.any(~near_pole):
        h_minus[~near_pole] = mellin.mellin_h0_batch(s_minus[~near_pole], 4)
    for i in np.nonzero(near_pole)[0]:
        h_minus[i] = mellin.mellin_h0_continued(s_minus[i])
    return t, w, h_plus, h_minus


def _gamma_ratio(parity: int, s) -> np.ndarray:
    """Gamma((1/2 + a + s)/2) / Gamma((1/2 + a)/2); the conductor power lives
    in the weight argument, not here."""
    lg0 = loggamma((0.5 + parity) / 2.0)
    return np.exp(loggamma((0.5 + parity + np.asarray(s)) / 2.0) - lg0)


@lru_cache(maxsize=16)
def _gamma_abs_integral(parity: int, sigma: float) -> float:
    """(1/2 pi) integral over the full vertical line of |gamma ratio|."""
    t, w, _, _ = _contour(_T_CAP)
    vals = np.abs(_gamma_ratio(parity, sigma + 1j * t))
    return float(np.sum(w * vals)) / math.pi


@lru_cache(maxsize=16)
def _h_plus_sup(sigma: float) -> float:
    # |M[h0](sigma + i t)| <= M[h0](sigma) for sigma > 0 (positive integrand)
    return abs(mellin.mellin_h0(sigma, 0))


@lru_cache(maxsize=16)
def _h_minus_sup(sigma: float) -> float:
    # |M[h0](-sigma - i t)| = |M[1-h0](-sigma - i t)| <= M[1-h0](-sigma)
    return abs(mellin.mellin_one_minus_h0_direct(-sigma))


@dataclass(frozen=True)
class _AfeWeights:
    n1: int
    w1: np.ndarray  # n^(-1/2) V1 at n = 1..n1
    n2: int
    w2: np.ndarray  # n^(-1/2) V2 at n = 1..n2
    error_bound: float


def _series_length(parity: int, x_eff: float, side: int, target: float) -> tuple:
    """Smallest cutoff with shifted-contour tail bound below target.

    x_eff is the decay scale of the side (the weight argument is n/x_eff):
    the tail of sum_{n>N} n^(-1/2) |V(n/x_eff)| is bounded on Re s = sigma by
    (Gamma-line integral) * sup|H| * x_eff^sigma * N^(1/2-sigma)/(sigma-1/2).
    """
    n = max(16, int(6.8 * x_eff) + 32)
    for _ in range(80):
        bound = math.inf
        for sigma in _TAIL_SIGMAS:
            m_line = _gamma_abs_integral(parity, sigma) * (
                _h_plus_sup(sigma) if side == 1 else _h_minus_sup(sigma)
            )
            tail = m_line * x_eff**sigma * n ** (0.5 - sigma) / (sigma - 0.5)
            bound = min(bound, tail)
        if bound <= target:
            return n, bound
        n = int(n * 1.3) + 8
    raise AfeError("series tail bound not met", bound)


# V1 and V2 depend on n only through u = log(n/x): they are tabulated once per
# (parity, side) as Chebyshev panels on [_U_MIN, _U_MAX], which covers every
# weight argument of 3 <= q <= MAX_MODULUS at balance in [0.2, 5]
_U_MIN, _U_MAX = -7.0, 8.0
_U_PANEL = 0.25
_TABLE_DEGREE = 28
_GL_RHO = 2.0  # Bernstein ellipse of the contour panels: |Im t| <= 3/4 < sigma
_ROUNDOFF = 2.0**-53


def _contour_coefficients(parity: int, side: int) -> np.ndarray:
    """a_j = w_j G(s_j) H(s_j) on the contour nodes s_j = sigma + i t_j.

    H is M[h0](s) for V1 and M[h0](-s) for V2, so that the contour sum is
    V(u) = (1/pi) Re sum_j a_j exp(-s_j u).
    """
    t, w, h_plus, h_minus = _contour(_T_CAP)
    return w * _gamma_ratio(parity, _SIGMA + 1j * t) * (h_plus if side == 1 else h_minus)


def _contour_sum(a: np.ndarray, u) -> tuple:
    """The direct contour sum at each u, and a bound on its rounding error.

    A term Re a_j exp(-i t_j u) errs by its phase rounding eps t_j |u| and
    by about 8 eps for the cosine, the sine and the products; a node u off by
    eps (|u| + 1) moves the sum by at most that times sum_j |a_j| (t_j +
    sigma).  The terms are added pairwise, so the sum errs by eps times
    log2(number of terms) times sum_j |a_j|, and the common factor
    exp(-sigma u) / pi, applied last, adds a few eps of the value.
    """
    t = _contour(_T_CAP)[0]
    u = np.asarray(u, dtype=float)
    levels = math.ceil(math.log2(len(a)))
    phase = np.outer(u, t)
    terms = np.cos(phase) * a.real + np.sin(phase) * a.imag  # Re a_j exp(-i t_j u)
    terms = np.pad(terms, ((0, 0), (0, 2**levels - len(a))))
    for _ in range(levels):
        terms = terms[:, 0::2] + terms[:, 1::2]
    scale = np.exp(-_SIGMA * u) / math.pi
    values = scale * terms[:, 0]
    abs_a = np.abs(a)
    per_u = (2.0 * np.abs(u) + 1.0) * np.sum(abs_a * (t + _SIGMA)) + (levels + 8.0) * np.sum(abs_a)
    return values, _ROUNDOFF * (scale * per_u + 6.0 * np.abs(values))


def _quadrature_error(parity: int, side: int, u: np.ndarray) -> np.ndarray:
    """Bound on |V_T(u) - contour sum(u)|, V_T the integral over 0 <= t <= _T_CAP.

    On the Bernstein ellipse E_rho of each contour panel, Im t reaches eta =
    (rho - 1/rho)/2 times the half-width, so Re s lies in [sigma - eta,
    sigma + eta] and |exp(-s u)| <= exp(-sigma u + |u| eta).  There
    |M[h0](s)| <= M[h0](Re s) (h0 >= 0, and M[h0] is convex on the real
    axis), |M[h0](-s)| <= M[1 - h0](eta - sigma), and |Gamma(x + iy)| <=
    Gamma(x) prod_k (1 + y^2 / (x + k)^2)^(-1/2) with Gamma convex in x.
    The (n + 1)-point Gauss rule errs by at most (64/15) M rho^(-2n) /
    (rho^2 - 1) per unit half-width on such a panel.
    """
    rho, half = _GL_RHO, 0.5 * _PANEL_WIDTH
    eta = 0.5 * (rho - 1.0 / rho) * half
    reach = 0.5 * (rho + 1.0 / rho) * half
    if side == 1:
        h_max = max(_h_plus_sup(_SIGMA - eta), _h_plus_sup(_SIGMA + eta))
    else:
        h_max = _h_minus_sup(_SIGMA - eta)
    x_lo, x_hi = (0.5 + parity + _SIGMA - eta) / 2.0, (0.5 + parity + _SIGMA + eta) / 2.0
    centers = (np.arange(round(_T_CAP / _PANEL_WIDTH)) + 0.5) * _PANEL_WIDTH
    y_min = np.maximum(centers - reach, 0.0) / 2.0
    # every factor is at most 1, so the first 64 of them bound the product
    decay = np.prod(1.0 + (y_min[:, None] / (x_hi + np.arange(64))) ** 2, axis=1) ** -0.5
    g_max = max(gamma(x_lo), gamma(x_hi)) / gamma((0.5 + parity) / 2.0) * decay
    n = _CONTOUR_NODES - 1
    rule = 64.0 / 15.0 * rho ** (-2 * n) / (rho**2 - 1.0) * half
    return rule * h_max * np.sum(g_max) / math.pi * np.exp(-_SIGMA * u + eta * np.abs(u))


@dataclass(frozen=True)
class _WeightTable:
    """V1 or V2 of one parity as Chebyshev panels in u = log(n/x).

    coeffs[p] are the Chebyshev coefficients of V on the panel
    [_U_MIN + p _U_PANEL, _U_MIN + (p + 1) _U_PANEL]; error[p] bounds the
    distance of the evaluated table from the contour integral V_T there.
    tail is |a_j / w_j| at the last contour node.
    """

    coeffs: np.ndarray
    error: np.ndarray
    tail: float

    def __call__(self, u) -> tuple:
        """V at each u by Clenshaw's recurrence, and the error bound of each value."""
        u = np.asarray(u, dtype=float)
        if u.min() < _U_MIN or u.max() > _U_MAX:
            raise LfuncError(f"weight argument log(n/x) outside the tabulated "
                             f"[{_U_MIN}, {_U_MAX}]: [{u.min():.3f}, {u.max():.3f}]")
        pos = (u - _U_MIN) / _U_PANEL
        panel = np.minimum(pos.astype(int), len(self.coeffs) - 1)
        x = 2.0 * (pos - panel) - 1.0
        c = self.coeffs[panel]
        b1 = b2 = np.zeros_like(u)
        for j in range(c.shape[1] - 1, 0, -1):
            b1, b2 = c[:, j] + 2.0 * x * b1 - b2, b1
        return c[:, 0] + x * b1 - b2, self.error[panel]


@lru_cache(maxsize=8)
def _weight_table(parity: int, side: int) -> _WeightTable:
    """Sample the contour sum at Chebyshev points of every panel and certify the table.

    error[p] is the sum of
      * interpolation: V extends to complex u with |V| <= (1/pi)
        exp(-sigma Re u) sum_j |a_j| cosh(t_j Im u), which bounds it by M on
        the Bernstein ellipse E_rho of the panel; the degree-m interpolant
        errs by at most 4 M rho^(-m) / (rho - 1), minimised over rho
      * sampling: the Lebesgue constant 1 + (2/pi) log(m + 1) times the
        largest rounding bound of the panel's samples (_contour_sum)
      * coefficients: the rounding of the DCT that gives them
      * Clenshaw: 5 eps sum_k (|c_k| + 2 B_(k+1) + B_(k+2)) with B_k =
        sum_(j>=k) (j - k + 1) |c_j| >= |b_k|, plus the rounding of u =
        log(n/x) times the Markov bound (2/width) sum_j j^2 |c_j| on |V'|
      * contour quadrature (_quadrature_error) at the worse panel end.
    """
    degree = _TABLE_DEGREE
    a = _contour_coefficients(parity, side)
    t, w = _contour(_T_CAP)[:2]
    panels = round((_U_MAX - _U_MIN) / _U_PANEL)
    half = 0.5 * _U_PANEL
    centers = _U_MIN + half + _U_PANEL * np.arange(panels)
    k = np.arange(degree + 1)
    nodes = np.cos(np.pi * k / degree)  # Chebyshev points of the second kind
    u = (centers[:, None] + half * nodes).ravel()
    # in blocks, so that the (nodes x contour) matrices stay a few MB
    blocks = [_contour_sum(a, u[i:i + 256]) for i in range(0, u.size, 256)]
    values, rounding = (np.concatenate(b).reshape(panels, degree + 1) for b in zip(*blocks))
    # DCT-I: c_j = (2/m) sum_k'' f_k cos(pi j k / m), with c_0 and c_m halved too
    dct = np.cos(np.pi * np.outer(k, k) / degree) * (2.0 / degree)
    dct[:, [0, -1]] *= 0.5
    dct[[0, -1], :] *= 0.5
    coeffs = values @ dct.T

    abs_a = np.abs(a)
    interp = np.full(panels, np.inf)
    for rho in np.geomspace(1.1, 100.0, 64):
        m_rho = (np.exp(-_SIGMA * (centers - half * 0.5 * (rho + 1.0 / rho))) / math.pi
                 * np.sum(abs_a * np.cosh(t * half * 0.5 * (rho - 1.0 / rho))))
        interp = np.minimum(interp, 4.0 * m_rho * rho ** (-degree) / (rho - 1.0))
    lebesgue = 1.0 + 2.0 / math.pi * math.log(degree + 1)
    sampling = lebesgue * rounding.max(axis=1)
    coef_rounding = (degree + 4) * _ROUNDOFF * np.sum(np.abs(values) @ np.abs(dct).T, axis=1)
    abs_c = np.abs(coeffs)
    b_sup = abs_c @ np.maximum(k[:, None] - k[None, :] + 1, 0)
    clenshaw = 5.0 * _ROUNDOFF * (abs_c.sum(axis=1) + 2.0 * b_sup[:, 1:].sum(axis=1)
                                  + b_sup[:, 2:].sum(axis=1))
    u_abs = np.abs(centers) + half
    argument = (2.0 / _U_PANEL) * (abs_c @ k**2) * _ROUNDOFF * (6.0 * u_abs + 34.0)
    ends = np.stack([centers - half, centers + half])  # the bound is convex in u
    quadrature = _quadrature_error(parity, side, ends).max(axis=0)
    error = interp + sampling + coef_rounding + clenshaw + argument + quadrature
    return _WeightTable(coeffs=coeffs, error=error, tail=abs(a[-1] / w[-1]))


@lru_cache(maxsize=1024)
def _afe_weights(q: int, parity: int, x_rel: float, target: float) -> _AfeWeights:
    if not (0.2 <= x_rel <= 5.0):
        raise LfuncError("balance parameter confined to [0.2, 5]")
    scale = math.sqrt(q / math.pi)
    x1 = x_rel * scale  # V1 argument is n / x1
    x2 = scale / x_rel  # V2 argument is n / x2
    budget = target / 4.0
    n1, b1 = _series_length(parity, x1, 1, budget)
    n2, b2 = _series_length(parity, x2, 2, budget)
    table1, table2 = _weight_table(parity, 1), _weight_table(parity, 2)

    # contour truncation: |gamma| decays like exp(-pi t/4), so the remainder
    # past the cap is within ~4.2x the endpoint magnitude, per unit y^(-sigma)
    cap = (table1.tail + table2.tail) * 4.2 / math.pi
    trunc = cap * max(x1, x2) ** _SIGMA * float(zeta(_SIGMA + 0.5))

    def weights(n_len: int, x_scale: float, table: _WeightTable) -> tuple:
        ns = np.arange(1, n_len + 1, dtype=float)
        v, err = table(np.log(ns / x_scale))
        root = np.sqrt(ns)
        return v / root, float(np.sum(err / root))

    w1, e1 = weights(n1, x1, table1)
    w2, e2 = weights(n2, x2, table2)
    err = b1 + b2 + trunc + e1 + e2
    if err > target:
        raise AfeError("approximate functional equation budget not met", err)
    return _AfeWeights(n1=n1, w1=w1, n2=n2, w2=w2, error_bound=err)


def _central_values(q: int, parity: int, sums, target: float, balance: float):
    """L(1/2, chi) by the AFE for every character that sums ranges over.

    sums(f, conj) is sum_r chi(r) f(r), with conj(chi) when conj, for f on
    the residues mod q: for one character (_value_sums) or for an array of
    characters of one parity (group transforms).  Folding each weight
    sequence mod q turns sum_n chi(n) w[n] into sum_r chi(r) W[r].
    """
    wts = _afe_weights(q, parity, float(balance), float(target))
    tau = _gauss_sums(q, sums)
    w1, w2 = (np.bincount(np.arange(1, len(w) + 1) % q, weights=w, minlength=q)
              for w in (wts.w1, wts.w2))
    return sums(w1) - tau / (1j**parity * math.sqrt(q)) * sums(w2, conj=True)


def l_central(chi: DirichletCharacter, target_abs_error: float = 1e-9,
              balance: float = 1.0) -> complex:
    """L(1/2, chi) by the smoothed approximate functional equation.

    chi must be primitive of modulus >= 3.  balance shifts length between
    the two sums (the dual sum shortens as balance grows); the result is
    balance-independent within the error budget, which is a useful
    consistency probe.  Raises AfeError with the achieved bound when the
    requested absolute error cannot be certified.
    """
    q = chi.q
    if q < 3:
        raise LfuncError("central values start at modulus 3")
    if not chi.is_primitive:
        raise LfuncError("l_central requires a primitive character")
    return _central_values(q, chi.parity, _value_sums(chi), target_abs_error, balance)


# ---------------------------------------------------------------------------
# conductor-exponent scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    q: int
    label: str
    abs_l: float
    normalized: float  # abs_l / q^(1/4)
    seconds: float


@dataclass(frozen=True)
class FitResult:
    ok: bool
    slope: float = math.nan
    intercept: float = math.nan
    residual: float = math.nan
    reason: str = ""


def _modulus_maximum(q: int, target_abs_error: float) -> Optional[tuple]:
    """(max |L(1/2, chi)|, label) over the primitive characters mod q.

    Per parity, every sum of the AFE comes from one transform over the
    character group, gathered at that parity's rows of enumerate_characters;
    only the winning row becomes a character, for its label.
    """
    indices = enumerate_characters(q)
    if not len(indices):
        return None
    group = character_group(q)
    parities = group.parity(indices)
    best, best_row = -1.0, 0
    for parity in (0, 1):
        family = np.flatnonzero(parities == parity)
        if not family.size:
            continue
        at = tuple(indices[family].T)
        sums = lambda f, conj=False: group.sums(f, conj)[at]  # noqa: E731
        vals = np.abs(_central_values(q, parity, sums, target_abs_error, 1.0))
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_row = float(vals[k]), family[k]
    return best, DirichletCharacter(q, tuple(indices[best_row].tolist())).label


def scan(q_min: int, q_max: int, stride: int = 1, target_abs_error: float = 1e-8,
         timing: bool = False) -> list:
    """Max central value over primitive characters for each modulus in range.

    Moduli without primitive characters (q = 2 mod 4) are skipped, so an
    even stride from an even q_min, which would keep at most the multiples
    of 4, is refused.  Record timing only when asked: the default keeps
    re-runs byte-identical.
    """
    if q_min < 3 or q_max < q_min or stride < 1:
        raise LfuncError("need 3 <= q_min <= q_max and stride >= 1")
    if q_min % 2 == 0 and stride % 2 == 0 and q_min + stride <= q_max:
        raise LfuncError(f"stride {stride} from q_min {q_min} visits even q only, and "
                         "q = 2 mod 4 has no primitive characters; make stride or q_min odd")
    records = []
    for q in range(q_min, q_max + 1, stride):
        t0 = time.perf_counter()
        found = _modulus_maximum(q, target_abs_error)
        if found is None:
            continue
        best, best_label = found
        dt = time.perf_counter() - t0 if timing else 0.0
        records.append(
            ScanRecord(q=q, label=best_label, abs_l=best,
                       normalized=best / q**0.25, seconds=round(dt, 3))
        )
    return records


def exponent_fit(records: Sequence[ScanRecord]) -> FitResult:
    """Least squares of log max|L| against log q; flags degenerate input."""
    if len(records) < 2:
        return FitResult(ok=False, reason="need at least two moduli to fit")
    xs = np.log([r.q for r in records])
    ys = np.log([max(r.abs_l, 1e-300) for r in records])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    residual = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    return FitResult(ok=True, slope=float(slope), intercept=float(intercept),
                     residual=residual)


def burgess_target(theta) -> Fraction:
    """Subconvex exponent target 1/4 - (1 - 2 theta)/16, exact in theta."""
    th = theta if isinstance(theta, Fraction) else Fraction(theta).limit_denominator(10**9)
    if not 0 <= th < Fraction(1, 2):
        raise LfuncError("theta must lie in [0, 1/2)")
    return Fraction(1, 4) - (1 - 2 * th) / 16
