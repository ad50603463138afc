"""Dirichlet characters, central L-values and conductor-exponent scans.

The character group mod q is one cached CharacterGroup: the unit group split
into cyclic components with explicit generators, and the discrete logs of
every unit on them.  A character is an index k on the dual grid; parity,
conductor and primitivity are integer computations on k, and its value table
(exact integer phases) is built only when read.  CharacterGroup.sums gives
sum_r chi(r) f(r) for every chi at once by one FFT over the discrete-log grid.

Central values are computed two independent ways:

* l_central: a balanced smoothed approximate functional equation

      L(1/2, chi) = sum_n chi(n) n^(-1/2) V1(n / (X sqrt(q/pi)))
                  - eps(chi) sum_n conj(chi)(n) n^(-1/2) V2(n X / sqrt(q/pi))

  where eps(chi) = tau(chi)/(i^a sqrt(q)), V1/V2 are inverse Mellin
  transforms of M[h0](±s) times the archimedean gamma-factor ratio along
  Re s = 2 (V2 tends to -1 at 0; the minus sign above makes both sides
  effectively positive-weight sums of length about sqrt(q) polylog).  The
  order-4 integration-by-parts decay of M[h0] controls the contour
  truncation, and shifted-contour bounds at Re s in {4, 8, 12} control the
  series truncation, so the absolute error budget is explicit and checked.

* l_oracle_hurwitz: L(s, chi) = q^(-s) sum_a chi(a) zeta_H(s, a/q) with the
  Hurwitz zeta evaluated by Euler-Maclaurin (50 direct terms, Bernoulli
  corrections through B12), absolute error ~1e-10 for Re s >= 0.4,
  |Im s| <= 10.

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
from scipy.special import loggamma

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
    "riemann_zeta",
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


@lru_cache(maxsize=512)
def character_group(q: int) -> CharacterGroup:
    """Cyclic decomposition of (Z/q)^* with discrete-log coordinates, cached.

    Odd prime powers contribute one cyclic component each; 4 contributes one
    of order 2; 2^e with e >= 3 contributes the sign component (order 2) and
    the 5-power component (order 2^(e-2)).
    """
    if q < 1:
        raise LfuncError("modulus must be >= 1")
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
                sign_tab = -np.ones(pe, dtype=np.int64)
                five_tab = -np.ones(pe, dtype=np.int64)
                x = 1
                for b in range(half):
                    sign_tab[x], five_tab[x] = 0, b
                    sign_tab[pe - x], five_tab[pe - x] = 1, b
                    x = (x * 5) % pe
                comps.append(_Component(2, pe, 2, "two_sign"))
                tables.append(sign_tab)
                comps.append(_Component(2, pe, half, "two_five"))
                tables.append(five_tab)
        else:
            g = _primitive_root(p, e)
            order = pe - pe // p
            tab = -np.ones(pe, dtype=np.int64)
            x = 1
            for i in range(order):
                tab[x] = i
                x = (x * g) % pe
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


@dataclass
class DirichletCharacter:
    """A Dirichlet character mod q: its index on the character group.

    values[n] is chi(n mod q), built on first access from exact integer
    phases.  parity is 0 for even and 1 for odd characters; gauss is filled
    on first use.
    """

    q: int
    index: tuple
    parity: int
    conductor: int
    is_primitive: bool
    label: str
    gauss: Optional[complex] = None

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
        return _make_character(self.q, tuple(-k for k in self.index))

    def __repr__(self) -> str:
        tag = "primitive" if self.is_primitive else f"conductor {self.conductor}"
        return f"DirichletCharacter(q={self.q}, label={self.label}, parity={self.parity}, {tag})"


def _conductor_of_index(group: CharacterGroup, index: tuple) -> int:
    cond = 1
    sign_k = 0
    for c, k in zip(group.components, index):
        if c.kind == "odd":
            if k:
                d = c.order // math.gcd(c.order, k)
                v = 0
                while d % c.prime == 0:
                    d //= c.prime
                    v += 1
                cond *= c.prime ** (1 + v)
        elif c.kind == "four":
            if k:
                cond *= 4
        elif c.kind == "two_sign":
            sign_k = k  # two_sign is always followed by two_five
        elif k:
            d = c.order // math.gcd(c.order, k)  # a 2-power >= 2
            cond *= 4 * d
        elif sign_k:
            cond *= 4
    return cond


def _make_character(q: int, index: tuple) -> DirichletCharacter:
    group = character_group(q)
    if len(index) != len(group.orders):
        raise LfuncError("index length does not match the unit-group decomposition")
    index = tuple(int(k) % n for k, n in zip(index, group.orders))
    # chi(-1) = (-1)^(sum_i 2 k_i c_i / n_i) with c_i the logs of -1 = units[-1];
    # each 2 c_i / n_i is an integer because (-1)^2 = 1
    minus_one = zip(index, group.coords[:, -1], group.orders)
    half_turns = sum(k * (2 * int(c) // n) for k, c, n in minus_one)
    cond = _conductor_of_index(group, index)
    return DirichletCharacter(
        q=q,
        index=index,
        parity=half_turns % 2,
        conductor=cond,
        is_primitive=(cond == q),
        label=".".join(str(k) for k in index) if index else "0",
    )


@lru_cache(maxsize=64)
def _root_table(exponent: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(exponent) / exponent)


def all_characters(q: int) -> list:
    """Every Dirichlet character mod q, in lexicographic index order."""
    if q > MAX_MODULUS:
        raise LfuncError(f"modulus limit is {MAX_MODULUS}")
    orders = character_group(q).orders
    return [_make_character(q, idx) for idx in itertools.product(*map(range, orders))]


def enumerate_characters(q: int) -> list:
    """All primitive characters mod q (empty for q = 2 mod 4), fixed order."""
    return [chi for chi in all_characters(q) if chi.is_primitive]


def character_by_label(q: int, label: str) -> DirichletCharacter:
    """Look up a character mod q by its dot-joined exponent label."""
    trivial = not character_group(q).orders and label in ("", "0")
    return _make_character(q, () if trivial else tuple(int(p) for p in label.split(".")))


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


def _check_gauss(q: int, tau) -> None:
    """|tau(chi)| = sqrt(q) for primitive chi; anything else means corrupt data."""
    if np.any(np.abs(np.abs(tau) - math.sqrt(q)) > 1e-8 * math.sqrt(q)):
        raise LfuncError("Gauss sum modulus check failed; character data corrupt")


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q); primitive characters only, cached."""
    if not chi.is_primitive:
        raise LfuncError("Gauss sums are computed for primitive characters only")
    if chi.gauss is None:
        q = chi.q
        tau = complex(np.sum(chi.values * np.exp(2j * np.pi * np.arange(q) / q)))
        _check_gauss(q, tau)
        chi.gauss = tau
    return chi.gauss


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
    """Euler-Maclaurin Hurwitz zeta for an array of offsets in (0, 1]."""
    s = complex(s)
    if abs(s - 1) < 1e-12:
        raise LfuncError("Hurwitz zeta has a pole at s = 1")
    if s.real < 0.4 or abs(s.imag) > 10:
        raise LfuncError("oracle validated for Re s >= 0.4, |Im s| <= 10 only")
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
    """zeta_H(s, x) for 0 < x <= 1; absolute error ~1e-10 in the guard domain."""
    if not 0 < x <= 1:
        raise LfuncError("offset must lie in (0, 1]")
    return complex(_hurwitz_vec(s, np.array([float(x)]))[0])


def riemann_zeta(s: complex) -> complex:
    return hurwitz_zeta(s, 1.0)


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

_SIGMA = 2.0
_PANEL_WIDTH = 2.0
_T_CAP = 40.0
_TAIL_SIGMAS = (4.0, 8.0, 12.0)


@lru_cache(maxsize=4)
def _contour(t_cap: float) -> tuple:
    """Nodes, weights and cached M[h0](±(sigma + i t)) on [0, t_cap]."""
    panels = int(round(t_cap / _PANEL_WIDTH))
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
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


@lru_cache(maxsize=1024)
def _afe_weights(q: int, parity: int, x_rel: float, target: float) -> _AfeWeights:
    if not (0.2 <= x_rel <= 5.0):
        raise LfuncError("balance parameter confined to [0.2, 5]")
    t, w, h_plus, h_minus = _contour(_T_CAP)
    g = _gamma_ratio(parity, _SIGMA + 1j * t)
    a_plus = w * g * h_plus
    a_minus = w * g * h_minus

    scale = math.sqrt(q / math.pi)
    x1 = x_rel * scale  # V1 argument is n / x1
    x2 = scale / x_rel  # V2 argument is n / x2
    budget = target / 4.0
    n1, b1 = _series_length(parity, x1, 1, budget)
    n2, b2 = _series_length(parity, x2, 2, budget)

    # contour truncation: |gamma| decays like exp(-pi t/4), so the remainder
    # past the cap is within ~4.2x the endpoint magnitude, per unit y^(-sigma)
    cap = (abs(a_plus[-1] / w[-1]) + abs(a_minus[-1] / w[-1])) * 4.2 / math.pi
    trunc = cap * (max(x1, x2) ** _SIGMA) * 1.342  # zeta(5/2) ~ 1.342

    def weights_for(n_len: int, x_scale: float, coeffs: np.ndarray) -> np.ndarray:
        ns = np.arange(1, n_len + 1, dtype=float)
        mat = np.exp(np.outer(-np.log(ns / x_scale), _SIGMA + 1j * t))
        v = (mat @ coeffs).real / math.pi
        return v / np.sqrt(ns)

    w1 = weights_for(n1, x1, a_plus)
    w2 = weights_for(n2, x2, a_minus)
    err = b1 + b2 + trunc
    if err > target:
        raise AfeError("approximate functional equation budget not met", err)
    return _AfeWeights(n1=n1, w1=w1, n2=n2, w2=w2, error_bound=err)


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
    wts = _afe_weights(q, chi.parity, float(balance), float(target_abs_error))
    eps = root_number(chi)
    idx1 = np.arange(1, wts.n1 + 1) % q
    s1 = complex(np.sum(chi.values[idx1] * wts.w1))
    idx2 = np.arange(1, wts.n2 + 1) % q
    s2 = complex(np.sum(np.conj(chi.values[idx2]) * wts.w2))
    return s1 - eps * s2


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

    Every sum comes from a transform over the character group: e(r/q) gives
    the Gauss sums, and per parity the AFE weights, folded mod q, give the
    two lacunary sums of every character at once.
    """
    chars = enumerate_characters(q)
    if not chars:
        return None
    group = character_group(q)
    taus = group.sums(np.exp(2j * np.pi * np.arange(q) / q))
    best, best_label = -1.0, ""
    for parity in (0, 1):
        family = [chi for chi in chars if chi.parity == parity]
        if not family:
            continue
        at = tuple(np.array([chi.index for chi in family]).T)
        wts = _afe_weights(q, parity, 1.0, float(target_abs_error))
        tau = taus[at]
        _check_gauss(q, tau)
        # fold each weight sequence mod q: sum_n chi(n) w[n] = sum_r chi(r) W[r]
        w1, w2 = (np.bincount(np.arange(1, len(w) + 1) % q, weights=w, minlength=q)
                  for w in (wts.w1, wts.w2))
        s1 = group.sums(w1)[at]
        s2 = group.sums(w2, conj=True)[at]
        vals = np.abs(s1 - tau / (1j**parity * math.sqrt(q)) * s2)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_label = float(vals[k]), family[k].label
    return best, best_label


def scan(q_min: int, q_max: int, stride: int = 1, target_abs_error: float = 1e-8,
         timing: bool = False) -> list:
    """Max central value over primitive characters for each modulus in range.

    Moduli without primitive characters (q = 2 mod 4) are skipped.  Record
    timing only when asked: the default keeps re-runs byte-identical.
    """
    if q_min < 3 or q_max < q_min or stride < 1:
        raise LfuncError("need 3 <= q_min <= q_max and stride >= 1")
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
