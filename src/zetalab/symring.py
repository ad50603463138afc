"""Exact Laurent-rational arithmetic in the symbols of the local GL(2) toolkit.

The base ring has six commuting generators over the rationals,

    Q  = q^(1/2)      T0 = q^(-s0)      T = q^(-s)
    T1 = q^(-s1)      T2 = q^(-s2)      L = log q

extended by one quadratic symbol S with S^2 = (Q^2+1)/(Q^2-1), i.e.
S = sqrt((q+1)/(q-1)).  Every closed-form local quantity in this package
lives in this field: half-integral powers of q are integral powers of Q;
sqrt((q-1)/(q+1)), sqrt(q^2-1) and sqrt(1-q^-2) all reduce to
(rational function) * S, so a single extension suffices; log q enters
only through formal differentiation in the s-variables.

An element is a pair of gcd-reduced polynomial fractions (A, B) with
value A + B*S.  Laurent monomials with negative exponents are ordinary
fractions (T^-3 == 1/T^3).  Denominators are normalised monic in the
fixed lexicographic order Q > T0 > T > T1 > T2 > L, so structural
equality of the stored data coincides with mathematical equality.
Sums and products of reduced fractions are formed reduced by Henrici's
rules, with gcds of the operands' factors only; division and the calculus
operations reduce their result with one gcd.  Values are immutable; every
operation returns a new element.

The archimedean factors involve no q; RatFunc holds them as elements of
sympy's rational-function field Q(s), which keeps them reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.rings import ring

__all__ = [
    "SymRingError",
    "PoleAtPointError",
    "SymElem",
    "EvalPoint",
    "RatFunc",
    "GEN_Q",
    "GEN_T0",
    "GEN_T",
    "GEN_L",
    "GEN_S",
    "ZERO",
    "ONE",
]

_GEN_NAMES = ("Q", "T0", "T", "T1", "T2", "L")
_RING, _PQ, _PT0, _PT, _PT1, _PT2, _PL = ring(",".join(_GEN_NAMES), QQ, order="lex")
_PGENS = (_PQ, _PT0, _PT, _PT1, _PT2, _PL)
_SVAR_INDEX = {"s0": 1, "s": 2, "s1": 3, "s2": 4}
_L_INDEX = 5

# Relative tolerance for "denominator vanishes at this point".
POLE_TOL = 1e-12


class SymRingError(ValueError):
    """Invalid operation in the symbolic ring (division by zero, bad variable, ...)."""


class PoleAtPointError(SymRingError):
    """Denominator vanishes (to relative tolerance) at the requested evaluation point."""


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _reduce(num, den):
    """Return the canonical representative of num/den: gcd-reduced, monic denominator."""
    if not den:
        raise SymRingError("zero denominator")
    if not num:
        return _RING.zero, _RING.one
    g = _gcd(num, den)
    num, den = _monic(_quo(num, g), _quo(den, g))
    if den.degree(_PL) > 0:
        # log q is transcendental over the Laurent ring; it may only occur
        # polynomially (it is introduced solely by differentiation).
        raise SymRingError("L = log q is not allowed in a denominator")
    return num, den


def _monic(num, den):
    """num/den with the denominator scaled to leading coefficient 1."""
    lc = den.LC
    if lc == 1:
        return num, den
    inv = QQ(1) / lc
    return num.mul_ground(inv), den.mul_ground(inv)


# Sums and products of reduced fractions by Henrici's rules (Knuth, TAOCP
# vol. 2, 4.5.1): the gcds run on the operands' factors, never on the full
# product, and the result is reduced without a final gcd.


def _gcd(a, b):
    """a.gcd(b), skipping sympy's call when either side is 1, as most denominators are."""
    return _RING.one if a == _RING.one or b == _RING.one else a.gcd(b)


def _quo(a, g):
    """a / g for a divisor g of a; sympy's division runs even when g is 1."""
    return a if g == _RING.one else a.quo(g)


def _f_add(a, b):
    (n1, d1), (n2, d2) = a, b
    g = _gcd(d1, d2)
    e1, e2 = _quo(d1, g), _quo(d2, g)
    t = n1 * e2 + n2 * e1
    if not t:
        return _FZERO
    h = _gcd(t, g)
    return _monic(_quo(t, h), e1 * e2 * _quo(g, h))


def _f_sub(a, b):
    return _f_add(a, (-b[0], b[1]))


def _f_mul(a, b):
    (n1, d1), (n2, d2) = a, b
    if not n1 or not n2:
        return _FZERO
    g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
    return _monic(_quo(n1, g1) * _quo(n2, g2), _quo(d1, g2) * _quo(d2, g1))


def _f_div(a, b):
    if not b[0]:
        raise SymRingError("division by zero")
    return _reduce(a[0] * b[1], a[1] * b[0])


_FZERO = (_RING.zero, _RING.one)
_FONE = (_RING.one, _RING.one)
# S^2 = (Q^2 + 1)/(Q^2 - 1)
_FS2 = _reduce(_PQ**2 + 1, _PQ**2 - 1)


def _monom_frac(index: int, exponent: int):
    """The Laurent monomial gen**exponent as a reduced fraction."""
    g = _PGENS[index]
    if exponent >= 0:
        return g**exponent, _RING.one
    return _RING.one, g ** (-exponent)


class SymElem:
    """An element A + B*S of the quadratic extension, with A, B reduced fractions."""

    __slots__ = ("an", "ad", "bn", "bd")

    def __init__(self, a, b):
        """Store the reduced fractions a = (num, den) and b as A and B."""
        self.an, self.ad = a
        self.bn, self.bd = b

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Union[int, Fraction]) -> "SymElem":
        f = Fraction(value)
        num = _RING.one.mul_ground(QQ(f.numerator, f.denominator))
        return cls((num, _RING.one), _FZERO)

    @classmethod
    def generator(cls, name: str) -> "SymElem":
        if name == "S":
            return cls(_FZERO, _FONE)
        if name not in _GEN_NAMES:
            raise SymRingError(f"unknown generator {name!r}")
        idx = _GEN_NAMES.index(name)
        return cls((_PGENS[idx], _RING.one), _FZERO)

    @classmethod
    def monomial(cls, name: str, exponent: int) -> "SymElem":
        """Laurent monomial gen**exponent; negative exponents allowed except for L."""
        if name not in _GEN_NAMES:
            raise SymRingError(f"unknown generator {name!r}")
        idx = _GEN_NAMES.index(name)
        if idx == _L_INDEX and exponent < 0:
            raise SymRingError("L = log q must have nonnegative exponent")
        return cls(_monom_frac(idx, exponent), _FZERO)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return (not self.an) and (not self.bn)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymElem):
            return NotImplemented
        return (
            self.an == other.an
            and self.ad == other.ad
            and self.bn == other.bn
            and self.bd == other.bd
        )

    __hash__ = None

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "SymElem":
        if isinstance(x, SymElem):
            return x
        if isinstance(x, (int, Fraction)):
            return SymElem.from_rational(x)
        raise SymRingError(f"cannot coerce {type(x).__name__} into the ring")

    def __add__(self, other):
        o = self._coerce(other)
        return SymElem(
            _f_add((self.an, self.ad), (o.an, o.ad)),
            _f_add((self.bn, self.bd), (o.bn, o.bd)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return SymElem(
            _f_sub((self.an, self.ad), (o.an, o.ad)),
            _f_sub((self.bn, self.bd), (o.bn, o.bd)),
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return SymElem((-self.an, self.ad), (-self.bn, self.bd))

    def __mul__(self, other):
        o = self._coerce(other)
        a1, b1 = (self.an, self.ad), (self.bn, self.bd)
        a2, b2 = (o.an, o.ad), (o.bn, o.bd)
        # (A1 + B1 S)(A2 + B2 S) = A1 A2 + B1 B2 S^2 + (A1 B2 + B1 A2) S
        a = _f_add(_f_mul(a1, a2), _f_mul(_f_mul(b1, b2), _FS2))
        b = _f_add(_f_mul(a1, b2), _f_mul(b1, a2))
        return SymElem(a, b)

    __rmul__ = __mul__

    def inverse(self) -> "SymElem":
        if self.is_zero:
            raise SymRingError("division by the zero element")
        a, b = (self.an, self.ad), (self.bn, self.bd)
        # 1/(A + B S) = (A - B S)/(A^2 - B^2 S^2); the norm is nonzero because
        # (Q^2+1)/(Q^2-1) is not a square in the base field.
        norm = _f_sub(_f_mul(a, a), _f_mul(_f_mul(b, b), _FS2))
        return SymElem(_f_div(a, norm), _f_div((-b[0], b[1]), norm))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise SymRingError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus ------------------------------------------------------------

    def d_ds(self, var: str) -> "SymElem":
        """Formal derivative with respect to an s-variable: d(T_i)/ds_i = -L*T_i."""
        if var not in _SVAR_INDEX:
            raise SymRingError(f"cannot differentiate in {var!r}")
        idx = _SVAR_INDEX[var]
        gen = _PGENS[idx]

        def dpoly(p):
            return -_PL * gen * p.diff(gen)

        def dfrac(fr):
            n, d = fr
            return _reduce(dpoly(n) * d - n * dpoly(d), d * d)

        # S depends only on Q, hence is constant for every s-variable.
        return SymElem(dfrac((self.an, self.ad)), dfrac((self.bn, self.bd)))

    def invert_var(self, var: str) -> "SymElem":
        """Substitute T_i -> 1/T_i (that is, s_i -> -s_i) for an s-variable."""
        if var not in _SVAR_INDEX:
            raise SymRingError(f"cannot invert {var!r}")
        idx = _SVAR_INDEX[var]
        gen = _PGENS[idx]

        def flip(p):
            deg = p.degree(gen)
            if deg <= 0:
                return p, 0
            flipped = {}
            for monom, coeff in p.terms():
                m = list(monom)
                m[idx] = deg - m[idx]
                flipped[tuple(m)] = coeff
            return _RING.from_dict(flipped), deg

        def ffrac(fr):
            n, d = fr
            fn, dn = flip(n)
            fd, dd = flip(d)
            if dd >= dn:
                return _reduce(fn * gen ** (dd - dn), fd)
            return _reduce(fn, fd * gen ** (dn - dd))

        return SymElem(ffrac((self.an, self.ad)), ffrac((self.bn, self.bd)))

    # -- evaluation ------------------------------------------------------------

    def substitute(self, at: "EvalPoint") -> complex:
        vals = at.generator_values()
        a = _eval_frac((self.an, self.ad), vals)
        b = _eval_frac((self.bn, self.bd), vals)
        return a + b * at.s_value()

    # -- serialization -----------------------------------------------------------

    def canonical_str(self) -> str:
        """Deterministic text form: sorted monomials, explicit rational coefficients."""
        a = f"({_poly_str(self.an)})/({_poly_str(self.ad)})"
        if not self.bn:
            return a
        b = f"({_poly_str(self.bn)})/({_poly_str(self.bd)})"
        return f"{a} + {b}*S"

    def __repr__(self) -> str:
        return f"SymElem[{self.canonical_str()}]"


def _eval_poly(p, vals) -> tuple[complex, float]:
    """Evaluate a polynomial at complex generator values; also return the |.|-scale."""
    total = 0j
    scale = 0.0
    for monom, coeff in p.terms():
        term = complex(_fraction(coeff))
        for v, e in zip(vals, monom):
            if e:
                term *= v**e
        total += term
        scale += abs(term)
    return total, scale


def _eval_frac(fr, vals) -> complex:
    n, d = fr
    if not n:
        return 0j
    nv, _ = _eval_poly(n, vals)
    dv, dscale = _eval_poly(d, vals)
    if abs(dv) <= POLE_TOL * max(dscale, 1.0):
        raise PoleAtPointError("denominator vanishes at the evaluation point")
    return nv / dv


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for monom, coeff in sorted(p.terms(), key=lambda t: _RING.order(t[0]), reverse=True):
        c = _fraction(coeff)
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(_GEN_NAMES, monom)
            if e
        ]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


@dataclass(frozen=True)
class EvalPoint:
    """A numeric substitution point: a prime power q >= 2 and four complex s-values."""

    q: int
    s0: complex = 0j
    s: complex = 0j
    s1: complex = 0j
    s2: complex = 0j

    def __post_init__(self):
        if self.q < 2:
            raise SymRingError("q must be an integer >= 2")
        n = self.q
        for p in range(2, n + 1):
            if n % p == 0:
                while n % p == 0:
                    n //= p
                break
        if n != 1:
            raise SymRingError("q must be a prime power")

    def generator_values(self) -> tuple:
        q = self.q
        return (
            complex(math.sqrt(q)),
            q ** (-complex(self.s0)),
            q ** (-complex(self.s)),
            q ** (-complex(self.s1)),
            q ** (-complex(self.s2)),
            complex(math.log(q)),
        )

    def s_value(self) -> complex:
        return complex(math.sqrt((self.q + 1) / (self.q - 1)))


# Shared constants and generators.
ZERO = SymElem.from_rational(0)
ONE = SymElem.from_rational(1)
GEN_Q = SymElem.generator("Q")
GEN_T0 = SymElem.generator("T0")
GEN_T = SymElem.generator("T")
GEN_L = SymElem.generator("L")
GEN_S = SymElem.generator("S")

_T_OF_SVAR = {"s0": "T0", "s": "T", "s1": "T1", "s2": "T2"}


def q_pow(k: int) -> SymElem:
    """q**(k/2) as the Laurent monomial Q**k."""
    return SymElem.monomial("Q", k)


def t_pow(svar: str, k: int) -> SymElem:
    """q**(-k*svar) as a Laurent monomial in the matching T-variable."""
    return SymElem.monomial(_T_OF_SVAR[svar], k)


# ---------------------------------------------------------------------------
# Univariate exact rational functions in a plain variable s (no q involved).
# Used for archimedean normalized-intertwining eigenvalues, which are finite
# products of linear factors with integer coefficients.
# ---------------------------------------------------------------------------

_SFIELD, _S = field("s", QQ)


class RatFunc:
    """Exact univariate rational function over the rationals, in a variable s."""

    __slots__ = ("f",)

    def __init__(self, f):
        """Wrap an element f of sympy's field Q(s), which keeps it reduced."""
        self.f = f

    @classmethod
    def const(cls, c) -> "RatFunc":
        c = Fraction(c)
        return cls(_SFIELD.ground_new(QQ(c.numerator, c.denominator)))

    @classmethod
    def linear(cls, a0, a1) -> "RatFunc":
        """a0 + a1*s."""
        return cls(cls.const(a0).f + cls.const(a1).f * _S)

    @staticmethod
    def _coerce(x) -> "RatFunc":
        return x if isinstance(x, RatFunc) else RatFunc.const(x)

    @property
    def is_zero(self) -> bool:
        return not self.f

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.f == other.f

    __hash__ = None

    def __add__(self, other):
        return RatFunc(self.f + self._coerce(other).f)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.f)

    def __sub__(self, other):
        return RatFunc(self.f - self._coerce(other).f)

    def __mul__(self, other):
        return RatFunc(self.f * self._coerce(other).f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise SymRingError("division by zero")
        return RatFunc(self.f / o.f)

    def __call__(self, s: complex) -> complex:
        return _eval_frac((self.f.numer, self.f.denom), (complex(s),))

    def __repr__(self) -> str:
        return f"RatFunc[{self.f}]"
