"""Smooth cutoff, its Mellin transform by integration by parts, and windows.

The cutoff h0 is 1 on [0, 1], 0 on [2, inf), and interpolates on (1, 2) by
the standard C-infinity partition bump

    h0(t) = f(2 - t) / (f(2 - t) + f(t - 1)),     f(x) = exp(-1/x),

whose derivatives of every order vanish at both endpoints.  The derivatives
come from two closed recurrences, with no symbolic algebra:

    f^(k)(x) = f(x) P_k(1/x),   P_0 = 1,   P_(k+1)(u) = u^2 (P_k(u) - P_k'(u)),
    h0^(k) = (N^(k) - sum_{j<k} C(k, j) h0^(j) D^(k-j)) / D,

where N(t) = f(2 - t) and D(t) = f(2 - t) + f(t - 1), so that h0 D = N;
at order 0 the recurrence is the quotient N/D itself.  The Mellin transform
of h0 has the integration-by-parts ladder

    M[h0](s) = (-1)^N  prod_{j=0}^{N-1} (s+j)^(-1)  M[h0^(N)](s + N)

valid for every order N, which both continues M[h0] meromorphically (simple
pole at s = 0 of residue 1, from the plateau) and supplies 1/|s|^N decay on
vertical lines.  Orders up to N = 4 are supported; the order-4 form is what
the approximate-functional-equation quadratures rely on.  Order 0 is the
plateau split M[h0](s) = 1/s + integral over [1, 2] of h0 t^(s-1), valid at
every s != 0.

Two-sided windows h(t) = h0(t/B) - h0(t/A) with 0 < A < B cut a plateau on
[2A, B] with support in (A, 2B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "MellinError",
    "MellinPoleError",
    "TruncationWindow",
    "h0_eval",
    "mellin_h0",
    "mellin_one_minus_h0",
    "mellin_h0_batch",
    "mellin_one_minus_h0_direct",
    "window",
    "measure_decay_constant",
]

MAX_DERIVATIVE_ORDER = 4
QUAD_ABS_TOL = 1e-12


class MellinError(ValueError):
    pass


class MellinPoleError(MellinError):
    """The requested point is one of the ladder poles {0, -1, ..., -N+1}."""


# ---------------------------------------------------------------------------
# the cutoff and its derivatives
# ---------------------------------------------------------------------------


def _bump_polynomials(n_max: int) -> list:
    """Ascending coefficients of P_0 .. P_n_max, f^(k)(x) = f(x) P_k(1/x) (module docstring)."""
    polys = [np.array([1.0])]
    for _ in range(n_max):
        p = polys[-1]
        diff = npoly.polysub(p, npoly.polyder(p))
        polys.append(np.concatenate([[0.0, 0.0], diff]))
    return polys


_BUMP_POLYS = _bump_polynomials(MAX_DERIVATIVE_ORDER)


def _bump_derivative(t: np.ndarray, k: int) -> np.ndarray:
    """h0^(k) on 1 < t < 2 by the quotient-rule recurrence of the module docstring."""
    xl, xr = 2.0 - t, t - 1.0
    fl, fr = np.exp(-1.0 / xl), np.exp(-1.0 / xr)
    num, den = [], []
    for j in range(k + 1):
        left = (-1) ** j * fl * npoly.polyval(1.0 / xl, _BUMP_POLYS[j])
        num.append(left)
        den.append(left + fr * npoly.polyval(1.0 / xr, _BUMP_POLYS[j]))
    h = []
    for j in range(k + 1):
        acc = num[j] - sum(math.comb(j, i) * h[i] * den[j - i] for i in range(j))
        h.append(acc / den[0])
    return h[k]


def h0_eval(t, k: int = 0):
    """k-th derivative of h0 at t (scalar or array); exact off (1, 2)."""
    if k < 0 or k > MAX_DERIVATIVE_ORDER:
        raise MellinError(f"derivative order {k} unsupported (max {MAX_DERIVATIVE_ORDER})")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise MellinError("h0 is defined for t >= 0")
    out = np.zeros_like(arr)
    inside = (arr > 1.0 + 1e-12) & (arr < 2.0 - 1e-12)
    if k == 0:
        out[arr <= 1.0 + 1e-12] = 1.0
    if np.any(inside):
        out[inside] = _bump_derivative(arr[inside], k)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# panel quadrature (Gauss-Legendre with bisection refinement)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_quad(f: Callable, a: float, b: float, abs_tol: float = QUAD_ABS_TOL) -> complex:
    """Integrate a smooth (complex) integrand by refining fixed-order panels.

    Convergence is judged against max(abs_tol, roundoff floor of the
    accumulated |integrand| mass), so cancellation-heavy oscillatory
    integrands terminate once they hit double precision.
    """
    panels = 2
    prev = None
    for _ in range(12):
        edges = np.linspace(a, b, panels + 1)
        total = 0j
        mass = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            vals = f(mid + half * _GL_NODES)
            total += half * np.sum(_GL_WEIGHTS * vals)
            mass += half * float(np.sum(_GL_WEIGHTS * np.abs(vals)))
        if prev is not None and abs(total - prev) < max(abs_tol, 5e-14 * mass):
            return total
        prev = total
        panels *= 2
    return prev


# ---------------------------------------------------------------------------
# Mellin transform of h0
# ---------------------------------------------------------------------------


def _bump_mellin_integral(s: complex, k: int) -> complex:
    """integral over [1, 2] of h0^(k)(t) t^(s-1) dt."""
    return _panel_quad(lambda x: h0_eval(x, k) * np.exp((s - 1) * np.log(x)), 1.0, 2.0)


def mellin_h0(s: complex, order: int = 0) -> complex:
    """M[h0](s) computed through the order-N integration-by-parts ladder.

    order = 0 is the plateau split 1/s + integral over [1, 2] of h0 t^(s-1):
    the bump integral is entire, so it continues M[h0] to every s != 0 and
    stays stable at the negative integers, where the ladder forms become a
    removable 0/0.  order = N >= 1 is valid on Re s > -N away from the ladder
    poles 0, -1, ..., -N+1; all orders agree where their domains overlap.
    The simple pole at s = 0 has residue 1.
    """
    s = complex(s)
    if order < 0 or order > MAX_DERIVATIVE_ORDER:
        raise MellinError(f"order must be between 0 and {MAX_DERIVATIVE_ORDER}")
    if order == 0:
        if abs(s) < 1e-12:
            raise MellinPoleError("s = 0 is the (only) pole of M[h0], residue 1")
        return complex(1.0 / s + _bump_mellin_integral(s, 0))
    if s.real <= -order:
        raise MellinError(f"order {order} requires Re s > {-order}")
    for j in range(order):
        if abs(s + j) < 1e-12:
            raise MellinPoleError(f"s = {-j} is a pole of the order-{order} ladder")
    value = _bump_mellin_integral(s + order, order)
    for j in range(order):
        value /= s + j
    if order % 2:
        value = -value
    return complex(value)


def mellin_h0_batch(svals: np.ndarray, order: int = 4) -> np.ndarray:
    """Vectorised M[h0] over an array of points, all with the same ladder order.

    Uses one fixed 16-panel, 32-node Gauss rule on [1, 2] shared by every
    point; with |Im s| <= ~60 the integrand oscillates well below the rule's
    resolution, and the result agrees with mellin_h0 to ~1e-13.  Ladder
    poles inside the batch raise, as in the scalar path.
    """
    svals = np.asarray(svals, dtype=complex)
    if order < 1 or order > MAX_DERIVATIVE_ORDER:
        raise MellinError(f"batch order must be between 1 and {MAX_DERIVATIVE_ORDER}")
    if np.any(svals.real <= -order):
        raise MellinError(f"order {order} requires Re s > {-order}")
    for j in range(order):
        if np.any(np.abs(svals + j) < 1e-12):
            raise MellinPoleError(f"s = {-j} is a pole of the order-{order} ladder")
    edges = np.linspace(1.0, 2.0, 17)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * _GL_NODES)
        ws.append(half * _GL_WEIGHTS)
    x = np.concatenate(xs)
    w = np.concatenate(ws) * h0_eval(x, order)
    powers = np.exp(np.outer(svals + order - 1, np.log(x)))  # (npts, nx)
    vals = powers @ w
    for j in range(order):
        vals = vals / (svals + j)
    if order % 2:
        vals = -vals
    return vals


def _auto_order(s: complex) -> int:
    if s.real > 0.25:
        return 0
    need = int(math.floor(-s.real)) + 1
    order = max(1, need)
    if order > MAX_DERIVATIVE_ORDER:
        raise MellinError(f"Re s = {s.real} needs order > {MAX_DERIVATIVE_ORDER}")
    return order


def mellin_one_minus_h0(s: complex) -> complex:
    """M[1 - h0](s) = -M[h0](s), continued past the defining strip.

    Uses the integration-by-parts ladder of the matching order; within .05
    of a ladder zero/pole pair (the negative integers, where the ladder is a
    removable 0/0) it switches to the stable plateau split, order 0.
    """
    s = complex(s)
    order = _auto_order(s)
    if any(abs(s + j) < 0.05 for j in range(order)):
        return -mellin_h0(s, 0)
    return -mellin_h0(s, order)


def mellin_one_minus_h0_direct(s: complex) -> complex:
    """Defining integral of M[1 - h0], convergent only for Re s < 0.

    Splits as a bump integral on [1, 2] plus the closed plateau tail
    -2^s/s from [2, inf); used as the independent check of the identity
    M[1 - h0] = -M[h0].
    """
    s = complex(s)
    if s.real >= 0:
        raise MellinError("the defining integral needs Re s < 0")
    bump = _panel_quad(lambda x: (1.0 - h0_eval(x, 0)) * np.exp((s - 1) * np.log(x)), 1.0, 2.0)
    return complex(bump - 2.0**s / s)


def measure_decay_constant(
    sigma: float = 2.0,
    t_values: Sequence[float] = tuple(range(5, 41)),
    order: int = 4,
) -> float:
    """max over the grid of |t|^order * |M[h0](sigma + i t)| (frozen as golden)."""
    return float(max(abs(mellin_h0(sigma + 1j * t, order)) * abs(t) ** order for t in t_values))


# ---------------------------------------------------------------------------
# truncation windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationWindow:
    """h(t) = h0(t/B) - h0(t/A): plateau 1 on [2A, B], support in (A, 2B)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise MellinError("need 0 < A < B")

    def eval(self, t):
        arr = np.asarray(t, dtype=float)
        out = h0_eval(arr / self.b, 0) - h0_eval(arr / self.a, 0)
        return out if np.shape(out) else float(out)


def window(a: float, b: float) -> TruncationWindow:
    return TruncationWindow(a=a, b=b)
