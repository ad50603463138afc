"""Independent references for the benchmark, built without any zetalab code.

Characters are built here from their own discrete logs, following the label
convention of the README: the unit group mod q splits into cyclic components
in the order of the prime factors (2 first); 4 gives one component of order
2, 2^e with e >= 3 gives the sign component and then the 5-power component,
and an odd p^e gives one component generated by the least primitive root g
mod p (replaced by g + p when g^(p-1) = 1 mod p^2).  A label is the
dot-joined exponents on those generators.

Central values come from mpmath's Hurwitz zeta,

    L(1/2, chi) = q^(-1/2) sum_{a=1}^{q-1} chi(a) zeta(1/2, a/q),

one row of q - 1 Hurwitz values per modulus (about 0.6 ms each), shared by
every character mod q.  Because that costs seconds per large modulus, the
values are stored in refs/*.json together with the seed that chose them.

Rebuild them from the repository root with

    python3 perfbench/refs.py            # all three files, two processes
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
from multiprocessing import get_context
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"
POOL_SEED = 20261018
MP_DPS = 20
# labels whose reference |L| lies this close to the family maximum are kept,
# so that a program may report either member of a tie (chi and its conjugate
# always tie)
TIE_WINDOW = 1e-6

SMALL_WINDOW = (100, 415)  # references cover every window the seed can pick
SMALL_LENGTH = 300
# the seed picks the start among the first few moduli only: moving the window
# by 15 changes a round's cost by about 6%
SMALL_STARTS = 4
LARGE_PRIMES = (5000, 5100)
LARGE_POWER_OF_TWO = 8192
LARGE_COMPOSITES = (9000, 10000)
LVALUE_STRATA = 100  # strata [100 i, 100 i + 99] of 3 <= q <= 9999
LVALUE_MODULI_PER_STRATUM = 2
LVALUE_LABELS_PER_MODULUS = 6
_DOUBLE_EPS = 2.0**-52


def factorize(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def moebius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def primitive_count(q: int) -> int:
    """sum over d | q of mu(q/d) phi(d)."""
    return sum(moebius(q // d) * euler_phi(d) for d in range(1, q + 1) if q % d == 0)


def has_primitive(q: int) -> bool:
    return q % 4 != 2


class UnitGroup:
    """(Z/q)^* as cyclic components: orders[i] and dlogs[i][a] (-1 off units)."""

    def __init__(self, q: int):
        self.q = q
        self.orders: list = []
        self.dlogs: list = []
        residues = np.arange(q)
        for p, e in factorize(q):
            pe = p**e
            if p == 2 and e == 1:
                continue
            if p == 2 and e == 2:
                self._add(2, {1: 0, 3: 1}, pe, residues)
            elif p == 2:
                sign, five, x = {}, {}, 1
                for b in range(pe // 4):
                    sign[x], five[x] = 0, b
                    sign[pe - x], five[pe - x] = 1, b
                    x = x * 5 % pe
                self._add(2, sign, pe, residues)
                self._add(pe // 4, five, pe, residues)
            else:
                g = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1
                                                       for r, _ in factorize(p - 1)))
                if e > 1 and pow(g, p - 1, p * p) == 1:
                    g += p
                order = pe - pe // p
                logs, x = {}, 1
                for i in range(order):
                    logs[x] = i
                    x = x * g % pe
                self._add(order, logs, pe, residues)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        self.units = np.array([math.gcd(int(a), q) == 1 for a in residues])

    def _add(self, order: int, logs: dict, pe: int, residues: np.ndarray):
        table = np.full(pe, -1, dtype=np.int64)
        for x, k in logs.items():
            table[x] = k
        self.orders.append(order)
        self.dlogs.append(table[residues % pe])

    def indices(self):
        return itertools.product(*(range(n) for n in self.orders))

    def phases(self, idx: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Integer phases (mod exponent) of the characters in idx at the residues cols."""
        out = 0
        for i, n in enumerate(self.orders):
            out = out + np.outer(idx[:, i] * (self.exponent // n), self.dlogs[i][cols])
        return out % self.exponent

    def values(self, idx: np.ndarray) -> np.ndarray:
        vals = np.exp(2j * np.pi * self.phases(idx) / self.exponent)
        vals[:, ~self.units] = 0
        return vals

    def primitive_mask(self, idx: np.ndarray) -> np.ndarray:
        """chi is imprimitive iff it is trivial on {x = 1 mod q/p} for some p | q."""
        ok = np.ones(len(idx), dtype=bool)
        for p, _ in factorize(self.q):
            kernel = [1 + k * (self.q // p) for k in range(p)]
            kernel = [x % self.q for x in kernel if math.gcd(x, self.q) == 1]
            ok &= np.any(self.phases(idx, kernel) != 0, axis=1)
        return ok

    def primitive_indices(self) -> np.ndarray:
        if not self.orders:
            return np.zeros((0, 0), dtype=np.int64)
        out = []
        for chunk in _chunks(self.indices(), 4096):
            idx = np.array(chunk, dtype=np.int64)
            out.append(idx[self.primitive_mask(idx)])
        return np.concatenate(out)


def _chunks(it, size):
    it = iter(it)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def label_of(idx) -> str:
    return ".".join(str(int(k)) for k in idx)


def hurwitz_row(q: int) -> np.ndarray:
    """zeta(1/2, a/q) for a = 1 .. q-1, by mpmath at MP_DPS digits."""
    import mpmath

    mpmath.mp.dps = MP_DPS
    return np.array([float(mpmath.zeta(mpmath.mpf(1) / 2, mpmath.mpf(a) / q)) for a in range(1, q)])


def row_error(q: int, row: np.ndarray) -> float:
    """Bound on the float64 error of q^(-1/2) sum chi(a) row[a] (rounding of row and sum)."""
    return 4.0 * q * _DOUBLE_EPS * float(np.sum(np.abs(row))) / math.sqrt(q)


def central_values(group: UnitGroup, idx: np.ndarray, row: np.ndarray) -> np.ndarray:
    out = []
    for start in range(0, len(idx), 256):
        vals = group.values(idx[start:start + 256])
        out.append(vals[:, 1:] @ row / math.sqrt(group.q))
    return np.concatenate(out) if out else np.zeros(0, dtype=complex)


def envelope(group: UnitGroup, idx) -> float:
    """B(chi) = min_N (sum_{n<=N} n^(-1/2) + M N^(-1/2)), M = 2 max_{x<q} |sum_{n<=x} chi(n)|.

    Partial summation of L(1/2, chi) against the q-periodic character sums
    gives |L(1/2, chi)| <= B(chi) for primitive chi mod q >= 3.
    """
    q = group.q
    vals = group.values(np.array([idx], dtype=np.int64))[0]
    m = 2.0 * float(np.max(np.abs(np.cumsum(vals[1:q]))))
    n = np.arange(1, q + 1)
    return float(np.min(np.cumsum(n**-0.5) + m / np.sqrt(n)))


def scan_reference(q: int) -> dict:
    """Family maximum of |L(1/2, chi)| over primitive chi mod q, with its tied labels."""
    group = UnitGroup(q)
    idx = group.primitive_indices()
    if len(idx) != primitive_count(q):
        raise RuntimeError(f"q = {q}: {len(idx)} primitive characters, formula says {primitive_count(q)}")
    row = hurwitz_row(q)
    absl = np.abs(central_values(group, idx, row))
    best = float(np.max(absl))
    near = np.nonzero(absl >= best - TIE_WINDOW)[0]
    return {
        "count": len(idx),
        "max": best,
        "err": row_error(q, row),
        "labels": {label_of(idx[k]): [float(absl[k]), envelope(group, idx[k])] for k in near},
    }


def pool_reference(q: int, seed: int) -> dict:
    """A seeded handful of primitive characters mod q with their central values."""
    group = UnitGroup(q)
    idx = group.primitive_indices()
    rng = random.Random(f"{seed}:{q}")
    picked = idx[sorted(rng.sample(range(len(idx)), min(LVALUE_LABELS_PER_MODULUS, len(idx))))]
    row = hurwitz_row(q)
    vals = central_values(group, picked, row)
    return {
        "q": q,
        "err": row_error(q, row),
        "chars": [[label_of(k), float(v.real), float(v.imag)] for k, v in zip(picked, vals)],
    }


def large_moduli() -> dict:
    lo, hi = LARGE_PRIMES
    primes = [q for q in range(lo, hi) if factorize(q) == [(q, 1)]]
    lo, hi = LARGE_COMPOSITES
    # many small prime factors: at least four distinct primes and phi(q)/q <= 0.26,
    # so that every candidate costs about the same
    composites = [q for q in range(lo, hi) if has_primitive(q) and len(factorize(q)) >= 4
                  and euler_phi(q) / q <= 0.26]
    return {"primes": primes, "power_of_two": [LARGE_POWER_OF_TWO], "composites": composites}


def lvalue_pool_moduli(seed: int) -> list:
    rng = random.Random(seed)
    strata = []
    for i in range(LVALUE_STRATA):
        cands = [q for q in range(max(3, 100 * i), 100 * i + 100) if has_primitive(q)]
        strata.append(sorted(rng.sample(cands, LVALUE_MODULI_PER_STRATUM)))
    return strata


def _task(args):
    kind, q = args
    return kind, q, scan_reference(q) if kind == "scan" else pool_reference(q, POOL_SEED)


def build(processes: int = 2) -> None:
    small = [q for q in range(*SMALL_WINDOW) if has_primitive(q)]
    large = large_moduli()
    strata = lvalue_pool_moduli(POOL_SEED)
    tasks = [("scan", q) for q in small + sorted(sum(large.values(), []))]
    tasks += [("pool", q) for qs in strata for q in qs]
    tasks.sort(key=lambda t: -t[1])  # longest first keeps both processes busy
    results = {}
    with get_context("spawn").Pool(processes) as pool:
        for n, (kind, q, ref) in enumerate(pool.imap_unordered(_task, tasks), 1):
            results[kind, q] = ref
            print(f"[{n}/{len(tasks)}] {kind} q={q}", file=sys.stderr, flush=True)
    REF_DIR.mkdir(exist_ok=True)
    common = {"mp_dps": MP_DPS, "tie_window": TIE_WINDOW}
    _dump("scan_small_q.json", {**common, "window": list(SMALL_WINDOW),
                                "moduli": {str(q): results["scan", q] for q in small}})
    _dump("scan_large_q.json", {**common, **large,
                                "moduli": {str(q): results["scan", q]
                                           for q in sorted(sum(large.values(), []))}})
    _dump("lvalue_points.json", {**common, "seed": POOL_SEED,
                                 "strata": [[results["pool", q] for q in qs] for qs in strata]})


def _dump(name: str, payload: dict) -> None:
    (REF_DIR / name).write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")


@functools.lru_cache(maxsize=None)
def load(workload: str) -> dict:
    """The stored references of a workload (shared; do not modify)."""
    return json.loads((REF_DIR / f"{workload}.json").read_text())


if __name__ == "__main__":
    build()
