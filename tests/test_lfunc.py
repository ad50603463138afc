"""Characters, Gauss sums, Hurwitz oracle, approximate functional equation."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zetalab import lfunc as lf


# -- characters ----------------------------------------------------------------


def primitive_characters(q: int) -> list:
    """The primitive characters mod q as objects, in the order of their index rows."""
    return [lf.DirichletCharacter(q, tuple(k)) for k in lf.enumerate_characters(q).tolist()]


def test_primitive_counts_small():
    assert len(lf.enumerate_characters(4)) == 1
    assert len(lf.enumerate_characters(5)) == 3
    assert len(lf.enumerate_characters(8)) == 2
    assert lf.enumerate_characters(1).shape == (1, 0)  # the trivial character has conductor 1
    # 2 mod 4 has no primitive characters
    assert lf.enumerate_characters(2).shape == (0, 0)
    assert lf.enumerate_characters(6).shape == (0, 1)
    assert lf.enumerate_characters(2 * 3 * 5 * 7).shape == (0, 3)


@pytest.mark.parametrize("q", list(range(3, 80)))
def test_primitive_count_formula(q):
    assert len(lf.enumerate_characters(q)) == lf.primitive_character_count(q)


def test_conductor_matches_definition():
    for q in (8, 9, 12, 16, 24, 36, 40, 45, 48, 60):
        for chi in lf.all_characters(q):
            cond = None
            for d in range(1, q + 1):
                if q % d:
                    continue
                if all(
                    abs(chi(x) - 1) < 1e-9
                    for x in range(1, q + 1)
                    if math.gcd(x, q) == 1 and x % d == 1 % d
                ):
                    cond = d
                    break
            assert cond == chi.conductor, (q, chi.label)


def test_parity_matches_value_at_minus_one():
    for q in (5, 8, 12, 21, 40):
        chars = lf.all_characters(q)
        for chi in chars:
            assert abs(chi(q - 1) - (-1) ** chi.parity) < 1e-12, (q, chi.label)
        # the vectorised rule the scan uses gives the same parities
        parities = lf.character_group(q).parity(np.array([chi.index for chi in chars]))
        for chi, parity in zip(chars, parities, strict=True):
            assert parity == chi.parity, (q, chi.label)
            assert abs(chi(-1) - (-1) ** parity) < 1e-12, (q, chi.label)


def test_complete_multiplicativity():
    rng = np.random.default_rng(5)
    for q in (7, 12, 45):
        for chi in lf.all_characters(q)[:6]:
            for _ in range(30):
                a, b = (int(x) for x in rng.integers(1, q, 2))
                assert abs(chi(a) * chi(b) - chi(a * b)) < 1e-12
            assert chi(q) == 0 or q == 1


@pytest.mark.parametrize("q", sorted({*range(1, 1200), 2048, 2520, 4096, 8192, 9240, 65536,
                                       3**10, 5**7, 99991}))
def test_primitive_indices_match_filtered_group(q):
    # the per-component masks give the rows of conductor q among all indices, in the same order
    group = lf.character_group(q)
    rows = lf.enumerate_characters(q)
    filtered = [k for k in itertools.product(*map(range, group.orders))
                if lf._conductor_of_index(group, k) == q]
    assert rows.dtype == np.int64 and rows.shape == (len(filtered), len(group.orders))
    assert list(map(tuple, rows.tolist())) == filtered


def test_character_label_roundtrip():
    for q in (4, 45, 56):
        for chi in primitive_characters(q):
            again = lf.character_by_label(q, chi.label)
            assert np.allclose(again.values, chi.values)
    with pytest.raises(lf.LfuncError):
        lf.character_by_label(45, "1")


def test_conj_character():
    chi = primitive_characters(7)[1]
    conj = chi.conj()
    assert np.allclose(conj.values, np.conj(chi.values))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 9, 16, 27, 45, 48, 60, 64, 105, 2048, 2310, 2520])
def test_group_sums_match_character_values(q):
    # odd, four, two_sign and two_five components all occur in this list
    rng = np.random.default_rng(q)
    f = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    group = lf.character_group(q)
    sums, conj_sums = group.sums(f), group.sums(f, conj=True)
    tol = 1e-10 * np.sum(np.abs(f))
    chars = lf.all_characters(q)
    assert len(chars) == sums.size
    for chi in chars:
        assert abs(sums[chi.index] - chi.values @ f) <= tol, (q, chi.label)
        assert abs(conj_sums[chi.index] - np.conj(chi.values) @ f) <= tol, (q, chi.label)


def _pow_mod(g: int, k: np.ndarray, m: int) -> np.ndarray:
    """g^k mod m elementwise, by square-and-multiply on the bits of k."""
    out = np.ones_like(k)
    base = g % m
    for bit in range(int(k.max()).bit_length() if k.size else 0):
        out = np.where((k >> bit) & 1, out * base % m, out)
        base = base * base % m
    return out


def _check_discrete_logs(q: int) -> None:
    """Each component's logs reproduce the units; together they biject onto the index grid."""
    group = lf.character_group(q)
    units = group.units
    for i, c in enumerate(group.components):
        logs, u = group.coords[i], units % c.power
        assert logs.min(initial=0) >= 0 and logs.max(initial=0) < c.order, (q, c)
        if c.kind == "odd":
            g = lf._primitive_root(c.prime, lf.factorize(c.power)[0][1])
            assert np.array_equal(_pow_mod(g, logs, c.power), u), (q, c)
        elif c.kind == "four":
            assert np.array_equal(np.where(logs == 1, 3, 1), u), q
        elif c.kind == "two_sign":  # u = +-5^b with b the log on the next (two_five) component
            fives = _pow_mod(5, group.coords[i + 1], c.power)
            assert np.array_equal(np.where(logs == 1, c.power - fives, fives), u), q
    cell = np.zeros(len(units), dtype=np.int64)
    for logs, n in zip(group.coords, group.orders):
        cell = cell * n + logs
    # at q = p^e (and at 2^e for the sign and 5-power pair) this is the table itself
    assert np.array_equal(np.sort(cell), np.arange(len(units))), q


def test_discrete_logs_every_modulus_to_3000():
    for q in range(1, 3001):
        _check_discrete_logs(q)


@pytest.mark.parametrize("q", [8192, 9973, 65536, 99991, 100000, 3**10, 5**7])
def test_discrete_logs_large_moduli(q):
    _check_discrete_logs(q)


# -- Gauss sums ------------------------------------------------------------------


def test_gauss_sum_chi_minus_four():
    chi = primitive_characters(4)[0]
    assert abs(lf.gauss_sum(chi) - 2j) < 1e-12


def test_gauss_sum_quadratic_mod_five():
    quads = [
        c
        for c in primitive_characters(5)
        if all(abs(c(n).imag) < 1e-12 for n in range(5))
    ]
    assert len(quads) == 1
    assert abs(lf.gauss_sum(quads[0]) - math.sqrt(5)) < 1e-10  # classical positive sign


def test_gauss_modulus_exhaustive_up_to_500():
    # |tau(chi)|^2 = q for every primitive character, batched per modulus
    for q in range(3, 501):
        chars = primitive_characters(q)
        if not chars:
            continue
        mat = np.stack([chi.values for chi in chars])
        taus = mat @ np.exp(2j * np.pi * np.arange(q) / q)
        assert np.max(np.abs(np.abs(taus) ** 2 - q)) <= 1e-9 * q, q


def test_gauss_requires_primitive():
    imprim = [c for c in lf.all_characters(8) if not c.is_primitive][0]
    with pytest.raises(lf.LfuncError):
        lf.gauss_sum(imprim)


def test_root_numbers_unimodular():
    rng = random.Random(99)
    done = 0
    while done < 50:
        q = rng.randint(3, 500)
        chars = primitive_characters(q)
        if not chars:
            continue
        chi = chars[rng.randrange(len(chars))]
        assert abs(abs(lf.root_number(chi)) - 1) < 1e-9
        done += 1


# -- Hurwitz oracle -----------------------------------------------------------------


def test_riemann_zeta_half():
    assert abs(lf.hurwitz_zeta(0.5, 1.0) - (-1.4603545088095868)) < 1e-9


def test_hurwitz_two_cut_points_agree():
    v1 = lf.hurwitz_zeta(0.5 + 3j, 1.0)
    old = lf._EM_TERMS
    try:
        lf._EM_TERMS = 100
        lf._hurwitz_row.cache_clear()
        v2 = lf.hurwitz_zeta(0.5 + 3j, 1.0)
    finally:
        lf._EM_TERMS = old
        lf._hurwitz_row.cache_clear()
    assert abs(v1 - v2) < 1e-10


@pytest.mark.parametrize("q", [3, 101, 1009, 9973])
def test_hurwitz_row_matches_mpmath(q):
    import mpmath
    rng = random.Random(q)
    offsets = sorted({1, 2, q // 2, q - 1, q} | {rng.randrange(1, q + 1) for _ in range(12)})
    xs = np.array(offsets) / q
    with mpmath.workdps(30):
        for s in (0.4, 0.5, 0.75, 2.0, 0.5 + 3j, 0.4 - 10j):
            row = lf._hurwitz_vec(s, xs)
            assert row.dtype == (np.complex128 if isinstance(s, complex) else np.float64), s
            for a, value in zip(offsets, row):
                exact = complex(mpmath.zeta(s, mpmath.mpf(a) / q))
                # zeta_H(2, 1/9973) is about 1e8, so float64 rounding alone is 1e-8 there
                assert abs(value - exact) <= 1e-10 * max(1.0, abs(exact)), (q, s, a)


def test_real_oracle_matches_complex_arithmetic():
    # the row at s = 1/2 is float64; the same formula on complex offsets runs every power complex
    for q in (101, 1009, 9973):
        xs = np.arange(1, q + 1) / q
        row = lf._hurwitz_vec(0.5, xs + 0j)
        assert row.dtype == np.complex128
        for chi in primitive_characters(q)[:: max(1, q // 7)]:
            ref = q**-0.5 * np.sum(np.roll(chi.values, -1) * row)
            assert abs(lf.l_oracle_hurwitz(chi, 0.5) - ref) <= 1e-13, (q, chi.label)


def test_leibniz_value():
    chi = primitive_characters(4)[0]
    assert abs(lf.l_oracle_hurwitz(chi, 1.0) - math.pi / 4) < 1e-10


def test_hurwitz_domain_guard():
    with pytest.raises(lf.LfuncError):
        lf.hurwitz_zeta(0.2, 0.5)
    with pytest.raises(lf.LfuncError):
        lf.hurwitz_zeta(2.0 + 11j, 0.5)
    with pytest.raises(lf.LfuncError):
        lf.hurwitz_zeta(1.0, 1.0)


# -- approximate functional equation ---------------------------------------------------


def test_central_value_chi_minus_four():
    chi = primitive_characters(4)[0]
    value = lf.l_central(chi, 1e-9)
    oracle = lf.l_oracle_hurwitz(chi, 0.5)
    assert abs(value - oracle) <= 2e-8
    assert abs(value.imag) <= 1e-9  # real character
    assert abs(value.real - 0.6676914571896) <= 1e-10


def test_afe_matches_oracle_sampled():
    worst = 0.0
    for q in (5, 7, 8, 9, 11, 12, 13, 16, 35, 49, 101, 144, 243):
        for chi in primitive_characters(q):
            d = abs(lf.l_central(chi, 1e-9) - lf.l_oracle_hurwitz(chi, 0.5))
            worst = max(worst, d)
    assert worst <= 2e-8, worst


def test_balance_independence():
    for q in (4, 17, 35):
        for chi in primitive_characters(q)[:3]:
            a = lf.l_central(chi, 1e-9, balance=1.0)
            b = lf.l_central(chi, 1e-9, balance=2.0)
            assert abs(a - b) <= 2e-9, (q, chi.label)


def test_balance_independence_at_the_largest_moduli():
    # across the whole balance range, at the top of the supported moduli
    for q in (99991, lf.MAX_MODULUS):
        chars = primitive_characters(q)
        for chi in (chars[0], chars[len(chars) // 3], chars[-1]):
            ref = lf.l_central(chi, 1e-9)
            bound = lf._afe_weights(q, chi.parity, 1.0, 1e-9).error_bound
            for balance in (0.2, 5.0):
                other = lf._afe_weights(q, chi.parity, balance, 1e-9).error_bound
                assert abs(lf.l_central(chi, 1e-9, balance) - ref) <= bound + other, (q, chi.label)


def test_conjugation_symmetry():
    for q in (7, 29):
        for chi in primitive_characters(q)[:4]:
            a = lf.l_central(chi.conj(), 1e-9)
            b = lf.l_central(chi, 1e-9).conjugate()
            assert abs(a - b) <= 1e-9


def _direct_weights(parity, side, u):
    # the contour sum in chunks, so that q near 10^5 stays small in memory
    a = lf._contour_coefficients(parity, side)
    parts = [lf._contour_sum(a, u[i:i + 1024]) for i in range(0, len(u), 1024)]
    return np.concatenate([v for v, _ in parts]), np.concatenate([r for _, r in parts])


@pytest.mark.parametrize("q", [3, 4, 5, 101, 400, 997, 5003, 9973, 30011, 99991])
def test_weight_tables_match_contour_sum(q):
    # every weight argument of l_central at target 1e-9: table against the direct sum
    for parity in (0, 1):
        for balance in (0.2, 1.0, 5.0):
            scale = math.sqrt(q / math.pi)
            for side, x in ((1, balance * scale), (2, scale / balance)):
                n, _ = lf._series_length(parity, x, side, 1e-9 / 4)
                ns = np.arange(1, n + 1, dtype=float)
                u = np.log(ns / x)
                table, err = lf._weight_table(parity, side)(u)
                direct, rounding = _direct_weights(parity, side, u)
                diff = np.abs(table - direct)
                assert np.all(diff <= err + rounding), (q, parity, balance, side)


def test_low_degree_table_bound_holds_and_is_sharp(monkeypatch):
    # at degree 8 the interpolation error dominates rounding, so the bound shows
    monkeypatch.setattr(lf, "_TABLE_DEGREE", 8)
    u = np.linspace(-2.0, 6.0, 3001)
    for parity in (0, 1):
        for side in (1, 2):
            table, err = lf._weight_table.__wrapped__(parity, side)(u)
            direct, rounding = _direct_weights(parity, side, u)
            ratio = np.abs(table - direct) / (err + rounding)
            assert np.max(ratio) <= 1.0
            assert np.max(ratio) >= 1e-3, np.max(ratio)  # not vacuous


def test_weight_argument_outside_table_raises():
    table = lf._weight_table(0, 1)
    with pytest.raises(lf.LfuncError, match="outside the tabulated"):
        table(np.array([lf._U_MIN - 0.01]))
    with pytest.raises(lf.LfuncError, match="outside the tabulated"):
        table(np.array([0.0, lf._U_MAX + 0.01]))
    # balance 5 at q = 160,000 puts n = 1 at u = -log(5 sqrt(q/pi)) < -7
    with pytest.raises(lf.LfuncError, match="outside the tabulated"):
        lf._afe_weights(160_001, 0, 5.0, 1e-9)


def test_afe_budget_counts_the_tables():
    # the default target certifies at the largest weight scale the inputs allow,
    # q = MAX_MODULUS at either end of the balance range, with the tables' bound counted
    q = lf.MAX_MODULUS
    scale = math.sqrt(q / math.pi)
    for parity in (0, 1):
        for balance in (0.2, 1.0, 5.0):
            wts = lf._afe_weights(q, parity, balance, 1e-9)
            tables = 0.0
            for side, x in ((1, balance * scale), (2, scale / balance)):
                n, _ = lf._series_length(parity, x, side, 1e-9 / 4)
                ns = np.arange(1, n + 1, dtype=float)
                tables += float(np.sum(lf._weight_table(parity, side)(np.log(ns / x))[1] / np.sqrt(ns)))
            assert tables < wts.error_bound <= 1e-9, (parity, balance)
    # a target below the tables' own bound is refused with that bound
    with pytest.raises(lf.AfeError, match="achieved bound") as exc:
        lf._afe_weights(99991, 1, 1.0, 1e-13)
    assert exc.value.achieved > 1e-13


def test_l_central_input_guards():
    imprim = [c for c in lf.all_characters(8) if not c.is_primitive][0]
    with pytest.raises(lf.LfuncError):
        lf.l_central(imprim)
    with pytest.raises(lf.LfuncError):
        lf.l_central(primitive_characters(3)[0], balance=100.0)
    # past the moduli the weight tables cover, as the scan refuses them
    with pytest.raises(lf.LfuncError, match="modulus limit is 100000"):
        lf.l_central(lf.character_by_label(199999, "5"))


# -- scan and fit ------------------------------------------------------------------------


def test_exponent_fit_degenerate():
    recs = lf.scan(100, 100, stride=1)
    assert len(recs) == 1
    fit = lf.exponent_fit(recs)
    assert not fit.ok and fit.reason


def test_scan_skips_two_mod_four():
    recs = lf.scan(100, 110, stride=1)
    assert all(r.q % 4 != 2 for r in recs)


def test_scan_batched_matches_per_character():
    recs = lf.scan(100, 105, stride=1) + [r for q in (2048, 2310, 2520) for r in lf.scan(q, q)]
    assert [r.q for r in recs] == [100, 101, 103, 104, 105, 2048, 2520]
    for r in recs:
        ref = max(abs(lf.l_central(c, 1e-8)) for c in primitive_characters(r.q))
        assert abs(ref - r.abs_l) <= 1e-10


def test_scan_checks_gauss_sums(monkeypatch):
    # an imprimitive character passed off as primitive has |tau| != sqrt(q)
    def every_index(q):
        orders = lf.character_group(q).orders
        return np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)

    monkeypatch.setattr(lf, "enumerate_characters", every_index)
    with pytest.raises(lf.LfuncError, match="Gauss sum"):
        lf.scan(105, 105)


@pytest.mark.parametrize("q", [6, 105, 2048, 2310, 9973])
def test_scan_enumerates_through_the_module_attribute(monkeypatch, q):
    # perfbench/worker.py counts the characters a scan evaluates by wrapping this attribute
    calls = []
    enumerate_characters = lf.enumerate_characters

    def counting(modulus):
        rows = enumerate_characters(modulus)
        calls.append((modulus, len(rows)))
        return rows

    monkeypatch.setattr(lf, "enumerate_characters", counting)
    lf.scan(q, q)
    assert calls == [(q, lf.primitive_character_count(q))]


def test_scan_prime_near_ten_thousand_is_light():
    # a value array per character would take 24 q (q - 1) bytes = 2.4 GB here
    tracemalloc.start()
    try:
        (rec,) = lf.scan(9973, 9973)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak
    chi = lf.character_by_label(9973, rec.label)
    assert abs(abs(lf.l_central(chi, 1e-8)) - rec.abs_l) <= 1e-10
    assert abs(abs(lf.l_oracle_hurwitz(chi, 0.5)) - rec.abs_l) <= 2e-8


def test_scan_reproducible_without_timing():
    a = lf.scan(120, 140, stride=1)
    b = lf.scan(120, 140, stride=1)
    assert a == b
    assert all(r.seconds == 0.0 for r in a)
    timed = lf.scan(120, 140, timing=True)
    values = [(r.q, r.label, r.abs_l, r.normalized) for r in a]
    assert [(r.q, r.label, r.abs_l, r.normalized) for r in timed] == values
    assert all(r.seconds >= 0 for r in timed)


def test_burgess_target_values():
    assert lf.burgess_target(Fraction(7, 64)) == Fraction(103, 512)
    assert lf.burgess_target(0) == Fraction(3, 16)
    assert lf.burgess_target(Fraction(1, 2) - Fraction(1, 512)) < Fraction(1, 4)
    assert float(lf.burgess_target(Fraction(7, 64))) == 103 / 512
    with pytest.raises(lf.LfuncError):
        lf.burgess_target(Fraction(1, 2))
