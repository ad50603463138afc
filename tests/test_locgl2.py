"""Exact identities for the closed-form local data, plus spot values."""

from fractions import Fraction

import pytest

from zetalab import locgl2 as lg
from zetalab.symring import GEN_S, GEN_T, ONE, ZERO, EvalPoint, SymElem, q_pow, t_pow


def is_zero(e):
    return e.is_zero


# -- masses and classical vectors -------------------------------------------


def test_mass_partition_symbolic():
    for m in range(11):
        assert is_zero(lg.coset_masses(m).total() - 1), m


def test_mass_spot_values():
    # w_1 = (1 - q^-1)/(q + 1)
    w1 = lg.mass_w(1)
    assert is_zero(w1 - (1 - q_pow(-2)) / (q_pow(2) + 1))
    pt = EvalPoint(q=2)
    vals = [lg.mass_w(n).substitute(pt) for n in (0, 1, 2)]
    assert [round(v.real, 10) for v in vals] == [
        round(Fraction(2, 3) + 0.0, 10),
        round(1 / 6, 10),
        round(1 / 12, 10),
    ]


def test_orthonormality():
    for l in range(7):
        for lp in range(l, 7):
            assert is_zero(lg.orthonormality_residual(l, lp)), (l, lp)


def test_classical_vector_values():
    cv = lg.classical_vectors(6)
    assert cv.entry(0, 5) == ONE
    assert cv.entry(1, 0) == q_pow(-1)
    assert cv.entry(1, 1) == -q_pow(1)
    assert cv.entry(3, 2) == q_pow(1) * GEN_S
    assert cv.entry(2, 0).is_zero
    # saturation in n
    assert cv.entry(2, 2) == cv.entry(2, 6)


def test_dimension_identity():
    assert lg.dimension(0) == ONE
    assert lg.dimension(1) == q_pow(2)
    assert is_zero(lg.dimension(2) - (q_pow(4) - 1))
    for n in range(1, 7):
        assert is_zero(lg.dimension_residual(n)), n


# -- intertwining eigenvalues ------------------------------------------------


def test_mu_factor_finite():
    assert lg.mu_factor("finite", 0).value == ONE
    mu1 = lg.mu_factor("finite", 1).value
    expect = t_pow("s", 2) * (1 - q_pow(-2) * GEN_T ** (-2)) / (1 - q_pow(-2) * GEN_T**2)
    assert is_zero(mu1 - expect)
    for l in range(1, 5):
        ratio = lg.intertwining_eigenvalue(l).value / lg.intertwining_eigenvalue(0).value
        assert is_zero(lg.mu_factor("finite", l).value - ratio)


def test_mu_factor_archimedean():
    assert lg.mu_factor("real", 0).value(1.7) == 1
    r = lg.mu_factor("complex", 4).value
    s = 0.37j
    expect = (1 - 2 * s) * (2 - 2 * s) / ((1 + 2 * s) * (2 + 2 * s))
    assert abs(r(s) - expect) < 1e-14
    r2 = lg.mu_factor("real", 2).value
    assert abs(r2(s) - (1 - 2 * s) / (1 + 2 * s)) < 1e-14
    for place in ("real", "complex"):
        with pytest.raises(ValueError):
            lg.mu_factor(place, 3)


def test_mu_unitary_on_critical_line():
    # |mu(s)| = 1 for s purely imaginary, every place kind
    for val, s in ((lg.mu_factor("finite", 2).value, None), (lg.mu_factor("real", 4).value, 0.3j)):
        if s is None:
            pt = EvalPoint(q=7, s=0.45j)
            assert abs(abs(val.substitute(pt)) - 1) < 1e-12
        else:
            assert abs(abs(val(s)) - 1) < 1e-12


# -- transition coefficients --------------------------------------------------


def test_c_spot_values():
    assert lg.transition_coeff(0, 0) == ONE
    c10 = lg.transition_coeff(1, 0)
    expect = q_pow(-1) * (t_pow("s0", -1) + t_pow("s0", 1)) / (1 + q_pow(-2))
    assert is_zero(c10 - expect)
    # removable poles are expanded away: denominators contain no 1 - T0^2 factor
    c52 = lg.transition_coeff(5, 2)
    assert c52.ad.degree(1) == 0 or c52.ad == ONE.ad  # noqa: SIM300  (monomial denominator)


def test_evaluation_system():
    for n in range(6):
        for k in range(n + 1):
            assert is_zero(lg.evaluation_residual(n, k)), (n, k)


def test_solved_system_matches_closed_forms():
    from zetalab import oracle

    for n in (1, 2, 3):
        sol = oracle.solve_transition_system(n, "symbolic")
        for l in range(n + 1):
            assert is_zero(sol[l] - lg.transition_coeff(n, l)), (n, l)


def test_tilde_c_recursions():
    for n in range(3, 7):
        for l in range(n + 1):
            assert is_zero(lg.tilde_c_residual(n, l)), (n, l)


def test_unitarity():
    for n in range(7):
        assert is_zero(lg.unitarity_identity(n)), n


def test_roundtrip_on_symbolic_sequence():
    # the full depth N_MAX + 1 in s0, so every l up to N_MAX is inverted, and
    # depth 3 in s1, the variable rs_zeta_ratio solves in
    full = [
        ONE, GEN_T, ZERO, GEN_T**2 - 1, q_pow(1) * GEN_T, SymElem.from_rational(Fraction(2, 3)),
        GEN_T ** (-1), ONE, q_pow(-1) - GEN_T**3,
    ]
    assert len(full) == lg.N_MAX + 1
    for seq, svar in ((full, "s0"), ([ONE, GEN_T * t_pow("s1", 1), q_pow(-1) - t_pow("s2", 2)], "s1")):
        fwd = []
        for n in range(len(seq)):
            acc = ZERO
            for l in range(n + 1):
                acc = acc + lg.transition_coeff(n, l, svar) * seq[l]
            fwd.append(acc)
        back = lg.solve_transition(fwd, svar)
        for n in range(len(seq)):
            assert is_zero(back[n] - seq[n]), (svar, n)
    with pytest.raises(ValueError):
        lg.solve_transition(full + [ONE])


def test_roundtrip_basis_vector():
    # forward image of (1, 0, 0, ...) comes back to itself
    fwd = [lg.transition_coeff(n, 0) for n in range(5)]
    back = lg.solve_transition(fwd)
    assert is_zero(back[0] - 1)
    for n in range(1, 5):
        assert back[n].is_zero, n


# -- one-variable zeta ---------------------------------------------------------


def test_spherical_zeta_at_s0_zero():
    # reduces to zeta_F(s + 1/2)^2 / zeta_F(1)
    val = lg.spherical_zeta().value
    pt = EvalPoint(q=3, s=1.3 + 0.4j, s0=0.0)
    zf = lambda z: 1 / (1 - 3.0 ** (-z))  # noqa: E731
    expect = zf(pt.s + 0.5) ** 2 / zf(1)
    assert abs(val.substitute(pt) - expect) < 1e-12
    assert lg.spherical_zeta().conductor_exponent == (Fraction(1), Fraction(-1), Fraction(-1, 2))


def test_zeta_ratio_display_vs_solved():
    # the displayed closed forms for l = 1, 2, with
    # kappa = q^(-1/2)(1 + q^(-2 s0))(1 - q^-2)^(-1/2) = q^(-1/2)(1 + q^(-2 s0)) q S/(q + 1)
    c10, c11 = lg.transition_coeff(1, 0), lg.transition_coeff(1, 1)
    c20, c22 = lg.transition_coeff(2, 0), lg.transition_coeff(2, 2)
    kappa = q_pow(-1) * (1 + t_pow("s0", 2)) * q_pow(2) * GEN_S / (q_pow(2) + 1)
    display = {
        1: GEN_T / c11 - c10 / c11,
        2: GEN_T**2 / c22 - kappa * GEN_T / c11 + (-c20 / c22 + kappa * c10 / c11),
    }
    for l, expect in display.items():
        assert is_zero(lg.zeta_ratio(l).value - expect), l
    with pytest.raises(ValueError):
        lg.zeta_ratio(7)


def test_herm_ratio_display_vs_solved():
    # the displayed hermitian ratios for l = 1, 2, with c = c(n, l; s1) and
    # d = c(n, l; s2); the middle term of l = 2 has the corrected denominator
    # (1 + q^-1)^2 (1 - q^-1), where the source prints (1 + q^-1)(1 - q^-1)^2
    qi = q_pow(-2)  # q^-1
    c10, c11 = lg.transition_coeff(1, 0, "s1"), lg.transition_coeff(1, 1, "s1")
    d10, d11 = lg.transition_coeff(1, 0, "s2"), lg.transition_coeff(1, 1, "s2")
    c20, c22 = lg.transition_coeff(2, 0, "s1"), lg.transition_coeff(2, 2, "s1")
    d20, d22 = lg.transition_coeff(2, 0, "s2"), lg.transition_coeff(2, 2, "s2")
    u = (1 + t_pow("s1", 2)) * (1 + t_pow("s2", 2))
    a1 = t_pow("s", -1) * (1 + qi * GEN_T**2) / (1 + qi)  # atilde_1
    a2 = t_pow("s", -2) * (1 + qi**2 * GEN_T**4) / (1 + qi) + qi * (1 - qi) / (1 + qi)
    l1_display = (a1 - c10 * d10) / (c11 * d11)

    def l2_display(middle_den):
        middle = qi * t_pow("s", -1) * u / middle_den * (1 + qi * GEN_T**2) / (c11 * d11)
        rest = -c20 * d20 / (c22 * d22) + qi * u / (1 - qi**2) * c10 * d10 / (c11 * d11)
        return a2 / (c22 * d22) - middle + rest

    assert lg.herm_zeta_ratio(1).value == l1_display
    assert lg.herm_zeta_ratio(2).value == l2_display((1 + qi) ** 2 * (1 - qi))
    assert lg.herm_zeta_ratio(2).value != l2_display((1 + qi) * (1 - qi) ** 2)
    with pytest.raises(ValueError):
        lg.herm_zeta_ratio(3)


def test_zeta_ratio_display_formula():
    c10, c11 = lg.transition_coeff(1, 0), lg.transition_coeff(1, 1)
    expect = GEN_T / c11 - c10 / c11
    assert is_zero(lg.zeta_ratio(1).value - expect)


def test_translate_identity_and_duals():
    ratios = [lg.zeta_ratio(l).value for l in range(7)]
    for n in range(7):
        acc = -GEN_T**n
        for l in range(n + 1):
            acc = acc + lg.transition_coeff(n, l) * ratios[l]
        assert is_zero(acc), n
    for l in range(7):
        assert is_zero(lg.dual_ratio_residual(l)), l


# -- Rankin-Selberg -------------------------------------------------------------


def test_rs_a0_is_one():
    assert is_zero(lg.rs_a_coeff(0).value - 1)


def test_rs_spherical_invariance_under_sign_flip():
    # the four pairing factors permute under (s1, s2) -> (-s1, -s2); the
    # remaining normalisations zeta_F(1 + 2 s_i) swap sign in the exponent
    val = lg.rs_spherical_zeta().value
    flipped = val.invert_var("s1").invert_var("s2")
    znorm = lambda e: 1 / (1 - q_pow(-2) * t_pow("s1", 2 * e)) / (  # noqa: E731
        1 - q_pow(-2) * t_pow("s2", 2 * e)
    )
    assert is_zero(val * znorm(1) - flipped * znorm(-1))


def test_rs_spherical_at_zero_spectral_points():
    val = lg.rs_spherical_zeta().value
    pt = EvalPoint(q=3, s=2.0 - 0.7j)
    zf = lambda z: 1 / (1 - 3.0 ** (-z))  # noqa: E731
    expect = zf(0.5 + pt.s) ** 4 / (zf(1) ** 2 * zf(1 + 2 * pt.s))
    assert abs(val.substitute(pt) - expect) < 1e-12
    assert lg.rs_spherical_zeta().conductor_exponent == (Fraction(1), Fraction(0), Fraction(-1))


# -- hermitian pairing -----------------------------------------------------------


def test_herm_a_values():
    assert lg.herm_a_coeff(0).value == ONE
    pt = EvalPoint(q=2, s=0.0)
    assert abs(lg.herm_a_coeff(1).value.substitute(pt) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        lg.herm_a_coeff(3)


def test_herm_linear_system():
    for n in (0, 1, 2):
        assert is_zero(lg.herm_system_residual(n)), n


def test_herm_vanishes_at_central_point():
    # at s = 0 and s1 = s2 = 1/2 both ratios vanish (this is the cancellation
    # that produces the q^(-l) decay of their derivatives)
    pt = EvalPoint(q=5, s=0.0, s1=0.5, s2=0.5)
    for l in (1, 2):
        assert abs(lg.herm_zeta_ratio(l).value.substitute(pt)) < 1e-13


# -- bound checks and golden -------------------------------------------------------


def test_bound_check_kinds_that_meet_constant_ten():
    # zeta_ratio_decay and herm_decay pass on ratio / l^order; their raw ratios stay above 1
    for kind in ("c_decay", "zeta_ratio_decay", "herm_decay", "vertical_line"):
        rep = lg.bound_check(kind)
        assert rep.passed, (kind, rep.worst_ratio)
        if kind in ("zeta_ratio_decay", "herm_decay"):
            assert rep.worst_ratio > 1.0, kind


def test_bound_check_worst_ratios_are_frozen():
    from zetalab.cli import load_golden

    stored = load_golden("bound_worst_ratios.json")
    for kind, entry in stored["kinds"].items():
        rep = lg.bound_check(kind, constant=stored["constant"])
        assert abs(rep.worst_ratio - entry["worst_ratio"]) <= 1e-9 * max(1.0, entry["worst_ratio"]), kind
        assert rep.passed == entry["passed_at_constant_10"], kind


def test_bound_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        lg.bound_check("nonsense")


def test_golden_payload_is_frozen():
    from zetalab.cli import load_golden

    assert lg.golden_payload() == load_golden("locgl2_closed_forms.json")
