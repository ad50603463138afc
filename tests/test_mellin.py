"""Cutoff, Mellin ladder, windows: values, identities, decay."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetalab import mellin as ml


def test_plateau_and_support():
    assert ml.h0_eval(0.5, 0) == 1.0
    assert ml.h0_eval(0.0, 0) == 1.0
    assert ml.h0_eval(2.5, 0) == 0.0
    assert ml.h0_eval(3.0, 2) == 0.0
    assert ml.h0_eval(0.7, 1) == 0.0  # derivatives vanish off (1, 2)
    assert abs(ml.h0_eval(1.5, 0) - 0.5) < 1e-12  # symmetric bump midpoint
    with pytest.raises(ml.MellinError):
        ml.h0_eval(1.5, 5)
    with pytest.raises(ml.MellinError):
        ml.h0_eval(-0.1, 0)


def test_monotone_on_transition():
    ts = np.linspace(1.001, 1.999, 400)
    vals = ml.h0_eval(ts, 0)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0) & (vals <= 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivatives_against_richardson_differences(k):
    for t in (1.15, 1.5, 1.85):
        h = 1e-3
        d1 = (ml.h0_eval(t + h, k - 1) - ml.h0_eval(t - h, k - 1)) / (2 * h)
        d2 = (ml.h0_eval(t + h / 2, k - 1) - ml.h0_eval(t - h / 2, k - 1)) / h
        rich = (4 * d2 - d1) / 3
        assert abs(rich - ml.h0_eval(t, k)) <= 1e-6 * max(1.0, abs(rich))


def test_derivative_recurrence_against_sympy():
    # sympy differentiates the closed form exactly; mpmath evaluates it at 30 digits
    sp = pytest.importorskip("sympy")
    import mpmath

    t = sp.Symbol("t")
    f = lambda x: sp.exp(-1 / x)  # noqa: E731
    expr = f(2 - t) / (f(2 - t) + f(t - 1))
    ts = np.linspace(1.02, 1.98, 25)
    with mpmath.workdps(30):
        for k in range(5):
            exact_at = sp.lambdify(t, sp.diff(expr, t, k), "mpmath")
            exact = np.array([float(exact_at(mpmath.mpf(float(x)))) for x in ts])
            got = ml.h0_eval(ts, k)
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact)), k


def test_mellin_module_runs_without_sympy():
    # mellin alone, then the package's lfunc, with every sympy import failing
    src = str(Path(ml.__file__).resolve().parent.parent)
    code = (
        "import importlib.util, sys\n"
        "sys.modules['sympy'] = None\n"
        f"spec = importlib.util.spec_from_file_location('mellin_alone', {ml.__file__!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "sys.modules['mellin_alone'] = mod\n"
        "spec.loader.exec_module(mod)\n"
        "print(repr(mod.h0_eval(1.3, 4)))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from zetalab import lfunc\n"
        "print(repr(lfunc.l_central(lfunc.character_by_label(5, '2'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    h0_line, l_line = out.stdout.split()
    assert float(h0_line) == ml.h0_eval(1.3, 4)
    from zetalab import lfunc

    assert complex(l_line) == lfunc.l_central(lfunc.character_by_label(5, "2"))


def test_fundamental_theorem_on_derivative():
    xs = np.linspace(1, 2, 20001)
    val = np.trapezoid(ml.h0_eval(xs, 1), xs)
    assert abs(val + 1) < 1e-8  # h0(2) - h0(1) = -1


def test_order_independence_on_grid():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(0.05, 5.0), rng.uniform(-20, 20))
        vals = [ml.mellin_h0(s, order) for order in range(5)]
        worst = max(worst, max(abs(v - vals[0]) for v in vals))
    assert worst <= 1e-8


def test_value_at_one_within_plateau_bounds():
    v = ml.mellin_h0(1.0, 0)
    assert 1 < v.real < 2 and abs(v.imag) < 1e-13


def test_residue_probe_at_origin():
    eps = 1e-3
    assert abs(eps * ml.mellin_h0(eps, 1) - 1) <= 1e-2


def test_pole_errors_name_the_pole():
    with pytest.raises(ml.MellinPoleError):
        ml.mellin_h0(0.0, 2)
    with pytest.raises(ml.MellinPoleError):
        ml.mellin_h0(-1.0, 3)
    with pytest.raises(ml.MellinPoleError):
        ml.mellin_h0(0.0, 0)  # the plateau split continues M[h0] to every s != 0
    with pytest.raises(ml.MellinError):
        ml.mellin_h0(-4.5, 4)  # out of the order-4 half-plane


def test_one_minus_identity_against_direct_integral():
    for s in (-0.5 + 0.3j, -1.0, -2.0 + 1.0j, -2.7 - 0.4j, -1.5, -0.25):
        a = ml.mellin_one_minus_h0(s)
        b = ml.mellin_one_minus_h0_direct(s)
        assert abs(a - b) <= 1e-8, s


def test_continued_form_agrees_with_ladder():
    # order 0 is the plateau split, valid at every s != 0
    for s in (0.7 + 2j, -0.5 + 1j, -2.5 - 3j, 3.0):
        for order in (3, 4):
            assert abs(ml.mellin_h0(s, 0) - ml.mellin_h0(s, order)) <= 1e-9, (s, order)


def test_batch_matches_scalar():
    rng = np.random.default_rng(2)
    ss = rng.uniform(-1.5, 4.0, 25) + 1j * rng.uniform(-45, 45, 25)
    batch = ml.mellin_h0_batch(ss, 4)
    for s, b in zip(ss, batch):
        assert abs(b - ml.mellin_h0(s, 4)) <= 1e-12


def test_window_invariants():
    w = ml.window(1.0, 100.0)
    assert w.eval(10.0) == 1.0  # plateau [2A, B]
    assert w.eval(0.5) == 0.0  # below support
    assert w.eval(250.0) == 0.0  # above support
    ts = np.exp(np.linspace(np.log(0.5), np.log(300), 4001))
    vals = w.eval(ts)
    assert np.all((vals >= 0) & (vals <= 1 + 1e-12))
    with pytest.raises(ml.MellinError):
        ml.window(2.0, 1.0)


def test_window_log_mass():
    b = math.exp(10.0)
    w = ml.window(1.0, b)
    ts = np.exp(np.linspace(math.log(0.25), math.log(2.5 * b), 20001))
    mass = np.trapezoid(w.eval(ts) / ts, ts)
    assert abs(mass - 10.0) <= 1.5


def test_decay_constant_frozen():
    from zetalab.cli import load_golden

    stored = load_golden("mellin_decay.json")
    now = ml.measure_decay_constant(stored["sigma"], stored["t_grid"], stored["order"])
    assert abs(now - stored["constant"]) <= 1e-9 * stored["constant"]
    # and the frozen constant really does dominate the grid
    for t in (5, 12, 27, 40):
        assert abs(ml.mellin_h0(2 + 1j * t, 4)) <= stored["constant"] / t**4 * (1 + 1e-9)
