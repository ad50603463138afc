#!/usr/bin/env python3
"""Walkthrough: Dirichlet characters, central values, and a small exponent scan.

The central value of each primitive character is computed twice: by the
smoothed approximate functional equation (two weighted sums of length about
sqrt(q), weights from the cutoff's Mellin transform) and by the
Euler-Maclaurin Hurwitz-zeta oracle.  The two routes share nothing except
the character table.
"""

from fractions import Fraction

from zetalab import lfunc as lf

print("characters mod 40 (unit group Z/2 x Z/4 x Z/4):")
chars = lf.all_characters(40)
prim = [c for c in chars if c.is_primitive]
print(f"   {len(chars)} characters, {len(prim)} primitive "
      f"(formula: {lf.primitive_character_count(40)})")
chi = prim[1]
print(f"   example {chi!r}")
print(f"   gauss sum tau = {lf.gauss_sum(chi):.6f}, |tau|^2 = {abs(lf.gauss_sum(chi))**2:.6f}")
print(f"   root number eps = {lf.root_number(chi):.6f}")

print()
print("the odd character of conductor 4 (the classical first example):")
chi4 = lf.DirichletCharacter(4, tuple(lf.enumerate_characters(4)[0].tolist()))
afe = lf.l_central(chi4, 1e-9)
hur = lf.l_oracle_hurwitz(chi4, 0.5)
print(f"   AFE     L(1/2) = {afe.real:.12f} {afe.imag:+.2e}i")
print(f"   Hurwitz L(1/2) = {hur.real:.12f} {hur.imag:+.2e}i")
print(f"   L(1, chi) = {lf.l_oracle_hurwitz(chi4, 1.0).real:.12f}  (pi/4 = 0.785398163397)")

print()
print("cross-validation over all primitive characters of a few moduli:")
for q in (5, 12, 37, 100):
    worst = max(
        abs(lf.l_central(c, 1e-9) - lf.l_oracle_hurwitz(c, 0.5))
        for c in lf.all_characters(q) if c.is_primitive
    )
    print(f"   q = {q:4d}: worst |AFE - Hurwitz| = {worst:.2e}")

print()
print("a small conductor scan (the acceptance suite runs the full census):")
records = lf.scan(100, 400, stride=7)
for r in records[:5]:
    print(f"   q = {r.q:4d}: max |L(1/2, chi)| = {r.abs_l:.4f} at label {r.label}, "
          f"|L|/q^(1/4) = {r.normalized:.4f}")
print(f"   ... {len(records)} moduli total")
fit = lf.exponent_fit(records)
print(f"   fitted exponent of max |L|: {fit.slope:.4f} (residual {fit.residual:.3f})")
print(f"   Burgess-type target exponent at theta = 7/64: "
      f"{lf.burgess_target(Fraction(7, 64))} = {float(lf.burgess_target(Fraction(7, 64))):.6f}")
print()
print("note: the desk-scale fitted exponent tracks the growth of the family")
print("maximum (about q characters per modulus), not the per-character bound;")
print("see README for why it sits near 0.25-0.3 on small windows.")
