"""Small finite fields and their additive characters.

Builds F_4 and F_9, walks through the canonical element order, exact
arithmetic, and the character values chi(a) = zeta_p ** a_0, ending with
the orthogonality relation that powers every transform identity.
"""

from weightenum import FieldSpec, chi, packing

# F_4 = F_2[x] / (x^2 + x + 1).  Elements are coefficient vectors (a0, a1)
# with canonical index a0 + 2*a1: 0, 1, lam, lam+1.
f4 = FieldSpec(2, 2)
print("F_4 canonical order:")
for e in f4.element_order():
    print(f"  index {e.index}: coeffs {e.coeffs}")

lam = f4.element(2)
print("\nlam * lam =", (lam * lam).coeffs, "(the reduction of x^2 mod x^2+x+1)")
print("lam^-1    =", lam.inverse().coeffs)

# The character only sees the constant coordinate, so chi(lam) = 1.  For
# p = 2, zeta_2 = -1 and character values are plain ints.
zeta, reduce, value = packing(f4.p, f4.q)
chi4 = chi(f4, zeta)
print("\nchi(lam)   =", chi4[lam.index])
print("chi(1)     =", chi4[f4.one.index])

# F_9 with the default polynomial x^2 + x + 2; characters land in Z[zeta_3],
# packed into one int with a balanced digit per power of zeta_3.  The
# bound q leaves room for the sums of q character values below.
f9 = FieldSpec(3, 2)
zeta, reduce, value = packing(f9.p, f9.q)
chi9 = chi(f9, zeta)
print("\nF_9 character values:")
for e in f9.element_order():
    print(f"  chi(index {e.index}) = zeta_3^{zeta.index(chi9[e.index])}")

# Orthogonality: summing chi(omega * alpha) over all omega gives q when
# alpha = 0 and cancels to exactly zero otherwise; value() reads the sum
# back as an integer and would refuse a non-rational one.
print("\nOrthogonality over F_9:")
for alpha in f9.element_order()[:4]:
    total = sum(chi9[(omega * alpha).index] for omega in f9.element_order())
    print(f"  alpha index {alpha.index}: sum = {value(total)}")
