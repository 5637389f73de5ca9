"""Small finite fields and their additive characters.

Builds F_4 and F_9, walks through the canonical element order, exact
arithmetic through the field's lookup tables, and the character values
chi(a) = zeta_p ** a_0, ending with the orthogonality relation that powers
every transform identity.
"""

from weightenum import FieldSpec, chi, packing


def digits(spec, i):
    """The coordinates (a_0, ..., a_{m-1}) of element i: its base-p digits."""
    return tuple(i // spec.p**j % spec.p for j in range(spec.m))


# F_4 = F_2[x] / (x^2 + x + 1).  An element is its index a0 + 2*a1 in
# [0, 4), where (a0, a1) are its coordinates in the basis 1, lam:
# 0, 1, lam, lam+1.
f4 = FieldSpec(2, 2)
print("F_4 canonical order (index = a0 + 2*a1):")
for i in range(f4.q):
    print(f"  index {i}: digits {digits(f4, i)}")

# All arithmetic is table lookups on indices; lam is index p = 2.
lam = f4.p
print("\nlam * lam =", digits(f4, f4.mul_table[lam][lam]), "(the reduction of x^2 mod x^2+x+1)")
print("lam^-1    =", digits(f4, f4.inv_table[lam]))

# The character only sees the constant coordinate, so chi(lam) = 1.  For
# p = 2, zeta_2 = -1 and character values are plain ints.
zeta, reduce, value = packing(f4.p, f4.q)
chi4 = chi(f4, zeta)
print("\nchi(lam)   =", chi4[lam])
print("chi(1)     =", chi4[1])

# F_9 with the default polynomial x^2 + x + 2; characters land in Z[zeta_3],
# packed into one int with a balanced digit per power of zeta_3.  The
# bound q leaves room for the sums of q character values below.
f9 = FieldSpec(3, 2)
zeta, reduce, value = packing(f9.p, f9.q)
chi9 = chi(f9, zeta)
print("\nF_9 character values:")
for i in range(f9.q):
    print(f"  chi(index {i}) = zeta_3^{zeta.index(chi9[i])}")

# Orthogonality: summing chi(omega * alpha) over all omega gives q when
# alpha = 0 and cancels to exactly zero otherwise; value() reads the sum
# back as an integer and would refuse a non-rational one.
print("\nOrthogonality over F_9:")
for alpha in range(4):
    total = sum(chi9[f9.mul_table[omega][alpha]] for omega in range(f9.q))
    print(f"  alpha index {alpha}: sum = {value(total)}")
