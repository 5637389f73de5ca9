"""Complete, joint and g-fold weight enumerators.

Every enumerator is a sparse homogeneous polynomial with exact rational
coefficients; its coefficient at an exponent vector is the number of
codeword tuples with that composition profile.
"""

from weightenum import (
    EnumeratorPolynomial,
    FieldSpec,
    LinearCode,
    census,
    cjwe,
    cwe,
    gfold_cjwe,
)

f2 = FieldSpec(2, 1)
f3 = FieldSpec(3, 1)

rep = LinearCode(f2, 2, [(1, 1)])
sel = LinearCode(f2, 2, [(0, 1)])

print("cwe of {00, 11}:", cwe(rep).pretty())
print("cjwe of ({00,11}, {00,01}):", cjwe(rep, sel).pretty())

# Coefficients agree with the census counts by construction.
span = LinearCode(f3, 2, [(1, 1)])
poly = cwe(span)
cen = census([span])
print("\ncwe of F_3 span{(1,1)}:", poly.pretty())
print("census counts:", dict(sorted(cen.items())))

# The joint enumerator against the zero code collapses to the plain one:
# only cells (a, 0), at indices 3a, occur, and dropping the second index
# gives the cwe's terms.
zero = LinearCode(f3, 2, [])
joint = cjwe(span, zero)
only_a0 = all(e[i] == 0 for e in joint.terms for i in range(9) if i % 3)
collapsed = {e[::3]: c for e, c in joint.terms.items()}
print("\ncjwe against the zero code collapses to the cwe:", only_a0 and collapsed == poly.terms)

# Three codes at once: variables are indexed by cells of F_q^3.
triple = gfold_cjwe([rep, sel, rep])
print("\n3-fold enumerator of ({00,11}, {00,01}, {00,11}):")
print(" ", triple.pretty())
print("mass at all-ones:", triple.evaluate_at_ones(), "= product of sizes", rep.size * sel.size * rep.size)

# Serialization is canonical and round-trips bit-exactly.
text = poly.to_text()
print("\ncanonical document round-trips:", EnumeratorPolynomial.from_text(text).to_text() == text)
