"""Exact weight-enumerator workbench for linear codes over small finite fields.

Submodules
----------

    field         F_q, q = p^m <= 16: elements are indices, arithmetic is table lookups
    cyclotomic    exact Z[zeta_p] values packed into ints; the additive character chi
    codes         linear codes in rref form, duals, monomial matrices, code files
    compositions  composition profiles (tuples) and the {profile: count} census
    polynomials   sparse enumerators, character-sum transforms, serialization
    averages      monomial-group averages: brute force, closed form, comparator
    verify        claim sweeps with replayable reports
    cli           command-line front end

Everything is exact: coefficients are rationals, characters live in
Z[zeta_p], and equality of results is literal equality of canonical forms.
"""

from .capacity import CapacityError, DEFAULT_BUDGET, check_budget
from .field import DEFAULT_POLYS, FieldSpec, field_for_q, is_prime
from .cyclotomic import chi, packing
from .codes import (
    CodeFileError,
    LinearCode,
    MonomialMatrix,
    all_codes,
    apply_monomial_code,
    format_code_file,
    monomial_group,
    monomial_group_order,
    parse_code_file,
    random_code,
)
from .compositions import census, iter_compositions
from .polynomials import (
    EnumeratorPolynomial,
    cjwe,
    cwe,
    gfold_cjwe,
    macwilliams_transform,
)
from .averages import (
    AverageReport,
    Lemma31Result,
    Lemma42Result,
    avg_cjwe_bruteforce,
    avg_cjwe_closedform,
    avg_gfold_bruteforce,
    avg_gfold_closedform,
    avg_macwilliams,
    check_lemma31,
    check_lemma42,
    compare,
)
from .verify import CLAIMS, ClaimCheck, run_claim

__version__ = "0.1.0"
