"""conseq: arithmetized reflection principles, Goedel coding, and descending
consistency sequences at desk scale.

Library layers (import order is the dependency order):
  refs       -- structured theory references
  registry   -- designated-atom declarations
  syntax     -- terms/formulas, parsing, printing, substitution
  coding     -- Goedel numbering, sequences, code-level functions
  hierarchy  -- classification, prenexing, collection rewrite
  gen        -- deterministic formula streams
  theories   -- presentations and reflection builders
  craig      -- padding and elementary presentations
  diagonal   -- fixed points (self-reference)
  semantics  -- budgeted three-valued evaluation and the proof checker
  sequences  -- the four constructions, shift, DS sentences
"""

import sys as _sys

# Goedel codes are printed and parsed as decimal naturals far beyond the
# interpreter's default int<->str conversion guard.
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(40_000_000)

from . import coding, craig, diagonal, gen, hierarchy, refs, registry, semantics, sequences, syntax, theories
from .coding import decode, encode, machine_index, seq_at, seq_encode, subst_code
from .diagonal import FixedPointResult, fixed_point, verify_fixed_point
from .hierarchy import ComplexityClass, Delta0, Pi, Sigma, classify, collection_rewrite, is_elementary, prenex
from .semantics import (
    FALSE,
    Proof,
    Step,
    TRUE,
    TV3,
    UNKNOWN,
    check_proof,
    decode_proof,
    encode_proof,
    eval_formula,
    eval_prf,
    eval_sentence,
    eval_truth,
    proof_from_text,
    proof_to_text,
)
from .sequences import (
    SequenceSpec,
    ds_components,
    ds_sentence,
    index_of,
    index_sequence,
    pi_slice_sequence,
    shift,
    sigma_slice_sequence,
    slice_axioms,
    slice_contains,
    visser_sequence,
)
from .syntax import (
    Formula,
    Term,
    code_literal,
    falsum,
    free_vars,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    substitute,
)
from .theories import (
    TheoryPresentation,
    con_formula,
    con_of_slice,
    extend,
    iter_ncon,
    m_omega_theory,
    ncon_formula,
    ncon_of_slice,
    pr_formula,
    prf_formula,
    rfn_gamma_formula,
    standard_theory,
    truth_predicate,
)

__version__ = "0.1.0"
