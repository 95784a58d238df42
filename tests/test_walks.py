"""Pinned outputs of every formula walk, and walks over deep input.

The digests hash, over one fixed corpus, the printed text, free variables and
largest variable index of each formula; substitution over a grid of (v, t)
with terms that reuse bound indices, so both the capture renaming and the
bounded-capture renaming fire; and the negation normal forms, prenex forms and
classes.  A change to any walk that alters one output byte, one fresh binder
index included, changes a digest.
"""

import hashlib
import random

import pytest

from conseq.coding import encode, encode_proof
from conseq.gen import random_formula
from conseq.hierarchy import _nnf, classify, prenex
from conseq.semantics import FALSE, Proof, Step, _infer_witness, eval_formula
from conseq.sequences import index_sequence, pi_slice_sequence, sigma_slice_sequence, visser_sequence
from conseq.syntax import (
    ZERO,
    Add,
    All,
    And,
    DAtom,
    EqAtom,
    Ex,
    Not,
    Or,
    Succ,
    Var,
    code_literal,
    free_vars,
    max_var,
    numeral,
    parse_formula,
    print_formula,
    substitute,
)
from conseq.theories import standard_theory

# terms substituted in the grid: closed ones, and ones that hold indices the
# random formulas bind (0..7) and the construction taus bind (2..11)
_TERMS = (ZERO, numeral(2), Var(1), Var(3), Succ(Var(5)), Add(Var(0), Var(7)), Add(Var(2), Var(11)))


def _taus():
    ea = standard_theory("EA")
    return [spec.tau for spec in (visser_sequence(ea), sigma_slice_sequence(2, ea), pi_slice_sequence(2, ea), index_sequence(2, ea))]


def _corpus():
    rng = random.Random(20261020)
    return [random_formula(rng, 4, [0, 1, 2]) for _ in range(2000)] + _taus()


def _digests():
    h = {name: hashlib.sha256() for name in ("fold", "substitute", "prenex")}

    def row(name, text):
        h[name].update(text.encode() + b"\n")

    for f in _corpus():
        row("fold", f"{print_formula(f)} {sorted(free_vars(f))} {max_var(f)}")
        for v in (0, 1, 2):
            for t in _TERMS:
                try:
                    text = print_formula(substitute(f, v, t))
                except ValueError as e:
                    text = type(e).__name__
                row("substitute", text)
        row("prenex", print_formula(_nnf(f, False)))
        row("prenex", print_formula(_nnf(f, True)))
        row("prenex", f"{print_formula(prenex(f))} {classify(f).text()}")
    return {name: x.hexdigest() for name, x in h.items()}


WALK_DIGESTS = {
    "fold": "fbd9605854dabcc91a6b8f8bde18a09c2a2855b3bba897e4184f4695b81162bb",
    "substitute": "7ad1ca9b6c7d3651bd8533337f59b6afbaa35c07a40c600aca1b206de657caa0",
    "prenex": "854f65079dbf42ee0b072ca967dc78b00bce3dc81967bd0daceac43f63fa4e43",
}


def test_walk_digests():
    assert _digests() == WALK_DIGESTS


@pytest.mark.parametrize("text", ["P()", "F[1]()", "(P()->Q())", "~F[{Q()}]()", "F[{R()}](x0,0)"])
def test_zero_argument_atoms_print_and_parse_back(text):
    f = parse_formula(text)
    assert print_formula(f) == repr(f) == text
    assert parse_formula(print_formula(f)) == f


def test_repr_of_a_zero_argument_atom():
    assert repr(DAtom("P", (), ())) == "P()"


# ---------------------------------------------------------------------------
# Deep input: every walk runs on an explicit stack


DEPTH = 3000


def _nest(inner, wrap):
    for _ in range(DEPTH):
        inner = wrap(inner)
    return inner


X0, X1 = Var(0), Var(1)
# D: a /\ chain ending in E x1. x1=x0;  N: nested E x5 over x0=x0
D = _nest(Ex(1, EqAtom(X1, X0)), lambda g: And(EqAtom(X0, X0), g))
N = _nest(EqAtom(X0, X0), lambda g: Ex(5, g))


def test_deep_substitute():
    assert substitute(_nest(EqAtom(X0, X0), Not), 0, ZERO) == _nest(EqAtom(ZERO, ZERO), Not)
    assert substitute(D, 0, ZERO) == _nest(Ex(1, EqAtom(X1, ZERO)), lambda g: And(EqAtom(ZERO, ZERO), g))
    # x5 would be captured at every level, so every binder is renamed to x6
    assert substitute(N, 0, Var(5)) == _nest(EqAtom(Var(5), Var(5)), lambda g: Ex(6, g))


X2, X3 = Var(2), Var(3)


@pytest.mark.parametrize(
    "f,nnf,nnf_neg,pnf",
    [
        (
            All(0, _nest(Ex(1, EqAtom(X1, X0)), Not)),
            All(0, Ex(1, EqAtom(X1, X0))),
            Ex(0, All(1, Not(EqAtom(X1, X0)))),
            All(2, Ex(3, EqAtom(X3, X2))),
        ),
        (
            All(0, D),
            All(0, D),
            Ex(0, _nest(All(1, Not(EqAtom(X1, X0))), lambda g: Or(Not(EqAtom(X0, X0)), g))),
            All(2, Ex(3, _nest(EqAtom(X3, X2), lambda g: And(EqAtom(X2, X2), g)))),
        ),
    ],
    ids=["negations", "conjunctions"],
)
def test_deep_prenex(f, nnf, nnf_neg, pnf):
    assert _nnf(f, False) == nnf
    assert _nnf(f, True) == nnf_neg
    assert prenex(f) == pnf


def test_deep_prenex_of_negated_existentials():
    assert _nnf(N, False) == N
    # ~N is N's dual: the universals are pulled out, each to a fresh variable
    out = Not(EqAtom(X0, X0))
    for v in range(DEPTH + 5, 5, -1):
        out = All(v, out)
    assert prenex(Not(N)) == out


def test_deep_repr_is_the_printed_text():
    f = _nest(EqAtom(X0, X0), Not)
    assert repr(f) == print_formula(f) == "~" * DEPTH + "x0=x0"
    for tau in _taus():
        assert repr(tau) == print_formula(tau)


# a code literal 3,000 term nodes deep
L = code_literal(2**1500 + 12345)


def test_prfsub_over_a_deep_literal():
    base = EqAtom(Add(X0, L), L)
    proof = Proof((Step(substitute(base, 0, numeral(3)), ("axiom",)),))
    f = DAtom("PrfSub", ("EA",), (code_literal(encode_proof(proof)), code_literal(encode(base)), numeral(3)))
    assert eval_formula(f, 10) == FALSE


def test_infer_witness_past_a_deep_literal():
    body = EqAtom(Add(L, X0), ZERO)
    assert _infer_witness(body, 0, substitute(body, 0, numeral(2))) == Succ(Succ(ZERO))
