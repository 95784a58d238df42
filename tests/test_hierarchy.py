import random

import pytest

from conseq import hierarchy
from conseq.gen import class_formula, random_formula
from conseq.hierarchy import (
    Delta0,
    PatternError,
    Pi,
    Sigma,
    class_leq,
    classify,
    collection_rewrite,
    is_elementary,
    prenex,
)
from conseq.semantics import eval_formula, eval_sentence
from conseq.syntax import (
    Add,
    All,
    And,
    BAll,
    DAtom,
    EqAtom,
    Ex,
    LeAtom,
    Not,
    Var,
    free_vars,
    numeral,
    parse_formula,
)
from conseq.theories import ncon_formula, standard_theory


def test_delta0():
    assert classify(parse_formula("0=0")) == Delta0()
    assert classify(parse_formula("E x1<=x0. x1=x0")) == Delta0()


def test_class_formula_generator_is_exact():
    for kind in ("Sigma", "Pi"):
        for level in range(0, 4):
            for i in range(5):
                f = class_formula(kind, level, i)
                got = classify(f)
                if level == 0:
                    assert got == Delta0()
                else:
                    assert got == (Sigma(level) if kind == "Sigma" else Pi(level))


def test_ncon_is_pi_n_plus_1():
    ea = standard_theory("EA")
    for n in range(6):
        assert classify(ncon_formula(n, ea)) == Pi(n + 1)


def test_declared_atom_dominates():
    f = DAtom("TrueSigma", (2,), (Var(0),))
    assert classify(f) == Sigma(2)  # quantifier-free, declared class wins


def test_negation_duality_on_prenex():
    rng = random.Random(13)
    for _ in range(300):
        f = random_formula(rng, 5, [0, 1])
        p = prenex(f)
        c, cn = classify(p), classify(Not(p))
        if c.kind == "Delta":
            assert cn.kind == "Delta"
        else:
            assert cn.level == c.level and cn.kind != c.kind


def test_classify_alpha_invariant():
    f = All(0, Ex(1, EqAtom(Add(Var(0), Var(1)), Var(2))))
    g = All(5, Ex(6, EqAtom(Add(Var(5), Var(6)), Var(2))))
    assert classify(f) == classify(g)


def test_prenex_already_prenex_unchanged():
    f = parse_formula("A x0. E x1<=x0. x1=x0")
    assert prenex(f) is f
    g = All(0, Ex(1, EqAtom(Var(0), Var(1))))
    assert prenex(g) is g


def test_prenex_merges_universals():
    f = And(All(0, EqAtom(Var(0), Var(0))), All(1, LeAtom(Var(1), Var(1))))
    p = prenex(f)
    assert isinstance(p, All) and isinstance(p.body, All)
    assert isinstance(p.body.body, And)
    assert classify(p) == Pi(1)


def test_prenex_never_increases_class():
    # guarantee scoped to Delta-0-atom formulas: higher declared atoms are
    # opaque to quantifier extraction (see the prenex module notes)
    rng = random.Random(17)
    for _ in range(500):
        f = random_formula(rng, 5, [0, 1], datoms=False)
        assert class_leq(classify(prenex(f)), classify(f))


def test_prenex_evaluation_agreement():
    # agreement among decided verdicts; small depth and budget keep nested
    # unbounded scans cheap
    rng = random.Random(19)
    agree = 0
    for _ in range(500):
        f = random_formula(rng, 3, [0], datoms=False)
        for v in sorted(free_vars(f)):
            f = All(v, f)
        a = eval_sentence(f, 8)
        b = eval_sentence(prenex(f), 8)
        if a.is_decided() and b.is_decided():
            assert a == b
            agree += 1
    assert agree > 50


def test_collection_rewrite_basic():
    pi_part = All(5, Not(EqAtom(Add(Var(5), Var(1)), Var(0))))
    pat = BAll(0, Var(2), Ex(1, pi_part))
    out, cls = collection_rewrite(pat, "BSigma2")
    assert cls == Pi(1, modulo="BSigma2")
    assert cls.modulo == "BSigma2"
    assert isinstance(out, Ex)
    assert classify(out) == Sigma(2)


def test_collection_rewrite_vacuous_block_unchanged():
    f = Ex(1, All(5, Not(EqAtom(Add(Var(5), Var(1)), Var(0)))))
    out, cls = collection_rewrite(f, "BSigma2")
    assert out is f
    assert cls == Pi(1, modulo="BSigma2")


def test_collection_rewrite_pattern_error():
    with pytest.raises(PatternError):
        collection_rewrite(parse_formula("0=0"), "BSigma2")


def test_collection_rewrite_eval_agreement():
    rng = random.Random(43)
    agreed = 0
    for trial in range(200):
        k_hi = rng.randrange(0, 4)
        c = rng.randrange(0, 4)
        # A k<=k_hi E y (y = k + c), trivially inhabited at small witnesses
        pat = BAll(0, numeral(k_hi), Ex(1, EqAtom(Var(1), Add(Var(0), numeral(c)))))
        out, _ = collection_rewrite(pat, "BSigma1")
        a = eval_formula(pat, 60, {})
        b = eval_formula(out, 60, {})
        if a.is_decided() and b.is_decided():
            assert a == b
            agreed += 1
    assert agreed >= 150


def test_is_elementary():
    assert is_elementary(parse_formula("E x1<=x0. x1=x0"))
    assert not is_elementary(parse_formula("E x1. x1=x0"))
    assert is_elementary(DAtom("AxOf", ("EA",), (Var(0),)))


def _mins_work(monkeypatch, n):
    """Total size of the formulas passed to hierarchy._mins in one prenex of n
    nested bounded universals over a Sigma-1 body."""
    f = Ex(0, EqAtom(Var(0), Var(1)))
    for _ in range(n):
        f = BAll(2, Var(1), f)
    mins, seen = hierarchy._mins, []
    monkeypatch.setattr(hierarchy, "_mins", lambda g, *rest: seen.append(g.size) or mins(g, *rest))
    prenex(f)
    monkeypatch.setattr(hierarchy, "_mins", mins)
    return sum(seen)


def test_prenex_is_linear_in_bounded_nesting(monkeypatch):
    # classifying each bounded scope afresh made the work quadratic (ratio 4)
    assert _mins_work(monkeypatch, 400) / _mins_work(monkeypatch, 200) < 2.5
