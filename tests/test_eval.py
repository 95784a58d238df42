import random

import pytest

import second_verifier
from conseq import coding, refs, registry, theories
from conseq.craig import equivalence_certificates, pad_conjunction
from conseq.gen import random_decidable_sentence, random_formula
from conseq.hierarchy import Pi, Sigma
from conseq.semantics import (
    FALSE,
    TRUE,
    UNKNOWN,
    EvalError,
    Proof,
    Step,
    check_proof,
    decode_proof,
    encode_proof,
    eval_formula,
    eval_prf,
    eval_sentence,
    eval_truth,
    kleene_and,
    kleene_or,
    logical_instance,
)
from conseq.syntax import (
    VALUE_BIT_CAP,
    All,
    And,
    BAll,
    BEx,
    DAtom,
    EqAtom,
    Ex,
    Exp,
    Imp,
    LeAtom,
    Not,
    Or,
    Succ,
    Var,
    ZERO,
    code_literal,
    falsum,
    numeral,
    parse_formula,
)
from conseq.theories import standard_theory


def test_basic_verdicts():
    assert eval_sentence(parse_formula("0=0"), 10) == TRUE
    assert eval_sentence(Ex(0, EqAtom(Succ(Var(0)), ZERO)), 1000) == UNKNOWN
    nine = numeral(9)
    # falsified by the counterexample 10 within budget
    assert eval_sentence(All(0, LeAtom(Var(0), nine)), 50) == FALSE
    # true but only confirmable to the budget
    assert eval_sentence(All(0, LeAtom(Var(0), Succ(Var(0)))), 50) == UNKNOWN
    from conseq.syntax import BAll

    assert eval_sentence(BAll(0, nine, LeAtom(Var(0), nine)), 50) == TRUE


def test_open_formula_rejected():
    with pytest.raises(EvalError):
        eval_sentence(parse_formula("x0=0"), 10)


def test_kleene_laws():
    vals = [TRUE, FALSE, UNKNOWN]
    for a in vals:
        assert a.negate().negate() == a
        for b in vals:
            assert kleene_and(a, b) == kleene_or(a.negate(), b.negate()).negate()


def test_connective_eval_matches_tables():
    t, f = parse_formula("0=0"), parse_formula("0=S(0)")
    u = Ex(0, EqAtom(Succ(Var(0)), ZERO))  # unknown at any budget
    cases = {(t, TRUE), (f, FALSE), (u, UNKNOWN)}
    for fa, va in cases:
        assert eval_sentence(Not(fa), 20) == va.negate()
        for fb, vb in cases:
            assert eval_sentence(And(fa, fb), 20) == kleene_and(va, vb)
            assert eval_sentence(Or(fa, fb), 20) == kleene_or(va, vb)
            assert eval_sentence(Imp(fa, fb), 20) == kleene_or(va.negate(), vb)


def test_budget_monotonicity_random():
    rng = random.Random(97)
    for _ in range(300):
        f = random_decidable_sentence(rng)
        prev = None
        for b in (10, 100, 1000):
            v = eval_sentence(f, b)
            if prev is not None and prev.is_decided():
                assert v == prev
            prev = v


def test_eval_truth_contract():
    code_true = coding.encode(parse_formula("0=0"))
    assert eval_truth(Pi(1), code_true, 10) == TRUE
    assert eval_truth(Sigma(2), code_true, 10) == TRUE
    assert eval_truth(Pi(1), coding.encode(falsum()), 10) == FALSE
    # class mismatch is false, not unknown
    sigma1 = parse_formula("E x0. x0=0")
    assert eval_truth(Pi(0), coding.encode(sigma1), 10) == FALSE
    # non-codes are false
    assert eval_truth(Pi(1), 7, 10) == FALSE
    # Pi-1 sentence undecided at small budget
    pi1 = All(0, LeAtom(Var(0), Succ(Var(0))))
    assert eval_truth(Pi(1), coding.encode(pi1), 10) == UNKNOWN


# ---------------------------------------------------------------------------
# Proof checking


def _i_proof(a):
    """The 5-step K/S derivation of a -> a."""
    aa = Imp(a, a)
    k1 = Imp(a, Imp(aa, a))
    s1 = Imp(k1, Imp(Imp(a, aa), aa))
    k2 = Imp(a, aa)
    return Proof(
        (
            Step(k1, ("logical", "K")),
            Step(s1, ("logical", "S")),
            Step(Imp(k2, aa), ("mp", 1, 0)),
            Step(k2, ("logical", "K")),
            Step(aa, ("mp", 2, 3)),
        )
    )


def test_check_proof_mp_chain():
    a = parse_formula("0=0")
    q = standard_theory("Q")
    assert check_proof(q, _i_proof(a), Imp(a, a))


def test_check_proof_rejects_dangling_index():
    a = parse_formula("0=0")
    p = Proof((Step(a, ("mp", 0, 1)),))
    assert not check_proof(standard_theory("Q"), p, a)


@pytest.mark.parametrize(
    "steps",
    [
        (Step(All(0, parse_formula("0=0")), ("gen", "x")),),
        (Step(parse_formula("0=0"), ("logical", "EQ-REFL")), Step(parse_formula("0=0"), ("mp", 0, None))),
    ],
    ids=["gen-str", "mp-none"],
)
def test_check_proof_rejects_a_step_index_that_is_not_an_int(steps):
    assert not check_proof(standard_theory("Q"), Proof(steps), steps[-1].formula)


def test_check_proof_rejects_wrong_goal():
    a = parse_formula("0=0")
    p = Proof((Step(a, ("logical", "EQ-REFL")),))
    assert not check_proof(standard_theory("Q"), p, parse_formula("0<=0"))


def test_theory_axiom_proof():
    q = standard_theory("Q")
    ax = q.enumerator(3)
    p = Proof((Step(ax, ("axiom",)),))
    assert check_proof(q, p, ax)
    assert not check_proof(standard_theory("ZFstub"), p, ax)


def test_generalization():
    q = standard_theory("Q")
    body = EqAtom(Var(0), Var(0))
    p = Proof((Step(body, ("logical", "EQ-REFL")), Step(All(0, body), ("gen", 0))))
    assert check_proof(q, p, All(0, body))


def test_all_e_instance():
    q = standard_theory("Q")
    ax = q.enumerator(3)  # A x0. x0+0 = x0
    from conseq.syntax import substitute

    inst = Imp(ax, substitute(ax.body, ax.var, numeral(2)))
    p = Proof(
        (
            Step(ax, ("axiom",)),
            Step(inst, ("logical", "ALL-E")),
            Step(inst.right, ("mp", 1, 0)),
        )
    )
    assert check_proof(q, p, inst.right)


# ---------------------------------------------------------------------------
# Corpus agreement: main checker vs the independent second verifier


def _corpus():
    """100 proofs, valid and mutated, deterministic."""
    rng = random.Random(1234)
    q = standard_theory("Q")
    b1 = standard_theory("BSigma1")
    proofs = []
    a = parse_formula("0=0")
    b = parse_formula("0<=S(0)")
    proofs.append((q, _i_proof(a), Imp(a, a)))
    proofs.append((q, _i_proof(b), Imp(b, b)))
    for i in range(6):
        phi = b1.enumerator(i)
        pad = pad_conjunction(phi, i + 1)
        fwd, bwd = equivalence_certificates(b1, i)
        proofs.append((b1, fwd, Imp(pad, phi)))
        proofs.append((b1, bwd, Imp(phi, pad)))
    for i in range(6):
        ax = q.enumerator(i % 8)
        proofs.append((q, Proof((Step(ax, ("axiom",)),)), ax))
    base = list(proofs)
    # mutations: wrong goal, wrong scheme tag, dangling mp, foreign axiom
    for i, (t, p, g) in enumerate(base):
        if len(proofs) >= 50:
            break
        proofs.append((t, p, parse_formula("0=S(0)")))
        steps = list(p.steps)
        j = i % len(steps)
        st = steps[j]
        if st.just[0] == "logical":
            steps[j] = Step(st.formula, ("logical", "OR-E"))
        elif st.just[0] == "axiom":
            steps[j] = Step(st.formula, ("logical", "K"))
        else:
            steps[j] = Step(st.formula, ("mp", len(steps) + 3, 0))
        proofs.append((t, Proof(tuple(steps)), g))
    while len(proofs) < 100:
        f = random_formula(rng, 3, [0])
        proofs.append((q, Proof((Step(f, ("logical", "K")),)), f))
    return proofs[:100]


def test_main_checker_agrees_with_second_verifier():
    from conseq.semantics import axiom_membership

    corpus = _corpus()
    assert len(corpus) == 100
    agreements = 0
    accepted = 0
    for t, p, g in corpus:
        main = check_proof(t, p, g)
        oracle = second_verifier.verify(
            lambda f, t=t: axiom_membership(t.ref, f, 64).is_true(), p, g
        )
        assert main == oracle
        agreements += 1
        accepted += int(main)
    assert agreements == 100
    assert 10 <= accepted <= 90  # the corpus mixes valid and broken proofs


def test_eval_prf_agrees_with_second_verifier():
    from conseq.semantics import axiom_membership

    for t, p, g in _corpus():
        got = eval_prf(t, encode_proof(p), coding.encode(g))
        oracle = second_verifier.verify(
            lambda f, t=t: axiom_membership(t.ref, f, 64).is_true(), p, g
        )
        assert got.is_decided()
        assert got.is_true() == oracle


def test_proof_coding_roundtrip():
    for _, p, _ in _corpus()[:20]:
        assert decode_proof(encode_proof(p)) == p


def test_proof_text_roundtrip():
    from conseq.semantics import proof_from_text, proof_to_text

    for _, p, _ in _corpus()[:20]:
        text = proof_to_text(p)
        assert all(line.startswith("step ") for line in text.splitlines())
        assert proof_from_text(text) == p


def test_eval_prf_on_junk():
    q = standard_theory("Q")
    assert eval_prf(q, 0, coding.encode(parse_formula("0=0"))) == FALSE
    assert eval_prf(q, 12345, 67890) == FALSE


# ---------------------------------------------------------------------------
# Pinned verdicts of the proof and truth atoms, evaluated end to end with
# every argument written as a code literal, and of quantifiers guarded by a
# functional-graph atom


def _verdict_cases():
    enc = coding.encode

    def atom(name, params, args):  # built when the row runs: code literals of proofs are large
        return lambda: DAtom(name, params, tuple(code_literal(v) for v in args))

    def axiom_proof(f):
        return encode_proof(Proof((Step(f, ("axiom",)),)))

    a, b = parse_formula("0=0"), parse_formula("0<=0")
    ga, gb = enc(a), enc(b)
    pa = encode_proof(Proof((Step(a, ("logical", "EQ-REFL")),)))
    pb = axiom_proof(b)
    q_ax = standard_theory("Q").enumerator(3)
    q0 = standard_theory("Q").enumerator(0)
    junk = 12345  # no sentinel byte: not a code of anything

    # a level-1 machine description and its inserted reflection sentence
    y = coding.machine_index(0, 0, enc(parse_formula("x0=x1")), 1)
    mach_sent = theories.machine_stream(y)(3)
    b1_ax = standard_theory("BSigma1").enumerator(1)

    ex_goal = parse_formula("E x0. x0=0")
    ext_q = refs.Ext(refs.Named("Q"), enc(ex_goal))
    unary = parse_formula("x0=0")

    base = parse_formula("x0=x0")
    three = numeral(3)
    p_three = encode_proof(Proof((Step(EqAtom(three, three), ("logical", "EQ-REFL")),)))

    marker = theories.marker_sentence("BSigma1")
    sig2 = parse_formula("x0=x1")
    inhab_goal = Ex(1, parse_formula("S(S(S(0)))=x1"))  # sigma at x0 := numeral(2+1)
    refl_goal = All(
        0,
        Imp(
            DAtom("TrueClAt", ("Sigma", 1), (code_literal(enc(sig2)), code_literal(3), Var(0))),
            theories.ncon_sent_of(2, Var(0), 1),
        ),
    )
    connum_goal = theories.ncon_sent_of(2, code_literal(ga), 0)

    s = code_literal(coding.seq_encode([500, 7]))

    def seq_at(k):
        return DAtom("SeqAt", (), (s, numeral(k), Var(0)))

    le_500 = LeAtom(Var(0), code_literal(500))
    past_cap = Exp(numeral(2), code_literal(VALUE_BIT_CAP))  # overflows term_value

    T, F, U = TRUE, FALSE, UNKNOWN
    return [
        # Prf[ref](p, g)
        ("prf-axiom", atom("Prf", ("Q",), (axiom_proof(q_ax), enc(q_ax))), T),
        ("prf-logical", atom("Prf", ("ZFstub",), (pa, ga)), T),
        ("prf-foreign-axiom", atom("Prf", ("ZFstub",), (axiom_proof(q_ax), enc(q_ax))), F),
        ("prf-wrong-goal", atom("Prf", ("Q",), (pa, gb)), F),
        ("prf-noncode", atom("Prf", ("Q",), (junk, ga)), F),
        # PrfX[ref](p, g, e): ref axioms plus the sentence e
        ("prfx-extra", atom("PrfX", ("ZFstub",), (pb, gb, gb)), T),
        ("prfx-theory", atom("PrfX", ("Q",), (axiom_proof(q_ax), enc(q_ax), ga)), T),
        ("prfx-false", atom("PrfX", ("ZFstub",), (pb, gb, ga)), F),
        ("prfx-noncode", atom("PrfX", ("Q",), (junk, gb, gb)), F),
        # PrfSent(p, g, s) and PrfSentX(p, g, s, e)
        ("prfsent-true", atom("PrfSent", (), (pb, gb, gb)), T),
        ("prfsent-false", atom("PrfSent", (), (pb, gb, ga)), F),
        ("prfsent-noncode", atom("PrfSent", (), (pb, junk, gb)), F),
        ("prfsentx-s", atom("PrfSentX", (), (pb, gb, gb, ga)), T),
        ("prfsentx-e", atom("PrfSentX", (), (pb, gb, ga, gb)), T),
        ("prfsentx-false", atom("PrfSentX", (), (pb, gb, ga, ga)), F),
        ("prfsentx-noncode", atom("PrfSentX", (), (junk, gb, gb, gb)), F),
        # PrfMachX(p, g, y, e): machine-coded theory y plus the sentence e
        ("prfmachx-extra", atom("PrfMachX", (), (pb, gb, y, gb)), T),
        ("prfmachx-base", atom("PrfMachX", (), (axiom_proof(b1_ax), enc(b1_ax), y, ga)), T),
        ("prfmachx-stream", atom("PrfMachX", (), (axiom_proof(mach_sent), enc(mach_sent), y, ga)), T),
        ("prfmachx-false", atom("PrfMachX", (), (pb, gb, y, ga)), F),
        ("prfmachx-nonmachine", atom("PrfMachX", (), (axiom_proof(b1_ax), enc(b1_ax), 7, ga)), F),
        ("prfmachx-noncode", atom("PrfMachX", (), (junk, gb, y, gb)), F),
        # PrfIdx[ref](k, g): canonical proof stream
        ("prfidx-axiom", atom("PrfIdx", ("Q",), (0, enc(q0))), T),
        ("prfidx-logical", atom("PrfIdx", ("Q",), (1, enc(logical_instance(0)[0]))), T),
        ("prfidx-false", atom("PrfIdx", ("Q",), (0, ga)), F),
        ("prfidx-noncode", atom("PrfIdx", ("Q",), (0, junk)), F),
        ("prfidx-far", atom("PrfIdx", ("Q",), (1_000_001, ga)), U),
        # PrfEx[ref](k, a): proof of the existential closure of unary a
        ("prfex-true", atom("PrfEx", (ext_q,), (axiom_proof(ex_goal), enc(unary))), T),
        ("prfex-false", atom("PrfEx", ("Q",), (axiom_proof(ex_goal), enc(unary))), F),
        ("prfex-closed", atom("PrfEx", (ext_q,), (axiom_proof(ex_goal), ga)), F),
        ("prfex-noncode", atom("PrfEx", (ext_q,), (junk, enc(unary))), F),
        # PrfSub[ref](p, f, v...): proof of f at the numerals of v...
        ("prfsub-true", atom("PrfSub", ("EA",), (p_three, enc(base), 3)), T),
        ("prfsub-other-value", atom("PrfSub", ("EA",), (p_three, enc(base), 2)), F),
        ("prfsub-arity", atom("PrfSub", ("EA",), (p_three, enc(base))), F),
        ("prfsub-noncode", atom("PrfSub", ("EA",), (junk, enc(base), 3)), F),
        ("prfsub-empty-proof", atom("PrfSub", ("EA",), (encode_proof(Proof(())), enc(base), 0)), F),
        # PrfGoal[goal, thy, ...](p, y, ...)
        ("goal-marker-sent", atom("PrfGoal", ("marker", "sent", "BSigma1"), (axiom_proof(marker), enc(marker))), T),
        ("goal-marker-sent-false", atom("PrfGoal", ("marker", "sent", "BSigma1"), (axiom_proof(marker), ga)), F),
        ("goal-marker-idx", atom("PrfGoal", ("marker", "idx", "BSigma1"), (axiom_proof(marker), y)), T),
        ("goal-marker-idx-false", atom("PrfGoal", ("marker", "idx", "BSigma1"), (axiom_proof(marker), 7)), F),
        ("goal-marker-noncode", atom("PrfGoal", ("marker", "idx", "BSigma1"), (junk, y)), F),
        ("goal-marker-unknown-theory", atom("PrfGoal", ("marker", "sent", "Foo"), (pb, gb)), F),
        ("goal-inhab-sent", atom("PrfGoal", ("inhab", "sent"), (axiom_proof(inhab_goal), enc(inhab_goal), enc(sig2), 2)), T),
        ("goal-inhab-sent-false", atom("PrfGoal", ("inhab", "sent"), (axiom_proof(inhab_goal), enc(inhab_goal), enc(sig2), 1)), F),
        ("goal-inhab-idx", atom("PrfGoal", ("inhab", "idx"), (axiom_proof(inhab_goal), y, enc(sig2), 2)), F),
        ("goal-inhab-far", atom("PrfGoal", ("inhab", "sent"), (axiom_proof(inhab_goal), enc(inhab_goal), enc(sig2), 100_001)), U),
        ("goal-inhab-noncode-sigma", atom("PrfGoal", ("inhab", "sent"), (axiom_proof(inhab_goal), enc(inhab_goal), junk, 2)), F),
        ("goal-inhab-unary-sigma", atom("PrfGoal", ("inhab", "sent"), (axiom_proof(inhab_goal), enc(inhab_goal), enc(unary), 2)), F),
        ("goal-inhab-noncode", atom("PrfGoal", ("inhab", "idx"), (junk, y, enc(sig2), 2)), F),
        ("goal-refl-sent", atom("PrfGoal", ("refl", "sent", 2, "Sigma", 1), (axiom_proof(refl_goal), enc(refl_goal), enc(sig2), 2)), T),
        ("goal-refl-sent-false", atom("PrfGoal", ("refl", "sent", 2, "Sigma", 1), (axiom_proof(refl_goal), enc(refl_goal), enc(sig2), 3)), F),
        ("goal-refl-idx", atom("PrfGoal", ("refl", "idx", 2, "Sigma", 1), (axiom_proof(refl_goal), y, enc(sig2), 2)), F),
        ("goal-refl-noncode", atom("PrfGoal", ("refl", "sent", 2, "Sigma", 1), (junk, enc(refl_goal), enc(sig2), 2)), F),
        ("goal-connum-sent", atom("PrfGoal", ("connum", "sent", 2), (axiom_proof(connum_goal), enc(connum_goal), ga)), T),
        ("goal-connum-sent-false", atom("PrfGoal", ("connum", "sent", 2), (axiom_proof(connum_goal), enc(connum_goal), gb)), F),
        ("goal-connum-idx", atom("PrfGoal", ("connum", "idx", 2), (axiom_proof(connum_goal), y, ga)), F),
        ("goal-connum-noncode", atom("PrfGoal", ("connum", "idx", 2), (junk, y, ga)), F),
        # TrueSigma[n](x) / TruePi[n](x): sentences only
        ("truesigma-true", atom("TrueSigma", (1,), (enc(ex_goal),)), T),
        ("truesigma-false", atom("TrueSigma", (1,), (enc(falsum()),)), F),
        ("truesigma-open", atom("TrueSigma", (1,), (enc(unary),)), F),
        ("truesigma-noncode", atom("TrueSigma", (1,), (junk,)), F),
        ("truepi-true", atom("TruePi", (1,), (enc(parse_formula("A x0<=S(S(S(0))). x0<=S(S(S(0)))")),)), T),
        ("truepi-class", atom("TruePi", (0,), (enc(ex_goal),)), F),
        ("truepi-unknown", atom("TruePi", (1,), (enc(All(0, LeAtom(Var(0), Succ(Var(0))))),)), U),
        ("truepi-noncode", atom("TruePi", (1,), (junk,)), F),
        # TrueSeqAt[kind,n](a, s, k): at most one free variable
        ("trueseqat-true", atom("TrueSeqAt", ("Pi", 0), (enc(parse_formula("x0<=S(S(S(0)))")), coding.seq_encode([2, 5]), 0)), T),
        ("trueseqat-false", atom("TrueSeqAt", ("Pi", 0), (enc(parse_formula("x0<=S(S(S(0)))")), coding.seq_encode([2, 5]), 1)), F),
        ("trueseqat-closed", atom("TrueSeqAt", ("Pi", 0), (ga, coding.seq_encode([2, 5]), 1)), T),
        ("trueseqat-binary", atom("TrueSeqAt", ("Pi", 0), (enc(sig2), coding.seq_encode([2, 5]), 0)), F),
        ("trueseqat-range", atom("TrueSeqAt", ("Pi", 0), (enc(parse_formula("x0<=S(S(S(0)))")), coding.seq_encode([2, 5]), 2)), F),
        ("trueseqat-class", atom("TrueSeqAt", ("Pi", 0), (enc(parse_formula("E x1. x1=x0")), coding.seq_encode([2]), 0)), F),
        ("trueseqat-noncode", atom("TrueSeqAt", ("Pi", 0), (junk, coding.seq_encode([2, 5]), 0)), F),
        ("trueseqat-nonseq", atom("TrueSeqAt", ("Pi", 0), (enc(parse_formula("x0<=S(S(S(0)))")), ga, 0)), F),
        # TrueClAt[kind,n](s, a, b): exactly two free variables
        ("trueclat-true", atom("TrueClAt", ("Sigma", 1), (enc(parse_formula("x0<=x1")), 2, 5)), T),
        ("trueclat-false", atom("TrueClAt", ("Sigma", 1), (enc(parse_formula("x0<=x1")), 5, 2)), F),
        ("trueclat-unary", atom("TrueClAt", ("Sigma", 1), (enc(unary), 0, 0)), F),
        ("trueclat-class", atom("TrueClAt", ("Pi", 0), (enc(parse_formula("E x2. (x2=x0/\\x2=x1)")), 2, 2)), F),
        ("trueclat-noncode", atom("TrueClAt", ("Sigma", 1), (junk, 2, 5)), F),
        # Q x0 (SeqAt(s, k, x0) /\ body), E x0 SeqAt(...) and Q x0 (SeqAt(...) -> body):
        # SeqAt fixes x0 = 500 for k = 0 and has no solution for k = 2, far
        # beyond the budget of 20 that a scan reaches
        ("graph-ex-true", lambda: Ex(0, And(seq_at(0), le_500)), T),
        ("graph-ex-body-false", lambda: Ex(0, And(seq_at(0), Not(le_500))), F),
        ("graph-ex-alone", lambda: Ex(0, seq_at(0)), T),
        ("graph-ex-no-solution", lambda: Ex(0, And(seq_at(2), le_500)), F),
        ("graph-all-false", lambda: All(0, Imp(seq_at(0), Not(le_500))), F),
        ("graph-all-no-solution", lambda: All(0, Imp(seq_at(2), falsum())), T),
        ("graph-bex-in-bound", lambda: BEx(0, numeral(600), And(seq_at(0), le_500)), T),
        ("graph-bex-above-bound", lambda: BEx(0, numeral(30), And(seq_at(0), le_500)), F),
        ("graph-ball-above-bound", lambda: BAll(0, numeral(30), Imp(seq_at(0), falsum())), T),
        ("graph-bex-overflowed-bound", lambda: BEx(0, past_cap, And(seq_at(0), le_500)), T),
        # no guard shape: the solved witness is suggested, below the cap of an
        # overflowed bound
        ("suggested-bex-overflowed-bound", lambda: BEx(0, past_cap, And(le_500, seq_at(0))), T),
        ("suggested-ball-overflowed-bound", lambda: BAll(0, past_cap, Not(seq_at(0))), F),
    ]


_VERDICT_CASES = _verdict_cases()


@pytest.mark.parametrize(
    "make,expected", [c[1:] for c in _VERDICT_CASES], ids=[c[0] for c in _VERDICT_CASES]
)
def test_atom_verdict_table(make, expected):
    assert eval_formula(make(), 20) == expected


def test_every_family_has_an_evaluator():
    assert all(fam.evaluator is not None for fam in registry.families().values())


@pytest.mark.parametrize(
    "params,nargs",
    [(("bogus", "sent"), 2), (("marker", "sent", "BSigma1"), 1)],
    ids=["goal-unknown-kind", "without-a-theory-argument"],
)
def test_malformed_prfgoal_is_rejected(params, nargs):
    import io

    from conseq.cli import run
    from conseq.syntax import print_term

    b = parse_formula("0<=0")
    args = tuple(code_literal(v) for v in (encode_proof(Proof((Step(b, ("axiom",)),))), coding.encode(b))[:nargs])
    with pytest.raises(ValueError):
        DAtom("PrfGoal", params, args)
    out = io.StringIO()
    text = f"PrfGoal[{','.join(params)}]({','.join(map(print_term, args))})"
    assert run(["eval", "--budget", "20", text], out) == 1 and out.getvalue().startswith("error: PrfGoal ")
