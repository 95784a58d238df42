import pytest

from conseq import coding
from conseq.hierarchy import Delta0, Pi, Sigma, classify, is_elementary
from conseq.semantics import FALSE, TRUE, axiom_membership, eval_formula
from conseq.syntax import (
    All,
    And,
    DAtom,
    Ex,
    Imp,
    Not,
    Var,
    falsum,
    free_vars,
    parse_formula,
    print_formula,
    substitute,
)
from conseq.theories import (
    TheoryError,
    con_formula,
    con_of_slice,
    extend,
    iter_ncon,
    m_omega_sentence,
    m_omega_theory,
    machine_stream,
    marker_sentence,
    member_of_named,
    ncon_formula,
    ncon_of_slice,
    pr_formula,
    prf_formula,
    resolve_ref,
    rfn_gamma_formula,
    rfn_instance_for_ref,
    standard_theory,
    toy_inconsistent_theory,
    truth_predicate,
)


def test_q_has_eight_axioms():
    q = standard_theory("Q")
    assert q.finite_size == 8
    axioms = q.axioms(20)
    assert len(axioms) == 8
    assert len(set(axioms)) == 8


def test_streams_satisfy_membership_formula():
    # first 50 enumerated axioms all satisfy the membership formula
    for name in ("Q", "EA", "BSigma1", "ISigma2", "PA", "ZFstub"):
        t = standard_theory(name)
        assert is_elementary(t.axiom_formula)
        for a in t.axioms(50):
            v = eval_formula(t.axiom_formula, 64, {0: coding.encode(a)})
            assert v.is_true(), f"{name}: {print_formula(a)[:80]}"


def test_membership_rejects_outsiders():
    q = standard_theory("Q")
    bad = parse_formula("0=S(0)")
    assert eval_formula(q.axiom_formula, 64, {0: coding.encode(bad)}).is_false()


def test_bsigma_first_entries():
    b1 = standard_theory("BSigma1")
    axs = b1.axioms(10)
    assert len(axs) == 10
    for a in axs:
        assert eval_formula(b1.axiom_formula, 64, {0: coding.encode(a)}).is_true()


def test_unknown_name():
    with pytest.raises(TheoryError):
        standard_theory("ZFC")


def test_extend():
    q = standard_theory("Q")
    phi = parse_formula("0=0")
    qe = extend(q, phi)
    assert qe.enumerator(0) == phi
    assert qe.enumerator(1) == q.enumerator(0)
    assert is_elementary(qe.axiom_formula)
    assert eval_formula(qe.axiom_formula, 64, {0: coding.encode(phi)}).is_true()
    # stream = {phi} followed by the base stream
    assert [qe.enumerator(i) for i in range(1, 9)] == q.axioms(8)
    with pytest.raises(TheoryError):
        extend(q, parse_formula("x0=0"))


def test_pr_prf_con_shapes_and_classes():
    ea = standard_theory("EA")
    assert classify(pr_formula(ea)) == Sigma(1)
    assert classify(con_formula(ea)) == Pi(1)
    assert classify(prf_formula(ea)) == Delta0()
    assert free_vars(con_formula(ea)) == frozenset()
    assert free_vars(pr_formula(ea)) == frozenset({0})


def test_prf_accepts_handcrafted_proof():
    from conseq.semantics import Proof, Step, encode_proof, eval_prf

    q = standard_theory("Q")
    a = parse_formula("0=0")
    p = Proof((Step(a, ("logical", "EQ-REFL")),) * 3)
    assert eval_prf(q, encode_proof(p), coding.encode(a)) == TRUE


def test_truth_predicate():
    t2 = truth_predicate(Sigma(2))
    assert classify(t2) == Sigma(2)
    with pytest.raises(TheoryError):
        truth_predicate(Delta0())
    from conseq.semantics import eval_truth

    assert eval_truth(Pi(1), coding.encode(parse_formula("0=0")), 16).is_true()
    assert eval_truth(Pi(1), coding.encode(falsum()), 16).is_false()
    # class mismatch is false
    s1 = parse_formula("E x0. x0=0")
    assert eval_truth(Pi(0), coding.encode(s1), 16).is_false()


def test_ncon_structure_and_classes():
    ea = standard_theory("EA")
    for n in range(6):
        f = ncon_formula(n, ea)
        assert free_vars(f) == frozenset()
        assert classify(f) == Pi(n + 1)
    f = ncon_formula(2, ea)
    # A phi ((phi in Pi-2 /\ True-Pi-2 phi) -> A p ~PrfX(p, bot, phi))
    assert isinstance(f, All) and isinstance(f.body, Imp)
    guard = f.body.left
    assert isinstance(guard, And)
    assert isinstance(guard.left, DAtom) and guard.left.name == "InPi" and guard.left.params == (2,)
    assert isinstance(guard.right, DAtom) and guard.right.name == "TruePi"
    con = f.body.right
    assert isinstance(con, All) and isinstance(con.body, Not)
    assert con.body.arg.name == "PrfX"


def test_rfn_gamma_classes():
    ea = standard_theory("EA")
    for n in (1, 2, 3):
        assert classify(rfn_gamma_formula(Sigma(n), ea)) == Pi(n + 1)
        assert classify(rfn_gamma_formula(Pi(n + 1), ea)) == Pi(n + 1)


def test_proposition_2_2_surrogate():
    # the three principles are distinct formulas at the same Pi level
    ea = standard_theory("EA")
    for n in (1, 2):
        a = rfn_gamma_formula(Sigma(n), ea)
        b = rfn_gamma_formula(Pi(n + 1), ea)
        c = ncon_formula(n, ea)
        assert len({a, b, c}) == 3
        assert classify(a) == classify(b) == classify(c) == Pi(n + 1)


def test_rfn_pi1_instance_matches_con_up_to_renaming():
    ea = standard_theory("EA")
    r = rfn_gamma_formula(Pi(1), ea)
    inst = substitute(r.body, r.var, coding_falsum_literal())
    # antecedent's provability part vs con_formula's negated body, alpha-equal
    pr_part = inst.left.right
    con = con_formula(ea)
    con_body = con.arg
    assert isinstance(pr_part, Ex) and isinstance(con_body, Ex)
    renamed = substitute(pr_part.body, pr_part.var, Var(con_body.var))
    assert renamed == con_body.body
    # and the truth consequent is false at the falsum, i.e. the instance
    # semantically yields ~Pr(bot)
    from conseq.semantics import eval_formula as ev

    assert ev(inst.right, 16, {}).is_false()


def coding_falsum_literal():
    from conseq.theories import falsum_literal

    return falsum_literal()


def test_rfn_schema_instance_closed_and_open():
    ea = standard_theory("EA")
    phi = parse_formula("0=0")
    inst = rfn_instance_for_ref(ea.ref, phi)
    assert isinstance(inst, Imp)
    assert isinstance(inst.left, Ex)
    assert inst.right == phi

    psi = parse_formula("x0<=(x0+x1)")
    inst2 = rfn_instance_for_ref(ea.ref, psi)
    assert free_vars(inst2) == frozenset()
    assert isinstance(inst2, All) and isinstance(inst2.body, All)
    # evaluation agreement at sample points: Pr-part is undecided-false-ish,
    # implication evaluates like psi itself once the antecedent is unknown;
    # check the consequent agreement directly
    for x0 in range(3):
        got = eval_formula(psi, 32, {0: x0, 1: x0 + 1})
        assert got.is_true()


def test_iter_ncon():
    ea = standard_theory("EA")
    m = 2
    base = iter_ncon(m, 0, ea)
    assert base == ncon_formula(m, ea)
    one = iter_ncon(m, 1, ea)
    assert one == ncon_formula(m, extend(ea, base))
    for k in range(5):
        assert classify(iter_ncon(m, k, ea)) == Pi(m + 1)


def test_m_omega_theory():
    ea = standard_theory("EA")
    mo = m_omega_theory(2, ea)
    isig = standard_theory("ISigma2")
    assert mo.enumerator(0) == isig.enumerator(0)
    sent = m_omega_sentence(2, ea)
    assert mo.enumerator(1) == sent
    assert is_elementary(mo.axiom_formula)
    for a in mo.axioms(10):
        assert eval_formula(mo.axiom_formula, 64, {0: coding.encode(a)}).is_true()
    # machine_code decodes to a reference resolving back to this stream
    ref = coding.decode_ref(mo.machine_code)
    back = resolve_ref(ref)
    assert [back.enumerator(i) for i in range(6)] == [mo.enumerator(i) for i in range(6)]


def test_itercon_atom_agrees_with_unfolding():
    ea = standard_theory("EA")
    atom = DAtom("IterCon", (2, "EA"), (Var(0),))
    for k in (0, 1):
        got = eval_formula(atom, 24, {0: k})
        want = eval_formula(iter_ncon(2, k, ea), 23, {})
        assert got == want


def test_con_of_slice_shape():
    tau = parse_formula("(x0=x1\\/x1=0)")
    f = con_of_slice(tau, 0, parse_formula("0=0"))
    assert free_vars(f) == frozenset()
    assert classify(f) == Pi(1)
    assert isinstance(f, All) and isinstance(f.body, All)
    inner = f.body.body
    assert isinstance(inner, Imp)
    assert inner.left.name == "SliceConj"
    con = inner.right
    assert isinstance(con, All) and isinstance(con.body, Not) and con.body.arg.name == "PrfSent"


def test_con_of_slice_condition3_shape_with_trivial_sentence():
    tau = parse_formula("(x0=x1\\/x1=0)")
    trivial = con_of_slice(tau, 1, parse_formula("0=0"))
    general = con_of_slice(tau, 1, parse_formula("0<=S(0)"))
    # same quantifier skeleton, only the sentence parameter differs
    def skel(f):
        out = []
        stack = [f]
        while stack:
            g = stack.pop()
            out.append(type(g).__name__ if not isinstance(g, DAtom) else g.name)
            from conseq.syntax import Formula

            stack.extend(c for c in g._children() if isinstance(c, Formula))
        return out

    assert skel(trivial) == skel(general)


def test_ncon_of_slice_class():
    tau = parse_formula("(x0=x1\\/x1=0)")
    for m in (2, 3):
        f = ncon_of_slice(m, tau, 0)
        assert classify(f) == Pi(m + 1)
        assert classify(Not(f)) == Sigma(m + 1)


def test_formula_param_atoms_roundtrip():
    # SliceConj carries a whole formula as a parameter; text goes through
    # brace-delimited param syntax
    tau = parse_formula("(x0=x1\\/x1=0)")
    f = ncon_of_slice(2, tau, 1)
    text = print_formula(f)
    assert "{" in text and "}" in text
    assert parse_formula(text) == f
    assert coding.decode(coding.encode(f)) == f


def test_machine_stream_layout():
    z = coding.encode(parse_formula("(x0=x1\\/x1=0)"))
    code = coding.machine_index(0, 0, z, 2)
    stream = machine_stream(code)
    b2 = standard_theory("BSigma2")
    for i in range(3):
        assert stream(i) == b2.enumerator(i)
    assert stream(3) != b2.enumerator(3)
    assert stream(4) == b2.enumerator(3)


def test_export_record():
    q = standard_theory("Q")
    rec = q.export_record(3)
    assert rec["name"] == "Q"
    assert len(rec["first_axioms"]) == 3
    assert rec["machine_code"] == str(q.machine_code)


# levels are ASCII digits: a superscript two and an Arabic-Indic three are
# digits to str.isdigit, but these names denote no theory
@pytest.mark.parametrize("name", ["ISigma\u00b2", "BSigma\u0663", "ISigma", "EA1", "Foo"])
def test_unknown_theory_names(name):
    f = parse_formula("0=0")
    with pytest.raises(TheoryError):
        standard_theory(name)
    with pytest.raises(TheoryError):
        member_of_named(name, f)
    with pytest.raises(TheoryError):
        marker_sentence(name)
    assert axiom_membership(name, f, 3) == FALSE


def test_leading_zeros_in_a_level():
    i01, i1 = standard_theory("ISigma01"), standard_theory("ISigma1")
    assert i01.name == "ISigma01" and i01.axioms(12) == i1.axioms(12)
    assert marker_sentence("ISigma01") == marker_sentence("ISigma1")
    assert all(member_of_named("ISigma01", a) for a in i1.axioms(12))


def test_toy_theory_is_finite():
    toy, _ = toy_inconsistent_theory()
    assert toy.finite_size == 9
    assert toy.axioms(20) == [falsum()] + standard_theory("Q").axioms(8)
