import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq import refs, registry
from conseq.coding import decode, encode
from conseq.gen import random_formula, random_term
from conseq.syntax import (
    Add,
    All,
    And,
    BEx,
    DAtom,
    EqAtom,
    Ex,
    LeAtom,
    Mul,
    Not,
    Succ,
    SyntaxError_,
    Var,
    ZERO,
    Zero,
    code_literal,
    free_vars,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    substitute,
    term_value,
    term_vars,
)


def test_parse_atomic_identity():
    assert parse_formula("0=0") == EqAtom(ZERO, ZERO)


def test_parse_quantifier_nesting():
    f = parse_formula("A x0. E x1<=x0. x1=x0")
    assert f == All(0, BEx(1, Var(0), EqAtom(Var(1), Var(0))))


def test_print_basics():
    assert print_formula(EqAtom(ZERO, ZERO)) == "0=0"
    two = numeral(2)
    assert print_formula(EqAtom(two, two)) == "S(S(0))=S(S(0))"


def test_roundtrip_random_500_nodes():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, 7, [0, 1, 2])
        assert parse_formula(print_formula(f)) == f
    # one guaranteed-large tree
    big = random_formula(rng, 3, [0])
    while big.size < 500:
        big = And(big, random_formula(rng, 3, [0, 1]))
    assert big.size >= 500
    assert parse_formula(print_formula(big)) == big


def test_parse_error_position():
    with pytest.raises(SyntaxError_) as ei:
        parse_formula("0=@")
    assert "position" in str(ei.value)


def test_numeral():
    assert numeral(0) == ZERO
    assert numeral(3) == Succ(Succ(Succ(ZERO)))
    with pytest.raises(ValueError):
        numeral(-1)


def test_numeral_evaluates_to_itself():
    for n in (0, 1, 17, 255, 10_000):
        assert term_value(numeral(n)) == n


def test_code_literal_value():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(0, 1 << 200)
        t = code_literal(n)
        assert term_value(t) == n
        assert t.size <= 8 * max(n.bit_length(), 1)


def test_substitute_simple():
    f = EqAtom(Var(0), Var(1))
    g = substitute(f, 0, numeral(3))
    assert g == EqAtom(numeral(3), Var(1))


def test_substitute_capture_renames():
    f = All(1, EqAtom(Var(0), Var(1)))
    g = substitute(f, 0, Var(1))
    assert isinstance(g, All)
    assert g.var != 1
    assert g.body == EqAtom(Var(1), Var(g.var))


@pytest.mark.parametrize(
    "text,v,t,want,free",
    [
        # the substituted bound term would contain the binder: it is renamed
        ("E x3<=x0. 0=0", 0, Var(3), "E x4<=x3. 0=0", {3}),
        ("E x0<=x1. x0=0", 1, Var(0), "E x2<=x0. x2=0", {0}),
    ],
    ids=["binder-free-in-body", "binder-bound-in-body"],
)
def test_substitute_renames_a_binder_its_bound_term_would_capture(text, v, t, want, free):
    g = substitute(parse_formula(text), v, t)
    assert print_formula(g) == want
    assert free_vars(g) == free


def naive_substitute(f, v, t):
    """Blind replacement; only valid when no capture can occur."""
    if isinstance(f, EqAtom):
        return EqAtom(_nsub(f.left, v, t), _nsub(f.right, v, t))
    if isinstance(f, LeAtom):
        return LeAtom(_nsub(f.left, v, t), _nsub(f.right, v, t))
    from conseq.syntax import BAll, DAtom, Imp, Or

    if isinstance(f, DAtom):
        return DAtom(f.name, f.params, tuple(_nsub(a, v, t) for a in f.args))
    if isinstance(f, Not):
        return Not(naive_substitute(f.arg, v, t))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(naive_substitute(f.left, v, t), naive_substitute(f.right, v, t))
    if isinstance(f, (All, Ex)):
        if f.var == v:
            return f
        return type(f)(f.var, naive_substitute(f.body, v, t))
    if isinstance(f, (BAll, BEx)):
        nb = _nsub(f.bound, v, t)
        if f.var == v:
            return type(f)(f.var, nb, f.body)
        return type(f)(f.var, nb, naive_substitute(f.body, v, t))
    raise TypeError(f)


def _nsub(term, v, t):
    if isinstance(term, Var):
        return t if term.index == v else term
    if isinstance(term, Zero):
        return term
    kids = term._children()
    return type(term)(*(_nsub(k, v, t) for k in kids))


def _bound_vars(f):
    from conseq.syntax import BAll, Formula

    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (All, Ex, BAll, BEx)):
            out.add(g.var)
        for c in g._children():
            if isinstance(c, Formula):
                stack.append(c)
    return out


def test_substitute_agrees_with_naive_oracle():
    # where no capture can occur, capture-avoiding == blind replacement
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        f = random_formula(rng, 5, [0, 1, 2])
        v = rng.randrange(0, 3)
        t = random_term(rng, 2, [9])
        if term_vars(t) & _bound_vars(f):
            continue
        got = substitute(f, v, t)
        want = naive_substitute(f, v, t)
        assert got == want
        checked += 1
    assert checked > 400


def test_free_vars():
    assert free_vars(parse_formula("0=0")) == frozenset()
    assert free_vars(parse_formula("x0=x1")) == frozenset({0, 1})
    f = parse_formula("A x1. x0=x1")
    assert free_vars(f) == frozenset({0})


def test_free_vars_after_closed_substitution():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, 4, [0, 1])
        t = numeral(rng.randrange(0, 5))
        for v in sorted(free_vars(f)):
            g = substitute(f, v, t)
            assert v not in free_vars(g)
            assert free_vars(g) <= (free_vars(f) - {v}) | term_vars(t)


def test_bounded_quantifier_rejects_self_bound():
    with pytest.raises(ValueError):
        BEx(0, Var(0), EqAtom(Var(0), ZERO))


def test_term_parse_roundtrip():
    t = Mul(Add(numeral(2), Var(3)), Succ(ZERO))
    assert parse_term(print_term(t)) == t


def test_deep_literal_roundtrip():
    n = 1 << 1000
    t = code_literal(n + 12345)
    assert parse_term(print_term(t)) == t
    assert term_value(t) == n + 12345


def test_substitution_lemma():
    # evaluating f[v := numeral(n)] equals evaluating f under v |-> n
    from conseq.semantics import eval_formula

    rng = random.Random(71)
    checked = 0
    for _ in range(300):
        f = random_formula(rng, 4, [0, 1])
        fv = sorted(free_vars(f))
        if not fv:
            continue
        v = fv[0]
        n = rng.randrange(0, 5)
        env = {w: rng.randrange(0, 4) for w in fv if w != v}
        env2 = dict(env)
        env2[v] = n
        a = eval_formula(substitute(f, v, numeral(n)), 24, env)
        b = eval_formula(f, 24, env2)
        assert a == b
        checked += 1
    assert checked > 100


def test_alpha_renaming_preserves_evaluation():
    from conseq.semantics import eval_formula

    # force the capture path: substitute a term containing the bound variable
    f = All(1, Or_(EqAtom(Var(0), Var(1)), LeAtom(Var(1), numeral(3))))
    g = substitute(f, 0, Add(Var(1), numeral(1)))
    assert isinstance(g, All) and g.var != 1
    for n in range(5):
        a = eval_formula(g, 16, {1: n})
        direct = All(7, Or_(EqAtom(Add(Var(1), numeral(1)), Var(7)), LeAtom(Var(7), numeral(3))))
        b = eval_formula(direct, 16, {1: n})
        assert a == b


def Or_(a, b):
    from conseq.syntax import Or

    return Or(a, b)


def test_atoms_with_colliding_formula_params_compare_unequal():
    p1, p2 = parse_formula("0=0"), parse_formula("x0=0")
    object.__setattr__(p2, "_hash", p1._hash)  # force a hash collision
    a1, a2 = DAtom("F", (p1,), ()), DAtom("F", (p2,), ())
    assert hash(a1) == hash(a2) and a1 != a2
    # nested, the atoms are reached by the iterative walk, not compared first
    assert hash(Not(a1)) == hash(Not(a2)) and Not(a1) != Not(a2)
    assert And(a1, p1) != And(a2, p1)
    assert And(p1, Not(a1)) != And(p1, Not(a2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=3))
def test_equality_agrees_with_codes(seed, depth):
    rng = random.Random(seed)
    # small depth and variable pool, so that equal pairs occur too
    f = random_formula(rng, depth, [0, 1], datoms=True)
    g = random_formula(rng, depth, [0, 1], datoms=True)
    assert (f == g) == (encode(f) == encode(g))
    if f == g:
        assert hash(f) == hash(g)
    back = decode(encode(f))
    assert back == f and hash(back) == hash(f)
    assert parse_formula(print_formula(f)) == f


_ADMITTED = {
    registry.NAT: st.integers(min_value=0, max_value=2**70),
    registry.STR: st.sampled_from(["EA", "x"]),
    registry.REF: st.sampled_from(["EA", refs.Ext(refs.Named("EA"), 5)]),
    registry.FORMULA: st.just(parse_formula("x0=0")),
}
_DECLARED = st.one_of(
    [
        st.tuples(
            st.just(name),
            st.tuples(*(st.sampled_from(t) if isinstance(t, tuple) else _ADMITTED[t] for t in decl.params)),
            st.just(decl.arity),
        )
        for name, fam in registry.FAMILIES.items()
        for decl in (fam.shapes or {None: fam}).values()
    ]
)
_ARBITRARY = st.tuples(
    st.sampled_from(sorted(registry.FAMILIES)),
    st.lists(
        st.one_of(
            st.integers(min_value=-2, max_value=2**70),
            st.sampled_from(["Sigma", "Pi", "Delta", "idx", "sent", "marker", "inhab", "refl", "connum", "EA"]),
            st.text(max_size=3),
            st.just(parse_formula("x0=0")),
            st.just(refs.Ext(refs.Named("EA"), 5)),
        ),
        max_size=5,
    ).map(tuple),
    st.integers(min_value=0, max_value=5),
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.one_of(_ARBITRARY, _DECLARED))
def test_registered_atom_is_checked_where_it_is_built(atom):
    """Any params and argument count of a registered family: construction
    rejects them, or the atom classifies and evaluates to a verdict."""
    from conseq.hierarchy import classify
    from conseq.semantics import TV3, EvalError, eval_formula

    name, params, nargs = atom
    try:
        a = DAtom(name, params, (ZERO,) * nargs)
    except ValueError:
        return
    classify(a)
    try:
        assert isinstance(eval_formula(a, 2), TV3)
    except EvalError:
        pass


def test_reference_params_print_and_parse_back():
    ref = refs.CraigRef(refs.SlipExt(refs.MOmega(2, refs.Named("EA")), 7, 3))
    assert ref.text() == "craig(slipext(momega(2,EA),7,3))"
    f = parse_formula("Prf[craig(slipext(momega(2,EA),7,3))](x0,x1)")
    assert f.params == (ref,) and print_formula(f) == "Prf[craig(slipext(momega(2,EA),7,3))](x0,x1)"


@pytest.mark.parametrize(
    "param,message",
    [
        ("ext(EA)", "unknown reference form ext(['EA']) at 4"),
        ("ext(EA,EA)", "unknown reference form ext(['EA', 'EA']) at 4"),
        ("ext(5,EA)", "unknown reference form ext([5, 'EA']) at 4"),
        ("ext(5,5)", "expected a theory reference, got 5"),
        ("craig({0=0})", "expected a theory reference, got 0=0"),
        ("foo(EA)", "unknown reference form foo(['EA']) at 4"),
    ],
    ids=["wrong-arity", "not-an-int", "not-an-int-first", "not-a-reference", "formula-not-a-reference", "unknown-head"],
)
def test_bad_reference_syntax_messages(param, message):
    with pytest.raises(refs.RefError) as e:
        parse_formula(f"Prf[{param}](x0,x1)")
    assert str(e.value) == message
