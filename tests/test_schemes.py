"""The logical-scheme checker against the independent oracle.

match_scheme must agree with second_verifier's hand-written checks on every
scheme and every formula: seeded instances of each scheme (built here, with
metavariables drawn from a small pool so that they are often equal and the
shapes overlap), one-subformula mutations of those instances, and plain
random formulas.  A logical proof step codes its scheme's index in SCHEMES,
so the order is pinned too.
"""

import random

import pytest

import second_verifier
from conseq.coding import SCHEMES
from conseq.gen import random_formula, random_term
from conseq.semantics import match_scheme
from conseq.syntax import All, And, EqAtom, Imp, Not, Or, substitute


def test_scheme_order_is_pinned():
    assert SCHEMES == (
        "K",
        "S",
        "CONTRA",
        "AND-E1",
        "AND-E2",
        "AND-I",
        "OR-I1",
        "OR-I2",
        "OR-E",
        "ALL-E",
        "ALL-DIST",
        "EQ-REFL",
    )


def _all_dist(a, b, v):
    return Imp(All(v, Imp(a, b)), Imp(a, All(v, b)))


# scheme -> instance from formulas a, b, c, a term t and a variable index v
_INSTANCES = {
    "K": lambda a, b, c, t, v: Imp(a, Imp(b, a)),
    "S": lambda a, b, c, t, v: Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c))),
    "CONTRA": lambda a, b, c, t, v: Imp(Imp(Not(a), Not(b)), Imp(b, a)),
    "AND-E1": lambda a, b, c, t, v: Imp(And(a, b), a),
    "AND-E2": lambda a, b, c, t, v: Imp(And(a, b), b),
    "AND-I": lambda a, b, c, t, v: Imp(a, Imp(b, And(a, b))),
    "OR-I1": lambda a, b, c, t, v: Imp(a, Or(a, b)),
    "OR-I2": lambda a, b, c, t, v: Imp(a, Or(b, a)),
    "OR-E": lambda a, b, c, t, v: Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c))),
    "ALL-E": lambda a, b, c, t, v: Imp(All(v, a), substitute(a, v, t)),
    # v is sometimes free in a, which breaks the side condition
    "ALL-DIST": lambda a, b, c, t, v: _all_dist(a, b, v),
    "EQ-REFL": lambda a, b, c, t, v: EqAtom(t, t),
}


def _mutate(f, rng, new_formula, new_term):
    """f with one subformula, or one side of an equation, replaced."""
    if isinstance(f, EqAtom):
        return EqAtom(new_term, f.right) if rng.random() < 0.5 else EqAtom(f.left, new_term)
    if rng.random() < 0.25 or not isinstance(f, (Not, And, Or, Imp, All)):
        return new_formula
    if isinstance(f, Not):
        return Not(_mutate(f.arg, rng, new_formula, new_term))
    if isinstance(f, All):
        return All(f.var, _mutate(f.body, rng, new_formula, new_term))
    if rng.random() < 0.5:
        return type(f)(_mutate(f.left, rng, new_formula, new_term), f.right)
    return type(f)(f.left, _mutate(f.right, rng, new_formula, new_term))


def _agree(f) -> frozenset:
    """The schemes f instantiates, after checking both checkers agree on each."""
    out = set()
    for s in SCHEMES:
        got = match_scheme(s, f)
        assert got == second_verifier._SCHEME_CHECKS[s](f), (s, f)
        if got:
            out.add(s)
    return frozenset(out)


@pytest.mark.parametrize("scheme", sorted(_INSTANCES))
def test_match_scheme_agrees_with_the_oracle(scheme):
    rng = random.Random(f"schemes-{scheme}")
    build = _INSTANCES[scheme]
    hits = misses = 0
    for _ in range(300):
        # a small pool, so that a, b and c are often the same formula
        pool = [random_formula(rng, rng.randrange(3), [0, 1]) for _ in range(2)]
        a, b, c = (rng.choice(pool) for _ in range(3))
        t = random_term(rng, 2, [0, 1])
        v = rng.choice([0, 1, 5])
        inst = build(a, b, c, t, v)
        if scheme in _agree(inst):
            hits += 1
        for _ in range(2):
            new_formula = rng.choice(pool + [random_formula(rng, 2, [0, 1])])
            if scheme not in _agree(_mutate(inst, rng, new_formula, random_term(rng, 2, [0, 1]))):
                misses += 1
        _agree(random_formula(rng, 3, [0, 1]))
    # every instance is one, apart from ALL-DIST with v free in a
    assert hits == 300 or (scheme == "ALL-DIST" and 100 <= hits < 300)
    assert misses >= 100

