"""Deterministic formula streams and corpora.

Theory presentations need reproducible schema-instance streams (induction,
collection), and several invariant suites need class-exact formula corpora.
Everything here is a pure function of its integer index or an explicit seed.
"""

from __future__ import annotations

import random

from . import registry
from .syntax import (
    Add,
    All,
    And,
    BAll,
    BEx,
    DAtom,
    EqAtom,
    Ex,
    Exp,
    Formula,
    Imp,
    LeAtom,
    Mul,
    Not,
    Or,
    Succ,
    Term,
    Var,
    ZERO,
    free_vars,
    numeral,
    substitute,
)

# Variable conventions for schema templates:
#   x0 = induction/collection subject, x1 = collection witness, x2 = parameter.
IND_VAR = 0
WIT_VAR = 1
PAR_VAR = 2
_QBASE = 10  # quantified variables in generated prefixes start here


def delta0_matrix(i: int) -> Formula:
    """i-th bounded formula over x0, x1, x2 (cycled shapes, growing constant)."""
    k = i // 4
    shape = i % 4
    if shape == 0:
        return LeAtom(Var(IND_VAR), Add(Var(PAR_VAR), numeral(k)))
    if shape == 1:
        return EqAtom(Add(Var(IND_VAR), Var(WIT_VAR)), Add(Var(PAR_VAR), numeral(k)))
    if shape == 2:
        return LeAtom(Mul(Var(IND_VAR), numeral(2)), Add(Add(Var(PAR_VAR), Var(WIT_VAR)), numeral(k)))
    return BEx(
        _QBASE + 9,
        Var(PAR_VAR),
        EqAtom(Add(Var(IND_VAR), Var(_QBASE + 9)), Add(Var(WIT_VAR), numeral(k))),
    )


def class_formula(kind: str, level: int, i: int) -> Formula:
    """i-th formula of exactly the syntactic class (kind, level), with free
    variables among {x0, x1, x2}."""
    if level == 0:
        return delta0_matrix(i)
    qvars = [_QBASE + j for j in range(level)]
    t: Term = Add(Var(IND_VAR), Var(WIT_VAR))
    for v in qvars:
        t = Add(t, Var(v))
    matrix: Formula = LeAtom(t, Add(Var(PAR_VAR), numeral(3 + i % 7)))
    f = matrix
    for pos in reversed(range(level)):
        outer_kind = kind if pos % 2 == 0 else ("Pi" if kind == "Sigma" else "Sigma")
        cls = Ex if outer_kind == "Sigma" else All
        f = cls(qvars[pos], f)
    return f


def induction_instance(phi: Formula) -> Formula:
    """(phi(0) /\\ A x.(phi(x) -> phi(S x))) -> A x. phi(x), closed over x2."""
    base = substitute(phi, IND_VAR, ZERO)
    step = All(IND_VAR, Imp(phi, substitute(phi, IND_VAR, Succ(Var(IND_VAR)))))
    body = Imp(And(base, step), All(IND_VAR, phi))
    if PAR_VAR in free_vars(body):
        body = All(PAR_VAR, body)
    if WIT_VAR in free_vars(body):
        body = All(WIT_VAR, body)
    return body


def collection_instance(phi: Formula) -> Formula:
    """A u.(A x<=u. E y. phi -> E v. A x<=u. E y<=v. phi), closed over x2."""
    u, v = _QBASE + 20, _QBASE + 21
    left = BAll(IND_VAR, Var(u), Ex(WIT_VAR, phi))
    right = Ex(v, BAll(IND_VAR, Var(u), BEx(WIT_VAR, Var(v), phi)))
    body = All(u, Imp(left, right))
    if PAR_VAR in free_vars(body):
        body = All(PAR_VAR, body)
    return body


# ---------------------------------------------------------------------------
# Random corpora (seeded; used by tests and selfcheck)


def random_term(rng: random.Random, depth: int, var_pool: list[int]) -> Term:
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4 and var_pool:
            return Var(rng.choice(var_pool))
        if r < 0.7:
            return numeral(rng.randrange(0, 4))
        return ZERO
    op = rng.randrange(4)
    if op == 0:
        return Succ(random_term(rng, depth - 1, var_pool))
    a = random_term(rng, depth - 1, var_pool)
    b = random_term(rng, depth - 1, var_pool)
    if op == 1:
        return Add(a, b)
    if op == 2:
        return Mul(a, b)
    return Exp(a, numeral(rng.randrange(0, 3)))


def random_formula(rng: random.Random, depth: int, var_pool: list[int], datoms: bool = True) -> Formula:
    """Arbitrary well-formed formula (for roundtrip-style tests).  datoms=False
    restricts the atoms to =, <= and Delta-0 declared atoms (the prenex class
    bound only applies there: higher declared atoms are opaque to quantifier
    extraction)."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        a = random_term(rng, 2, var_pool)
        b = random_term(rng, 2, var_pool)
        if r < 0.45:
            return EqAtom(a, b)
        if r < 0.9:
            return LeAtom(a, b)
        pool = [("InSigma", (1,)), ("InPi", (2,)), ("SeqAt", ())]
        if datoms:
            pool.append(("TrueSigma", (1,)))
            pool.append(("TruePi", (2,)))
        name, params = rng.choice(pool)
        return DAtom(name, params, tuple(random_term(rng, 1, var_pool) for _ in range(registry.FAMILIES[name].arity)))
    op = rng.randrange(8)
    if op == 0:
        return Not(random_formula(rng, depth - 1, var_pool, datoms))
    if op in (1, 2):
        cls = {1: And, 2: Or}[op]
        return cls(
            random_formula(rng, depth - 1, var_pool, datoms),
            random_formula(rng, depth - 1, var_pool, datoms),
        )
    if op == 3:
        return Imp(
            random_formula(rng, depth - 1, var_pool, datoms),
            random_formula(rng, depth - 1, var_pool, datoms),
        )
    v = rng.randrange(0, 8)
    body = random_formula(rng, depth - 1, var_pool + [v], datoms)
    if op == 4:
        return All(v, body)
    if op == 5:
        return Ex(v, body)
    bound = random_term(rng, 1, [w for w in var_pool if w != v])
    if op == 6:
        return BAll(v, bound, body)
    return BEx(v, bound, body)


def _cheap_body(rng: random.Random, depth: int, var_pool: list[int]) -> Formula:
    """Connectives and small bounded quantifiers only; evaluation cost stays
    polynomial in the (small) bounds, never in the budget."""
    if depth <= 0 or rng.random() < 0.35:
        a = random_term(rng, 2, var_pool)
        b = random_term(rng, 2, var_pool)
        return EqAtom(a, b) if rng.random() < 0.5 else LeAtom(a, b)
    op = rng.randrange(6)
    if op == 0:
        return Not(_cheap_body(rng, depth - 1, var_pool))
    if op in (1, 2, 3):
        cls = {1: And, 2: Or, 3: Imp}[op]
        return cls(_cheap_body(rng, depth - 1, var_pool), _cheap_body(rng, depth - 1, var_pool))
    v = rng.randrange(0, 6)
    body = _cheap_body(rng, depth - 1, var_pool + [v])
    bound = numeral(rng.randrange(0, 5))
    return BAll(v, bound, body) if op == 4 else BEx(v, bound, body)


def random_decidable_sentence(rng: random.Random, depth: int = 3) -> Formula:
    """Closed formula with at most one unbounded quantifier, so budgeted
    evaluation is linear in the budget.  Verdicts may still be unknown;
    that is what monotonicity corpora exercise."""
    v = rng.randrange(0, 6)
    body = _cheap_body(rng, depth, [v])
    kind = rng.randrange(4)
    if kind == 0:
        return All(v, body)
    if kind == 1:
        return Ex(v, body)
    if kind == 2:
        return BAll(v, numeral(rng.randrange(0, 6)), body)
    return BEx(v, numeral(rng.randrange(0, 6)), body)


# ---------------------------------------------------------------------------
# Diagonal-suite corpus: class-exact formulas with a designated hole variable
# whose evaluation is decided under every assignment (the class carrier is
# short-circuited by a decided bounded part, Kleene-style).

HOLE_VAR = 7
SAMPLE_VAR = 9


def hole_formula(kind: str, level: int, i: int) -> Formula:
    """i-th formula of exact class (kind, level) with free vars {x7, x9};
    x7 is the code hole.  Decided under every assignment."""
    if level < 1 or level > 3:
        raise ValueError("hole corpus covers levels 1..3")
    carrier = class_formula(kind, level, i)
    # close the carrier's incidental free vars so only the hole and the
    # sample variable remain free
    carrier = substitute(carrier, IND_VAR, numeral(i % 3))
    carrier = substitute(carrier, WIT_VAR, numeral((i + 1) % 3))
    carrier = substitute(carrier, PAR_VAR, numeral(i % 5))

    hole_guard = EqAtom(Var(HOLE_VAR), Var(HOLE_VAR))
    variants = i % 3
    if variants == 0:
        env_test: Formula = LeAtom(Var(SAMPLE_VAR), numeral(2 + i % 4))
    elif variants == 1:
        env_test = Not(LeAtom(Var(SAMPLE_VAR), numeral(1 + i % 3)))
    else:
        env_test = DAtom("InSigma", (1 + i % 3,), (Var(HOLE_VAR),))
    env_test = And(env_test, hole_guard)

    false_const = Not(EqAtom(ZERO, ZERO))
    true_const = EqAtom(ZERO, ZERO)
    if i % 2 == 0:
        # Or(d, And(false, carrier)): value == value(d), always decided
        return Or(env_test, And(false_const, carrier))
    # And(d, Or(true, carrier)): value == value(d), always decided
    return And(env_test, Or(true_const, carrier))
