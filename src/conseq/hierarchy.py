"""Arithmetic-hierarchy classification, prenexing, and the collection rewrite.

Classification is purely syntactic plus declared atom classes.  For each
subformula we track the least n with f in Sigma_n and the least k with f in
Pi_k under the standard closure rules; bounded quantifiers absorb into a
like-polarity class and count as unbounded otherwise (that unabsorbable case
is exactly where collection is needed, which the "modulo" certificate
records).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import registry
from .syntax import (
    All,
    And,
    BAll,
    BEx,
    DAtom,
    EqAtom,
    Ex,
    Formula,
    Imp,
    LeAtom,
    Not,
    Or,
    SPLICE,
    Term,
    Var,
    _map_term,
    max_var,
    substitute,
    term_vars,
    walk,
)


@dataclass(frozen=True)
class ComplexityClass:
    kind: str  # "Sigma" | "Pi" | "Delta"
    level: int
    modulo: Optional[str] = None  # base-theory name when the class holds only
    # up to provable equivalence over that base

    def __post_init__(self):
        if self.kind not in ("Sigma", "Pi", "Delta"):
            raise ValueError(f"bad class kind {self.kind!r}")
        if not isinstance(self.level, int):
            raise ValueError(f"class level {self.level!r} is not an int")
        if self.kind == "Delta" and self.level != 0:
            raise ValueError("Delta only exists at level 0")
        if self.level < 0:
            raise ValueError("negative level")

    def text(self) -> str:
        s = f"{self.kind} {self.level}"
        if self.modulo:
            s += f" (modulo {self.modulo})"
        return s

    def __str__(self):
        return self.text()


def Sigma(n: int, modulo: Optional[str] = None) -> ComplexityClass:
    return ComplexityClass("Sigma", n, modulo)


def Pi(n: int, modulo: Optional[str] = None) -> ComplexityClass:
    return ComplexityClass("Pi", n, modulo)


def Delta0() -> ComplexityClass:
    return ComplexityClass("Delta", 0)


def class_leq(a: ComplexityClass, b: ComplexityClass) -> bool:
    """Syntactic containment: every a-formula is b-classifiable."""
    if a.kind == "Delta" or a.level == 0:
        return True
    if b.kind == "Delta" or b.level == 0:
        return False
    if a.kind == b.kind:
        return a.level <= b.level
    return a.level < b.level


# ---------------------------------------------------------------------------
# (sigma_min, pi_min) computation


def _mins(f: Formula, scopes: Optional[dict] = None) -> tuple[int, int]:
    """(least n with f in Sigma_n, least k with f in Pi_k); an iterative
    post-order walk, so nesting depth is not bounded by the recursion limit.
    scopes, if given, maps the id of each unary node to its scope's pair."""
    done: list[tuple[int, int]] = []  # results of finished subformulas
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if isinstance(g, (EqAtom, LeAtom)):
            done.append((0, 0))
            continue
        if isinstance(g, DAtom):
            kind, level = registry.declared_class(g.name, g.params)
            if level == 0 or kind == "Delta":
                done.append((0, 0))
            elif kind == "Sigma":
                done.append((level, level + 1))
            else:
                done.append((level + 1, level))
            continue
        if not isinstance(g, (Not, And, Or, Imp, All, Ex, BAll, BEx)):
            raise TypeError(f"not a formula: {g!r}")
        if not expanded:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(g._children()) if isinstance(c, Formula))
            continue
        if isinstance(g, (And, Or, Imp)):
            s2, p2 = done.pop()
            s1, p1 = done.pop()
            if isinstance(g, Imp):
                s1, p1 = p1, s1
            done.append((max(s1, s2), max(p1, p2)))
            continue
        s, p = done.pop()
        if scopes is not None:
            scopes[id(g)] = (s, p)
        if isinstance(g, Not):
            done.append((p, s))
        elif isinstance(g, (BEx, BAll)) and s == 0 and p == 0:
            done.append((0, 0))
        elif isinstance(g, (Ex, BEx)):
            s2 = max(1, min(s, p + 1))
            done.append((s2, s2 + 1))
        else:
            p2 = max(1, min(p, s + 1))
            done.append((p2 + 1, p2))
    (result,) = done
    return result


def classify(f: Formula) -> ComplexityClass:
    """Minimal syntactic class; Sigma preferred when the two coincide."""
    s, p = _mins(f)
    if s == 0 and p == 0:
        return Delta0()
    if s <= p:
        return Sigma(s)
    return Pi(p)


def is_elementary(f: Formula) -> bool:
    """True iff f classifies Delta-0 (declared-Delta-0 atoms included)."""
    return classify(f).kind == "Delta"


# ---------------------------------------------------------------------------
# Prenex normal form
#
# Strategy: peel leading unbounded quantifiers untouched; if the rest has no
# unbounded quantifiers, the input was already prenex and is returned as is.
# Otherwise push negations to atoms (Kleene-sound), rewrite implications, and
# pull quantifiers with parity-aligned block merging so the prefix realizes
# the classifier's minimal profile.  Bounded quantifiers over Delta-0 scopes
# stay in the matrix; over anything higher they become guarded unbounded ones.
# Both passes are steps of syntax.walk (see _nnf and _SlotAssigner), so
# neither recurses, and fresh variables are drawn in the walk's pre-order.
#
# The class bound classify(prenex(f)) <= classify(f) holds when every
# designated atom in f is Delta-0 declared.  Higher declared atoms are opaque:
# their virtual quantifier content cannot merge into extracted blocks, so a
# pulled block can land above a Sigma-n atom and raise the folded count.


def _has_unbounded(f: Formula) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (All, Ex)):
            return True
        stack.extend(c for c in g._children() if isinstance(c, Formula))
    return False


# the connective or quantifier a negation turns each kind into
_DUAL = {And: Or, Or: And, All: Ex, Ex: All, BAll: BEx, BEx: BAll}
_ATOMS = (EqAtom, LeAtom, DAtom)


def _nnf(f: Formula, neg: bool) -> Formula:
    """Negation normal form of f (of ~f when neg), implications rewritten;
    one walk with the polarity as context."""
    return walk(f, neg, _nnf_step)


def _nnf_step(g, neg: bool):
    t = type(g)
    if t is Not:
        return SPLICE, ((g.arg, not neg),)
    if t is Imp:
        return ((And if neg else Or), ()), ((g.left, not neg), (g.right, neg))
    if t in _ATOMS:
        return (Not(g) if neg else g), None
    if isinstance(g, Term):  # a bounded quantifier's bound
        return g, None
    if t not in _DUAL:
        raise TypeError(f"not a formula: {g!r}")
    return ((_DUAL[t], g._leaf_key()) if neg else None), [(c, neg) for c in g._children()]


class _SlotAssigner:
    """Top-down placement of pulled binders into the target profile.

    The target alternation profile comes from the classifier; each binder is
    renamed fresh and dropped into the first slot of its kind at or below the
    current window, which is exactly the placement the classifier's recursion
    counts.  The walk's context is (window, renaming): the renaming maps each
    pulled binder's variable to its fresh one, and window None marks a
    Delta-0 bounded scope, which stays in the matrix and is only renamed."""

    def __init__(self, first: str, length: int, fresh: Iterator[int], scopes: dict):
        other = "A" if first == "E" else "E"
        self.kinds = [(first, other)[i % 2] for i in range(length)]
        self.fresh = fresh
        self.slots: list[list[int]] = [[] for _ in range(length)]
        self.scopes = scopes  # _mins of each NNF quantifier's scope, by id

    def assign(self, g, ctx):
        window, ren = ctx
        if isinstance(g, Term):  # an atom's argument or a Delta-0 scope's bound
            return (g if ren.keys().isdisjoint(term_vars(g)) else walk(g, ren, _map_term)), None
        t = type(g)
        if t is And or t is Or or t is Not or t in _ATOMS:
            return None, [(c, ctx) for c in g._children()]
        if t is All or t is Ex:
            pos = window if self.kinds[window] == ("A" if t is All else "E") else window + 1
            assert pos < len(self.kinds), "prenex slot overflow"
            nv = next(self.fresh)
            self.slots[pos].append(nv)
            return SPLICE, ((g.body, (pos, {**ren, g.var: Var(nv)})),)
        if t is BAll or t is BEx:
            if window is not None and self.scopes[id(g)] != (0, 0):
                # a scope above Delta-0 is pulled in guarded form (it raises
                # the class exactly like an unbounded quantifier)
                guard = LeAtom(Var(g.var), g.bound)
                pulled = All(g.var, Or(Not(guard), g.body)) if t is BAll else Ex(g.var, And(guard, g.body))
                return SPLICE, ((pulled, ctx),)
            inner = {k: x for k, x in ren.items() if k != g.var}
            return None, ((g.bound, ctx), (g.body, (None, inner)))
        raise TypeError(f"unexpected in NNF: {g!r}")


def prenex(f: Formula) -> Formula:
    rest = f
    while isinstance(rest, (All, Ex)):
        rest = rest.body
    if not _has_unbounded(rest):
        return f  # already prenex
    nnf = _nnf(f, False)
    scopes: dict = {}
    s, p = _mins(nnf, scopes)
    first, length = ("E", s) if s <= p else ("A", p)
    assigner = _SlotAssigner(first, max(length, 1), itertools.count(max_var(f) + 1), scopes)
    out = walk(nnf, (0, {}), assigner.assign)
    for kind, slot in reversed(list(zip(assigner.kinds, assigner.slots))):
        for v in reversed(slot):
            out = All(v, out) if kind == "A" else Ex(v, out)
    return out


# ---------------------------------------------------------------------------
# Collection rewrite


class PatternError(ValueError):
    pass


def collection_rewrite(f: Formula, base: str) -> tuple[Formula, ComplexityClass]:
    """Witness-sequence form of a bounded-universal block over an existential
    matrix, with the class certificate "matrix class, modulo base".

    Input shapes accepted:
      * (BAll)+ over [guard ->] Ex y. body   -- the existential is pulled out
        in front as a single sequence variable s, and body(y) becomes
        E w<=s (SeqAt(s,k,w) /\\ body(w)) where k is the outermost bounded
        variable;
      * a formula whose leading existential is already in front (no bounded
        block to commute with) -- returned unchanged, certificate only.
    """
    # Case: nothing to commute; certify only.
    blocks: list[tuple[int, Term]] = []
    g = f
    while isinstance(g, BAll):
        blocks.append((g.var, g.bound))
        g = g.body
    if not blocks:
        if isinstance(g, (Ex, BEx)):
            body = g.body
            cls = classify(body)
            return f, ComplexityClass(cls.kind, cls.level, modulo=base)
        raise PatternError("pattern not applicable: no bounded-universal block and no leading existential")

    guard = None
    if isinstance(g, Imp):
        guard, g = g.left, g.right
    if not isinstance(g, (Ex, BEx)):
        raise PatternError("pattern not applicable: matrix is not existential")
    y = g.var
    body = g.body
    inner_cls = classify(body)

    top = max_var(f) + 1
    s_var = top
    w_var = top + 1
    k_var = blocks[0][0]

    # access to the k-th stored witness is spelled with both directions of
    # the functional sequence-component graph, so the class of the body is
    # what the matrix classifies at (the bounded quantifiers absorb)
    seq_here = DAtom("SeqAt", (), (Var(s_var), Var(k_var), Var(w_var)))
    witness = And(
        BEx(w_var, Var(s_var), seq_here),
        BAll(w_var, Var(s_var), Imp(seq_here, substitute(body, y, Var(w_var)))),
    )
    matrix = witness if guard is None else Imp(guard, witness)
    out: Formula = matrix
    for v, b in reversed(blocks):
        out = BAll(v, b, out)
    out = Ex(s_var, out)
    return out, ComplexityClass(inner_cls.kind, inner_cls.level, modulo=base)
