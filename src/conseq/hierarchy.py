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
    Term,
    Var,
    max_var,
    substitute,
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


def _mins(f: Formula) -> tuple[int, int]:
    """(least n with f in Sigma_n, least k with f in Pi_k); an iterative
    post-order walk, so nesting depth is not bounded by the recursion limit."""
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
#
# The class bound classify(prenex(f)) <= classify(f) holds when every
# designated atom in f is Delta-0 declared.  Higher declared atoms are opaque:
# their virtual quantifier content cannot merge into extracted blocks, so a
# pulled block can land above a Sigma-n atom and raise the folded count.


def _peel(f: Formula):
    prefix = []
    while isinstance(f, (All, Ex)):
        prefix.append(("A" if isinstance(f, All) else "E", f.var))
        f = f.body
    return prefix, f


def _has_unbounded(f: Formula) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (All, Ex)):
            return True
        for c in g._children():
            if isinstance(c, Formula):
                stack.append(c)
    return False


# the connective or quantifier a negation turns each kind into
_DUAL = {And: Or, Or: And, All: Ex, Ex: All, BAll: BEx, BEx: BAll}


def _nnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, (EqAtom, LeAtom, DAtom)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.arg, not neg)
    if isinstance(f, Imp):
        if neg:
            return And(_nnf(f.left, False), _nnf(f.right, True))
        return Or(_nnf(f.left, True), _nnf(f.right, False))
    if type(f) not in _DUAL:
        raise TypeError(f"not a formula: {f!r}")
    cls = _DUAL[type(f)] if neg else type(f)
    if isinstance(f, (And, Or)):
        return cls(_nnf(f.left, neg), _nnf(f.right, neg))
    if isinstance(f, (All, Ex)):
        return cls(f.var, _nnf(f.body, neg))
    return cls(f.var, f.bound, _nnf(f.body, neg))


class _SlotAssigner:
    """Top-down placement of pulled binders into the target profile.

    The target alternation profile comes from the classifier; each binder is
    renamed fresh and dropped into the first slot of its kind at or below the
    current window, which is exactly the placement the classifier's recursion
    counts."""

    def __init__(self, first: str, length: int, fresh: Iterator[int]):
        self.first = first
        self.length = length
        self.fresh = fresh
        self.slots: list[list[int]] = [[] for _ in range(length)]

    def kind_at(self, i: int) -> str:
        if i % 2 == 0:
            return self.first
        return "A" if self.first == "E" else "E"

    def place(self, kind: str, window: int) -> int:
        pos = window if self.kind_at(window) == kind else window + 1
        assert pos < self.length, "prenex slot overflow"
        return pos

    def assign(self, g: Formula, window: int) -> Formula:
        if isinstance(g, (EqAtom, LeAtom, DAtom)) or (
            isinstance(g, Not) and isinstance(g.arg, (EqAtom, LeAtom, DAtom))
        ):
            return g
        if isinstance(g, (And, Or)):
            return type(g)(self.assign(g.left, window), self.assign(g.right, window))
        if isinstance(g, (All, Ex)):
            kind = "A" if isinstance(g, All) else "E"
            pos = self.place(kind, window)
            nv = next(self.fresh)
            self.slots[pos].append(nv)
            body = substitute(g.body, g.var, Var(nv)) if g.var != nv else g.body
            return self.assign(body, pos)
        if isinstance(g, (BAll, BEx)):
            # Delta-0 scope stays in the matrix; anything higher is pulled in
            # guarded form (it raises the class exactly like an unbounded one)
            if _mins(g.body) == (0, 0):
                return g
            guard = LeAtom(Var(g.var), g.bound)
            if isinstance(g, BAll):
                return self.assign(All(g.var, Or(Not(guard), g.body)), window)
            return self.assign(Ex(g.var, And(guard, g.body)), window)
        raise TypeError(f"unexpected in NNF: {g!r}")


def prenex(f: Formula) -> Formula:
    _, rest = _peel(f)
    if not _has_unbounded(rest):
        return f  # already prenex
    fresh = itertools.count(max_var(f) + 1)
    nnf = _nnf(f, False)
    s, p = _mins(nnf)
    if s <= p:
        first, length = "E", s
    else:
        first, length = "A", p
    assigner = _SlotAssigner(first, max(length, 1), fresh)
    matrix = assigner.assign(nnf, 0)
    out = matrix
    for i in range(assigner.length - 1, -1, -1):
        kind = assigner.kind_at(i)
        for v in reversed(assigner.slots[i]):
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
