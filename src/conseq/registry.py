"""Designated-atom registry: one declaration per atom family.

FAMILIES declares each family once: its argument count, its parameter
signature, its declared complexity class and its functional-graph output
argument.  syntax.DAtom checks every atom of a registered name against its
declaration when the atom is built, so parsing, decoding, substitution and
the public API all reject a malformed atom with ValueError; unregistered
names pass.  The semantics module installs each family's evaluator, solver
and suggester from one table.  Declared classes stand in for full internal
arithmetizations: the classifier trusts them, and the evaluator dispatches
to the meta level.  This module imports nothing from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# Parameter types, each named by what it admits; syntax holds their tests.
# A tuple of identifiers admits exactly those identifiers.
NAT = "a natural"
STR = "a name"
REF = "a theory reference"  # a name or a refs.Ref
FORMULA = "a formula"
KIND = ("Sigma", "Pi", "Delta")
THY = ("idx", "sent")  # PrfGoal's theory: machine index y, or single sentence y


@dataclass
class Family:
    arity: int  # argument count; a variadic family takes this many or more
    params: tuple  # parameter signature
    # declared class: None is Delta 0; (kind, i) is kind at level params[i],
    # where kind is Sigma or Pi, or the index of the parameter holding it
    cls: Optional[tuple] = None
    # index of the argument a functional-graph atom determines from the others
    graph_out: Optional[int] = None
    variadic: bool = False
    # declarations keyed by params[0], each checked in place of this one
    shapes: Optional[dict] = None
    # installed by conseq.semantics, read at call time:
    # evaluator (params, arg values, budget) -> TV3
    evaluator: Optional[Callable] = None
    # solver (params, values of the other args) -> the graph_out value, or None
    solver: Optional[Callable] = None
    # suggester (params, arg terms, var, env, budget) -> [witness]
    suggester: Optional[Callable] = None


# PrfGoal's goal shapes: the goal built from the params and the arguments
# after (p, y), proved over the y-theory
GOALS = {
    "marker": Family(2, (("marker",), THY, STR)),  # [marker, thy, base](p, y): base's marker sentence
    "inhab": Family(4, (("inhab",), THY)),  # [inhab, thy](p, y, s, x): E-instance of binary decode(s) at x+1
    "refl": Family(4, (("refl",), THY, NAT, KIND, NAT)),  # [refl, thy, m, kind, n](p, y, s, x): m-reflection
    "connum": Family(3, (("connum",), THY, NAT)),  # [connum, thy, m](p, y, c): mCon of the theory numerated by c
}

FAMILIES: dict[str, Family] = {
    # -- provability / proof checking ---------------------------------------
    "AxOf": Family(1, (REF,)),  # [ref](x): x codes an axiom of ref
    "Prf": Family(2, (REF,)),  # [ref](p, g): decode(p) proves decode(g) in ref
    "PrfX": Family(3, (REF,)),  # [ref](p, g, e): ... in ref + sentence decode(e)
    "PrfSent": Family(3, ()),  # (p, g, s): ... from the single sentence decode(s)
    "PrfSentX": Family(4, ()),  # (p, g, s, e): ... from decode(s) and decode(e)
    "PrfMachX": Family(4, ()),  # (p, g, y, e): ... over the machine-coded theory y + decode(e)
    "PrfIdx": Family(2, (REF,)),  # [ref](k, g): k-th canonical ref-proof concludes decode(g)
    "PrfEx": Family(2, (REF,)),  # [ref](k, a): decode(k) proves the E-closure of decode(a)
    "PrfSub": Family(2, (REF,), variadic=True),  # [ref](p, f, v1..vk): proof of decode(f) at numerals of vi
    "PrfGoal": Family(2, (tuple(GOALS),), shapes=GOALS),  # [goal, thy, ...](p, y, ...)
    # -- truth predicates ----------------------------------------------------
    "TrueSigma": Family(1, (NAT,), ("Sigma", 0)),  # [n](x)
    "TruePi": Family(1, (NAT,), ("Pi", 0)),  # [n](x)
    "TrueSeqAt": Family(3, (KIND, NAT), (0, 1)),  # [kind,n](a, s, k): True of decode(a) at seq_at(s,k)
    "TrueClAt": Family(3, (KIND, NAT), (0, 1)),  # [kind,n](s, a, b): True of decode(s)(a, b)
    # -- class membership of codes -------------------------------------------
    "InSigma": Family(1, (NAT,)),  # [n](x)
    "InPi": Family(1, (NAT,)),  # [n](x)
    # -- code-level functional graphs ----------------------------------------
    "Diag": Family(3, (), graph_out=2),  # (z, i, y): y = diagonalization of z at var i
    "SeqAt": Family(3, (), graph_out=2),  # (s, k, w): w = k-th component of sequence s
    "MachIdx": Family(4, (NAT,), graph_out=3),  # [m](x, w, z, y): y = machine_index(x, w, z, m)
    "ConSliceAt": Family(3, (NAT,), graph_out=0),  # [m](x, n, z): x = code of mCon of slice n+1 of decode(z)
    "PadConAt": Family(4, (NAT,)),  # [m](x, s, n, z): x = code of the s-fold conjunction of that mCon
    "SliceConj": Family(3, (FORMULA,)),  # [{unary}](x, y, p): x = conj code over the unary-defined slice cut at y
    "RfnInst": Family(3, (REF,)),  # [baseref](x, n, z): x codes a reflection-schema instance
    "IterCon": Family(1, (NAT, REF)),  # [m, ref](x): uniform iterated reflection at stage x
    # -- set-theory stub markers ---------------------------------------------
    "ZfAx": Family(0, (NAT,)),  # [i](): opaque axiom marker
}


class UnknownAtom(KeyError, ValueError):
    """An undeclared atom name: a ValueError at the API, a KeyError to lookups."""

    __str__ = ValueError.__str__  # the message, not KeyError's repr of it


def get_family(name: str) -> Family:
    f = FAMILIES.get(name)
    if f is None:
        raise UnknownAtom(f"unknown designated atom {name!r}")
    return f


def declared_class(name: str, params: tuple) -> tuple:
    """(kind, level) declared for this atom instance, whose params were
    checked against the signature when it was built."""
    cls = get_family(name).cls
    if cls is None:
        return ("Delta", 0)
    kind, level = cls
    return (params[kind] if isinstance(kind, int) else kind, params[level])


def families() -> dict[str, Family]:
    return dict(FAMILIES)
