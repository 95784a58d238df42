"""Theory presentations and reflection-principle formula builders.

A presentation is a named elementary axiom-defining formula together with a
deterministic meta-level axiom stream and a machine code (the Goedel code of
its enumerator description).  Schematic membership (induction, collection)
is decided by shape-parsing candidates, never by searching the stream.
The standard theories are named Q, ZFstub, EA, PA, BSigma<n> and ISigma<n>,
where n is written in ASCII digits (leading zeros allowed).

Designated atoms carry the arithmetization weight: Prf-family atoms are
backed by the proof checker, True-family atoms by budgeted evaluation, and the
code-level atoms (SliceConj, ConSliceAt, ...) by explicit formula
construction plus code comparison.  This is the central, documented
simplification of the toolkit: every desk-scale check concerns formula shape,
classification, fixed points, and standard-model truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import coding, gen, refs
from .coding import Proof, Step
from .hierarchy import ComplexityClass, Sigma, classify, class_leq
from .syntax import (
    Add,
    All,
    And,
    BAll,
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
    code_literal,
    falsum,
    free_vars,
    max_var,
    numeral,
    print_formula,
    substitute,
)


class TheoryError(ValueError):
    pass


@dataclass(frozen=True)
class TheoryPresentation:
    """Elementary presentation: unary membership formula over x0, stream,
    and the machine code of the enumerator description."""

    name: str
    ref: refs.Ref
    axiom_formula: Formula  # unary, free variable x0
    enumerator: Callable[[int], Formula]
    machine_code: int
    finite_size: Optional[int] = None

    def axiom_formula_at(self, t: Term) -> Formula:
        return substitute(self.axiom_formula, 0, t)

    def axioms(self, k: int) -> list[Formula]:
        n = k if self.finite_size is None else min(k, self.finite_size)
        return [self.enumerator(i) for i in range(n)]

    def export_record(self, k: int = 5) -> dict:
        return {
            "name": self.name,
            "axiom_formula": print_formula(self.axiom_formula),
            "machine_code": str(self.machine_code),
            "first_axioms": [print_formula(a) for a in self.axioms(k)],
        }


# ---------------------------------------------------------------------------
# Fixed axiom lists


def _q_axioms() -> list[Formula]:
    x, y, z = Var(0), Var(1), Var(2)
    return [
        # injectivity of successor
        All(0, All(1, Imp(EqAtom(Succ(x), Succ(y)), EqAtom(x, y)))),
        # zero is not a successor
        All(0, Not(EqAtom(ZERO, Succ(x)))),
        # every nonzero number is a successor
        All(0, Imp(Not(EqAtom(x, ZERO)), Ex(1, EqAtom(x, Succ(y))))),
        # recursion equations for +
        All(0, EqAtom(Add(x, ZERO), x)),
        All(0, All(1, EqAtom(Add(x, Succ(y)), Succ(Add(x, y))))),
        # recursion equations for *
        All(0, EqAtom(Mul(x, ZERO), ZERO)),
        All(0, All(1, EqAtom(Mul(x, Succ(y)), Add(Mul(x, y), x)))),
        # <= defined from +
        All(
            0,
            All(
                1,
                And(
                    Imp(LeAtom(x, y), Ex(2, EqAtom(Add(z, x), y))),
                    Imp(Ex(2, EqAtom(Add(z, x), y)), LeAtom(x, y)),
                ),
            ),
        ),
    ]


def _exp_axioms() -> list[Formula]:
    x, y = Var(0), Var(1)
    return [
        All(0, EqAtom(Exp(x, ZERO), Succ(ZERO))),
        All(0, All(1, EqAtom(Exp(x, Succ(y)), Mul(Exp(x, y), x)))),
    ]


# ---------------------------------------------------------------------------
# Schema-instance recognizers (shape-parse then rebuild and compare)


def match_induction(f: Formula) -> Optional[Formula]:
    g = f
    for _ in range(2):
        if isinstance(g, All) and g.var in (gen.PAR_VAR, gen.WIT_VAR):
            g = g.body
    if not isinstance(g, Imp):
        return None
    right = g.right
    if not (isinstance(right, All) and right.var == gen.IND_VAR):
        return None
    phi = right.body
    try:
        rebuilt = gen.induction_instance(phi)
    except (ValueError, TypeError):
        return None
    return phi if rebuilt == f else None


def match_collection(f: Formula) -> Optional[Formula]:
    g = f
    if isinstance(g, All) and g.var == gen.PAR_VAR:
        g = g.body
    if not (isinstance(g, All) and isinstance(g.body, Imp)):
        return None
    left = g.body.left
    if not (isinstance(left, BAll) and isinstance(left.body, Ex)):
        return None
    phi = left.body.body
    try:
        rebuilt = gen.collection_instance(phi)
    except (ValueError, TypeError):
        return None
    return phi if rebuilt == f else None


# ---------------------------------------------------------------------------
# Standard presentations: one declaration per name family


class _Family(NamedTuple):
    """A name family: its fixed axioms, enumerated before its schema (None:
    EA's stream at even positions, the schema at odd ones); the schema's
    instance builder, recognizer and matrix stream at level n."""

    fixed: Optional[list[Formula]]
    schema: Optional[Callable[[Formula], Formula]] = None
    match: Optional[Callable[[Formula], Optional[Formula]]] = None  # an instance's matrix, or None
    matrix: Callable[[int, int], Formula] = functools.partial(gen.class_formula, "Sigma")  # (n, i) -> i-th
    bounded: bool = False  # member matrices classify at most Sigma(n)
    levelled: bool = False  # names are the family name followed by n

    def instance(self, n: int, i: int) -> Formula:
        return self.schema(self.matrix(n, i))


_Q_AXIOMS = _q_axioms()
_FAMILIES = {
    "Q": _Family(_Q_AXIOMS),
    "ZFstub": _Family([DAtom("ZfAx", (i,), ()) for i in range(10)]),
    "EA": _Family(_Q_AXIOMS + _exp_axioms(), gen.induction_instance, match_induction, bounded=True),
    "PA": _Family(None, gen.induction_instance, match_induction, lambda n, i: gen.class_formula("Sigma", i % 4, i // 4)),
    "BSigma": _Family(None, gen.collection_instance, match_collection, bounded=True, levelled=True),
    "ISigma": _Family(None, gen.induction_instance, match_induction, bounded=True, levelled=True),
}


@coding.cached
def _standard_name(name: str) -> tuple[_Family, int]:
    """Family and level of a standard theory name: Q, ZFstub, EA, PA, or
    BSigma<n> and ISigma<n> with n in ASCII digits."""
    head = name.rstrip("0123456789")
    fam = _FAMILIES.get(head)
    if fam is None or fam.levelled != (head != name):
        raise TheoryError(f"unknown theory name {name!r}")
    return fam, int(name[len(head) :] or 0)


def _stream(fam: _Family, n: int) -> Callable[[int], Formula]:
    if fam.schema is None:
        return fam.fixed.__getitem__
    if fam.fixed is None:
        ea = _stream(_FAMILIES["EA"], 0)
        return lambda i: fam.instance(n, i // 2) if i % 2 else ea(i // 2)
    k = len(fam.fixed)
    return lambda i: fam.fixed[i] if i < k else fam.instance(n, i - k)


def member_of_named(name: str, f: Formula) -> bool:
    """Exact schematic membership for the standard presentations."""
    fam, n = _standard_name(name)
    if fam.fixed is None:
        if member_of_named("EA", f):
            return True
    elif f in fam.fixed:
        return True
    phi = None if fam.match is None else fam.match(f)
    return phi is not None and (not fam.bounded or class_leq(classify(phi), Sigma(n)))


@coding.cached
def standard_theory(name: str) -> TheoryPresentation:
    """Q, EA, PA, ZFstub, BSigma<n>, ISigma<n>."""
    fam, n = _standard_name(name)
    ref = refs.Named(name)
    ax = DAtom("AxOf", (name,), (Var(0),))
    fin = len(fam.fixed) if fam.schema is None else None
    return TheoryPresentation(name, ref, ax, _stream(fam, n), coding.encode_ref(ref), fin)


def _insert(stream: Callable[[int], Formula], pos: int, sentence: Formula) -> Callable[[int], Formula]:
    """stream with sentence enumerated at position pos."""
    return lambda i: stream(i) if i < pos else sentence if i == pos else stream(i - 1)


def extend(base: TheoryPresentation, phi: Formula) -> TheoryPresentation:
    """base + phi: the sentence is enumerated first; membership is a
    disjunction with equality to phi's code literal."""
    if free_vars(phi):
        raise TheoryError("can only extend by a sentence (no free variables)")
    code = coding.encode(phi)
    ref = refs.Ext(base.ref, code)
    label = print_formula(phi)
    if len(label) > 32:
        label = label[:29] + "..."
    axf = Or(base.axiom_formula, EqAtom(Var(0), code_literal(code)))
    fin = None if base.finite_size is None else base.finite_size + 1
    enum = _insert(base.enumerator, 0, phi)
    return TheoryPresentation(f"{base.name}+[{label}]", ref, axf, enum, coding.encode_ref(ref), fin)


# ---------------------------------------------------------------------------
# Provability / consistency / truth builders

_FALSUM_CODE: Optional[int] = None


def falsum_code() -> int:
    global _FALSUM_CODE
    if _FALSUM_CODE is None:
        _FALSUM_CODE = coding.encode(falsum())
    return _FALSUM_CODE


def falsum_literal() -> Term:
    return code_literal(falsum_code())


def prf_formula(T: TheoryPresentation) -> Formula:
    """Prf[T](p, x): binary, Delta-0 declared; p = x0, x = x1."""
    return DAtom("Prf", (_ref_param(T.ref),), (Var(0), Var(1)))


def pr_formula(T: TheoryPresentation) -> Formula:
    """E p. Prf[T](p, x): unary in x0, Sigma-1."""
    return Ex(1, DAtom("Prf", (_ref_param(T.ref),), (Var(1), Var(0))))


def con_formula(T: TheoryPresentation) -> Formula:
    """~E p. Prf[T](p, code of 0=S(0)): Pi-1 sentence."""
    return Not(Ex(0, DAtom("Prf", (_ref_param(T.ref),), (Var(0), falsum_literal()))))


def _ref_param(r: refs.Ref):
    # bare named references live as plain strings inside atom parameters
    return r.name if isinstance(r, refs.Named) else r


def truth_predicate(gamma: ComplexityClass) -> Formula:
    """Unary truth atom for Sigma-n / Pi-n, applied to x0."""
    if gamma.kind == "Delta":
        raise TheoryError("no truth atom for Delta 0; evaluate directly")
    name = "TrueSigma" if gamma.kind == "Sigma" else "TruePi"
    return DAtom(name, (gamma.level,), (Var(0),))


def in_class_atom(kind: str, level: int, arg: Term) -> Formula:
    return DAtom("InSigma" if kind == "Sigma" else "InPi", (level,), (arg,))


def ncon_formula(n: int, T: TheoryPresentation) -> Formula:
    """Single sentence expressing consistency of T with every true Pi-n
    sentence; classifies Pi-(n+1)."""
    phi, p = Var(0), Var(1)
    guard = And(in_class_atom("Pi", n, phi), DAtom("TruePi", (n,), (phi,)))
    con_ext = All(1, Not(DAtom("PrfX", (_ref_param(T.ref),), (p, falsum_literal(), phi))))
    return All(0, Imp(guard, con_ext))


def rfn_gamma_formula(gamma: ComplexityClass, T: TheoryPresentation) -> Formula:
    """A phi in Gamma (Pr_T(phi) -> True_Gamma(phi))."""
    if gamma.kind == "Delta":
        raise TheoryError("Gamma must be Sigma-n or Pi-n")
    phi, p = Var(0), Var(1)
    guard = And(
        in_class_atom(gamma.kind, gamma.level, phi),
        Ex(1, DAtom("Prf", (_ref_param(T.ref),), (p, phi))),
    )
    tname = "TrueSigma" if gamma.kind == "Sigma" else "TruePi"
    return All(0, Imp(guard, DAtom(tname, (gamma.level,), (phi,))))


def rfn_instance_for_ref(ref: refs.Ref, phi: Formula) -> Formula:
    """A x-vec (Pr_T(code of phi at numerals of x-vec) -> phi) for the theory
    T that ref names."""
    fv = sorted(free_vars(phi))
    p = max(max_var(phi) + 1, max(fv, default=-1) + 1)
    code_lit = code_literal(coding.encode(phi))
    rparam = _ref_param(ref)
    if not fv:
        pr = Ex(p, DAtom("Prf", (rparam,), (Var(p), code_lit)))
    else:
        pr = Ex(p, DAtom("PrfSub", (rparam,), tuple([Var(p), code_lit] + [Var(v) for v in fv])))
    body = Imp(pr, phi)
    for v in reversed(fv):
        body = All(v, body)
    return body


def iter_ncon(m: int, k: int, T: TheoryPresentation) -> Formula:
    """k-fold iterated m-reflection: stage 0 is ncon_formula(m, T); stage k+1
    extends T by the stage-k sentence."""
    f = ncon_formula(m, T)
    cur = T
    for _ in range(k):
        cur = extend(cur, f)
        f = ncon_formula(m, cur)
    return f


def m_omega_sentence(m: int, T: TheoryPresentation) -> Formula:
    return All(0, DAtom("IterCon", (m, _ref_param(T.ref)), (Var(0),)))


def m_omega_theory(m: int, T: TheoryPresentation) -> TheoryPresentation:
    """ISigma(m) plus the single uniform iterated-reflection sentence."""
    isig = standard_theory(f"ISigma{m}")
    sent = m_omega_sentence(m, T)
    ref = refs.MOmega(m, T.ref)
    axf = Or(isig.axiom_formula, EqAtom(Var(0), code_literal(coding.encode(sent))))
    enum = _insert(isig.enumerator, 1, sent)
    return TheoryPresentation(f"momega({m},{T.name})", ref, axf, enum, coding.encode_ref(ref))


# ---------------------------------------------------------------------------
# Slice consistency (the Con(tau_n + psi) abbreviation) and its mCon closure


def slice_unary(tau: Formula, idx: int) -> Formula:
    """The unary membership formula of slice idx: tau with its first free
    variable fixed to numeral(idx)."""
    fv = sorted(free_vars(tau))
    if len(fv) != 2:
        raise TheoryError("slice formula must have exactly two free variables")
    return substitute(tau, fv[0], numeral(idx))


def _con_of_numerated(unary: Formula, psi_term: Term, start: int) -> Formula:
    """A x A y (x = code of the conjunction of {phi_z /\\ psi : z <= y, unary(z)}
    -> Con(x)), with Con(x) spelled as no proof of 0=S(0) from the sentence x.
    Quantified variables are taken from start, start+1, start+2."""
    x, y, q = Var(start), Var(start + 1), Var(start + 2)
    antecedent = DAtom("SliceConj", (unary,), (x, y, psi_term))
    con_x = All(start + 2, Not(DAtom("PrfSent", (), (q, falsum_literal(), x))))
    return All(start, All(start + 1, Imp(antecedent, con_x)))


def con_of_slice(tau: Formula, n: int, psi: Formula) -> Formula:
    """Consistency of slice n of tau together with the sentence psi.

    The slice index is used as given; the fixed-point constructions pass n+1
    where the displayed abbreviation concerns the next slice.
    """
    if free_vars(psi):
        raise TheoryError("psi must be a sentence")
    unary = slice_unary(tau, n)
    return _con_of_numerated(unary, code_literal(coding.encode(psi)), max_var(unary) + 1)


def ncon_of_numerated(m: int, unary: Formula) -> Formula:
    """mCon of the theory numerated by a unary formula: for every true Pi-m
    sentence p, the slice conjunctions extended by p stay consistent."""
    top = max_var(unary) + 1
    pv = Var(top)
    inner = _con_of_numerated(unary, pv, top + 1)
    guard = And(in_class_atom("Pi", m, pv), DAtom("TruePi", (m,), (pv,)))
    return All(top, Imp(guard, inner))


def ncon_of_slice(m: int, tau: Formula, idx: int) -> Formula:
    return ncon_of_numerated(m, slice_unary(tau, idx))


def union_unary(base_name: str, unary: Formula) -> Formula:
    """Membership formula of base-theory-union-numerated-set, same free var."""
    fv = sorted(free_vars(unary))
    if len(fv) != 1:
        raise TheoryError("unary membership formula expected")
    return Or(DAtom("AxOf", (base_name,), (Var(fv[0]),)), unary)


def ncon_sent_of(m: int, sent_term: Term, top: int) -> Formula:
    """mCon of the single-sentence theory given by a term (DS blocks)."""
    pv, q = Var(top), Var(top + 1)
    guard = And(in_class_atom("Pi", m, pv), DAtom("TruePi", (m,), (pv,)))
    con = All(top + 1, Not(DAtom("PrfSentX", (), (q, falsum_literal(), sent_term, pv))))
    return All(top, Imp(guard, con))


def ncon_machine_of(m: int, idx_term: Term, top: int) -> Formula:
    """mCon of the machine-indexed theory given by a term (DS blocks)."""
    pv, q = Var(top), Var(top + 1)
    guard = And(in_class_atom("Pi", m, pv), DAtom("TruePi", (m,), (pv,)))
    con = All(top + 1, Not(DAtom("PrfMachX", (), (q, falsum_literal(), idx_term, pv))))
    return All(top, Imp(guard, con))


def marker_sentence(base_name: str) -> Formula:
    """Canonical single axiom standing in for 'proves the base theory' in the
    DS blocks: the first schema instance of BSigma<n> and ISigma<n>, and the
    first enumerated axiom of every other standard theory (for EA and PA
    that is Q's injectivity of successor)."""
    fam, n = _standard_name(base_name)
    if fam.levelled:
        return fam.instance(n, 0)
    return standard_theory(base_name).enumerator(0)


def machine_stream(code: int) -> Callable[[int], Formula]:
    """Axiom stream of a machine description produced by machine_index:
    BSigma(level) axioms with the reflection sentence inserted at position 3."""
    parts = coding.machine_parts(code)
    if parts is None:
        raise TheoryError("not a machine description code")
    level, x, z = parts
    base = standard_theory(f"BSigma{level}")
    t_code = coding.subst_code(z, x)
    unary = coding.decode(t_code)
    if not isinstance(unary, Formula):
        raise TheoryError("machine description does not contain a formula code")
    fv = sorted(free_vars(unary))
    if len(fv) != 1:
        raise TheoryError("substituted slice formula is not unary")
    sent = ncon_of_numerated(level, union_unary(f"BSigma{level}", unary))
    return _insert(base.enumerator, 3, sent)


def toy_inconsistent_theory() -> tuple[TheoryPresentation, Proof]:
    """A deliberately inconsistent culprit: its single axiom is 0=S(0).
    Returns the presentation together with an explicit 2-step proof of the
    falsum (both steps are the axiom itself)."""
    bot = falsum()
    code = coding.encode(bot)
    ref = refs.Ext(refs.Named("Q"), code)
    axf = EqAtom(Var(0), code_literal(code))
    enum = _insert(_Q_AXIOMS.__getitem__, 0, bot)
    pres = TheoryPresentation("Toy!", ref, axf, enum, coding.encode_ref(ref), len(_Q_AXIOMS) + 1)
    proof = Proof((Step(bot, ("axiom",)), Step(bot, ("axiom",))))
    return pres, proof


@coding.cached
def resolve_ref(ref: refs.Ref) -> TheoryPresentation:
    """Presentation for a reference; SlipExt has membership semantics only
    and resolves to its base presentation for enumeration purposes."""
    if isinstance(ref, str):
        ref = refs.Named(ref)
    if isinstance(ref, refs.Named):
        return standard_theory(ref.name)
    if isinstance(ref, refs.Ext):
        base = resolve_ref(ref.base)
        phi = coding.try_decode_formula(ref.code)
        if phi is None:
            raise TheoryError("extension code is not a formula")
        return extend(base, phi)
    if isinstance(ref, refs.MOmega):
        return m_omega_theory(ref.m, resolve_ref(ref.base))
    if isinstance(ref, refs.SlipExt):
        return resolve_ref(ref.base)
    if isinstance(ref, refs.Mach):
        return TheoryPresentation(
            f"mach({ref.code % 10**6}...)",
            ref,
            DAtom("AxOf", (ref,), (Var(0),)),
            machine_stream(ref.code),
            ref.code,
        )
    if isinstance(ref, refs.CraigRef):
        from .craig import craig_presentation

        return craig_presentation(resolve_ref(ref.base))
    raise TheoryError(f"cannot resolve {ref!r}")
