"""Conjunction padding and elementary presentations of enumerated axiom sets.

The i-th axiom of a stream is presented as the (i+1)-fold right-nested
conjunction of itself, so membership is decidable by inspecting the padded
formula alone: strip the padding, read off the multiplicity s, and compare
against the (s-1)-th stream element.  Logical equivalence of each padded
axiom with its source is certified by explicit Hilbert proofs built from
conjunction introduction/elimination.
"""

from __future__ import annotations

from . import coding, refs
from .coding import Proof, Step, scheme_instance
from .syntax import And, DAtom, Formula, Imp, Var, free_vars
from .theories import TheoryPresentation


class CraigError(ValueError):
    pass


def pad_conjunction(phi: Formula, s: int) -> Formula:
    """Right-nested conjunction of s copies of phi; s >= 1."""
    if s < 1:
        raise CraigError("padding length must be at least 1")
    if free_vars(phi):
        raise CraigError("can only pad a sentence")
    out = phi
    for _ in range(s - 1):
        out = And(phi, out)
    return out


def pad_decompositions(f: Formula) -> list[tuple[Formula, int]]:
    """All (phi, s) with f = pad_conjunction(phi, s).  A conjunction can pad
    in more than one way (pad(a/\\a, 1) = pad(a, 2)); membership tests try
    each decomposition against the stream."""
    spine = [f]
    g = f
    while isinstance(g, And):
        g = g.right
        spine.append(g)
    out = []
    for s in range(1, len(spine) + 1):
        phi = spine[s - 1]
        head = f
        ok = True
        for _ in range(s - 1):
            if not isinstance(head, And) or head.left != phi:
                ok = False
                break
            head = head.right
        if ok and head == phi:
            out.append((phi, s))
    return out


def craig_presentation(base: TheoryPresentation) -> TheoryPresentation:
    """Elementary presentation of base's stream by padding: presented axiom i
    is pad_conjunction(base[i], i+1)."""
    ref = refs.CraigRef(base.ref)
    axf = DAtom("AxOf", (ref,), (Var(0),))

    def enum(i: int) -> Formula:
        return pad_conjunction(base.enumerator(i), i + 1)

    return TheoryPresentation(
        f"craig({base.name})", ref, axf, enum, coding.encode_ref(ref), base.finite_size
    )


def craig_member(base: TheoryPresentation, f: Formula) -> bool:
    """Membership in the padded presentation, by inspection of f alone."""
    for phi, s in pad_decompositions(f):
        if base.finite_size is not None and s - 1 >= base.finite_size:
            continue
        try:
            src = base.enumerator(s - 1)
        except (IndexError, StopIteration):
            continue
        if src == phi:
            return True
    return False


# ---------------------------------------------------------------------------
# Equivalence certificates (pure-logic Hilbert proofs)


def _self_implication_steps(a: Formula) -> list:
    """The classic 5-step derivation of a -> a from K and S."""
    aa = Imp(a, a)
    k1 = scheme_instance("K", a, aa)
    s1 = scheme_instance("S", a, aa, a)
    k2 = scheme_instance("K", a, a)
    return [
        Step(k1, ("logical", "K")),
        Step(s1, ("logical", "S")),
        Step(s1.right, ("mp", 1, 0)),
        Step(k2, ("logical", "K")),
        Step(aa, ("mp", 2, 3)),
    ]


def padded_to_source_proof(phi: Formula, s: int):
    """Proof of pad_conjunction(phi, s) -> phi from logical axioms."""
    if s == 1:
        return Proof(tuple(_self_implication_steps(phi)))
    pad = pad_conjunction(phi, s)
    return Proof((Step(scheme_instance("AND-E1", phi, pad.right), ("logical", "AND-E1")),))


def source_to_padded_proof(phi: Formula, s: int):
    """Proof of phi -> pad_conjunction(phi, s), by iterated conjunction
    introduction composed through the S axiom."""
    steps = _self_implication_steps(phi)
    have = Imp(phi, phi)  # phi -> pad_1
    cur = phi
    for _ in range(s - 1):
        nxt = And(phi, cur)
        andi = scheme_instance("AND-I", phi, cur)  # phi -> (cur -> nxt)
        s_ax = scheme_instance("S", phi, cur, nxt)  # andi -> (have -> (phi -> nxt))
        steps.append(Step(andi, ("logical", "AND-I")))
        steps.append(Step(s_ax, ("logical", "S")))
        steps.append(Step(s_ax.right, ("mp", len(steps) - 1, len(steps) - 2)))
        steps.append(Step(Imp(phi, nxt), ("mp", len(steps) - 1, _index_of(steps, have))))
        have = Imp(phi, nxt)
        cur = nxt
    return Proof(tuple(steps))


def _index_of(steps, formula) -> int:
    for i, st in enumerate(steps):
        if st.formula == formula:
            return i
    raise CraigError("internal: missing step")


def equivalence_certificates(base: TheoryPresentation, i: int):
    """(padded -> source, source -> padded) proofs for stream element i."""
    phi = base.enumerator(i)
    s = i + 1
    return padded_to_source_proof(phi, s), source_to_padded_proof(phi, s)
