"""Pinned outputs of the standard theories and the streams derived from them.

The digest hashes, for each standard theory name, its finite size, machine
code, axiom formula, first 200 axioms and marker sentence; schematic
membership of every one of those axioms and of a seeded random corpus under
each name, unknown names included; and the first axioms of an extension, an
m-omega theory, a machine stream and the toy culprit.  A change to the way a
theory is declared or enumerated that alters one verdict or one axiom
changes the digest.
"""

import hashlib
import random

from conseq import coding
from conseq.gen import random_formula
from conseq.syntax import falsum, parse_formula, print_formula
from conseq.theories import (
    TheoryError,
    extend,
    m_omega_theory,
    machine_stream,
    marker_sentence,
    member_of_named,
    standard_theory,
    toy_inconsistent_theory,
)

NAMES = ("Q", "ZFstub", "EA", "PA", "BSigma0", "BSigma1", "BSigma2", "ISigma0", "ISigma1", "ISigma2", "ISigma3")
# not standard names, except ISigma01, which reads as level 1
OTHER_NAMES = ("Foo", "EA1", "BSigma", "ISigma01")


def _digest() -> str:
    h = hashlib.sha256()

    def row(text):
        h.update(text.encode() + b"\n")

    corpus = []
    for name in NAMES:
        t = standard_theory(name)
        axioms = t.axioms(200)
        corpus += axioms
        row(f"{name} {t.finite_size} {t.machine_code} {print_formula(t.axiom_formula)}")
        row(f"marker {print_formula(marker_sentence(name))}")
        for a in axioms:
            row(print_formula(a))
    rng = random.Random(20261021)
    corpus += [random_formula(rng, 4, [0, 1, 2]) for _ in range(300)]
    corpus = list(dict.fromkeys(corpus))  # the interleaved streams share EA's axioms
    for name in NAMES + OTHER_NAMES:
        try:
            bits = "".join("1" if member_of_named(name, f) else "0" for f in corpus)
        except TheoryError:
            bits = "TheoryError"
        row(f"member {name} {bits}")

    z = coding.encode(parse_formula("(x0=x1\\/x1=0)"))
    mach = machine_stream(coding.machine_index(0, 0, z, 1))
    ea = standard_theory("EA")
    streams = {
        "extend": extend(standard_theory("BSigma1"), falsum()).enumerator,
        "momega": m_omega_theory(2, ea).enumerator,
        "machine": mach,
        "toy": toy_inconsistent_theory()[0].enumerator,
    }
    for label, enum in streams.items():
        for i in range(8):
            row(f"{label} {print_formula(enum(i))}")
    return h.hexdigest()


THEORY_DIGEST = "6b8a966a33091192d47afc5b9cde9af580c0c94a3e094ba38806bccc879721b7"


def test_theory_digest():
    assert _digest() == THEORY_DIGEST
