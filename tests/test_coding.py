import random

import pytest

from conseq import refs
from conseq.coding import (
    ArityMismatch,
    NotACode,
    decode,
    decode_ref,
    encode,
    encode_ref,
    machine_index,
    machine_parts,
    seq_at,
    seq_decode,
    seq_encode,
    subst_code,
    try_decode_formula,
)
from conseq.gen import random_formula
from conseq.semantics import Proof, Step, decode_proof, encode_proof
from conseq.syntax import (
    Add,
    All,
    And,
    BAll,
    BEx,
    DAtom,
    EqAtom,
    Ex,
    Exp,
    Imp,
    LeAtom,
    Mul,
    Not,
    Or,
    Succ,
    Var,
    ZERO,
    numeral,
    parse_formula,
    substitute,
)


def test_zero_constant():
    # sentinel byte 0x5A followed by the zero tag 0x01
    assert encode(ZERO) == 0x5A01


_x0, _x1, _one = Var(0), Var(1), Succ(ZERO)
_eq = EqAtom(_x0, ZERO)
_le = LeAtom(_x0, _x0)

# One object per node tag, per atom-parameter kind, per theory-reference kind,
# plus one proof and one sequence, with the exact code docs/coding.md gives it.
GOLDEN_CODES = [
    ("zero", ZERO, 0x5A01),
    ("var", Var(300), 0x5A02AC02),
    ("succ", _one, 0x5A0301),
    ("add", Add(_x0, _one), 0x5A0402000301),
    ("mul", Mul(_one, _x1), 0x5A0503010201),
    ("exp", Exp(_x1, _x0), 0x5A0602010200),
    ("eq", _eq, 0x5A10020001),
    ("le", LeAtom(_x1, _one), 0x5A1102010301),
    ("atom", DAtom("SeqAt", (), (_x0, _one, _x1)), 0x5A120553657141740003020003010201),
    ("not", Not(_eq), 0x5A1310020001),
    ("and", And(_eq, LeAtom(_x0, _x1)), 0x5A14100200011102000201),
    ("or", Or(_eq, Not(_eq)), 0x5A15100200011310020001),
    ("imp", Imp(Not(_eq), _eq), 0x5A16131002000110020001),
    ("all", All(0, _eq), 0x5A170010020001),
    ("ex", Ex(130, _eq), 0x5A18820110020001),
    ("ball", BAll(0, _x1, _eq), 0x5A1900020110020001),
    ("bex", BEx(2, Add(_x0, _x1), _eq), 0x5A1A02040200020110020001),
    ("param-nat", DAtom("InSigma", (70000,), (_x0,)), 0x5A1207496E5369676D61012003011170010200),
    ("param-str", DAtom("TrueSeqAt", ("Sigma", 1), (_x0, _one, _x1)), 0x5A12095472756553657141740221055369676D6120010103020003010201),
    ("param-ref", DAtom("Prf", (refs.Ext(refs.Named("EA"), 5),), (_x0, _x1)), 0x5A12035072660122020102454101050202000201),
    ("param-formula", DAtom("F", (All(1, _eq),), ()), 0x5A120146012317011002000100),
    ("param-term", DAtom("F", (Mul(_x0, _one),), (ZERO,)), 0x5A120146012405020003010101),
    ("ref-named", refs.Named("EA"), 0x5A2201024541),
    ("ref-ext", refs.Ext(refs.Named("Q"), 300), 0x5A220201015102012C),
    ("ref-slipext", refs.SlipExt(refs.Named("EA"), 0, 1 << 20), 0x5A2203010245410003100000),
    ("ref-momega", refs.MOmega(2, refs.Named("EA")), 0x5A2204010201024541),
    ("ref-mach", refs.Mach(256), 0x5A2205020100),
    ("ref-craig", refs.CraigRef(refs.Mach(9)), 0x5A2206050109),
    (
        "proof",
        Proof(
            (
                Step(_eq, ("axiom",)),
                Step(Imp(_eq, Imp(_le, _eq)), ("logical", "K")),
                Step(Imp(_le, _eq), ("mp", 0, 1)),
                Step(All(0, Imp(_le, _eq)), ("gen", 2)),
            )
        ),
        0x5A300410020001311610020001161102000200100200013200161102000200100200013300011700161102000200100200013402,
    ),
    ("sequence", [0, 5, 300, 1 << 64], 0x5A400400010502012C09010000000000000000),
]


@pytest.mark.parametrize("obj,code", [g[1:] for g in GOLDEN_CODES], ids=[g[0] for g in GOLDEN_CODES])
def test_golden_codes(obj, code):
    if isinstance(obj, Proof):
        assert encode_proof(obj) == code and decode_proof(code) == obj
    elif isinstance(obj, list):
        assert seq_encode(obj) == code and seq_decode(code) == obj
    elif isinstance(obj, (refs.Named, refs.Ext, refs.SlipExt, refs.MOmega, refs.Mach, refs.CraigRef)):
        assert encode_ref(obj) == code and decode_ref(code) == obj
    else:
        assert encode(obj) == code and decode(code) == obj


def test_roundtrip_corpus():
    rng = random.Random(23)
    seen = set()
    for _ in range(2000):
        f = random_formula(rng, 6, [0, 1, 2])
        c = encode(f)
        assert decode(c) == f
        seen.add(c)
    # injectivity: distinct formulas got distinct codes across the corpus
    assert len(seen) >= 1500


def test_collision_search():
    rng = random.Random(29)
    pairs = 0
    while pairs < 2000:
        f = random_formula(rng, 4, [0, 1])
        g = random_formula(rng, 4, [0, 1])
        if f == g:
            continue
        assert encode(f) != encode(g)
        pairs += 1


def test_decode_junk_small_values():
    failures = 0
    for n in range(0, 300):
        try:
            decode(n)
        except NotACode:
            failures += 1
    assert failures >= 299  # 0x5A01 (= 23041) is far above this range


def test_decode_is_partial_not_junk_tolerant():
    c = encode(parse_formula("0=0"))
    with pytest.raises(NotACode):
        decode(c + 1)


# Atoms of registered names that their declarations reject: TrueSigma with
# the params ("Sigma", 1), and InSigma[1] with no argument.
MALFORMED_ATOMS = [
    ("truesigma-str-level", 0x5A1209547275655369676D610221055369676D61200101010200),
    ("insigma-no-arg", 0x5A1207496E5369676D610120010100),
]


@pytest.mark.parametrize("code", [m[1] for m in MALFORMED_ATOMS], ids=[m[0] for m in MALFORMED_ATOMS])
def test_malformed_registered_atom_is_a_non_code(code):
    with pytest.raises(NotACode):
        decode(code)
    assert try_decode_formula(code) is None


# A name or string that is not UTF-8: an atom name, a string parameter and a
# named reference, each holding the single byte 0xFF.
NOT_UTF8_ATOM = int.from_bytes(bytes([0x5A, 0x12, 0x01, 0xFF, 0x00, 0x00]), "big")
NOT_UTF8_STR_PARAM = int.from_bytes(bytes([0x5A, 0x12, 0x01, 0x46, 0x01, 0x21, 0x01, 0xFF, 0x00]), "big")
NOT_UTF8_REF = int.from_bytes(bytes([0x5A, 0x22, 0x01, 0x01, 0xFF]), "big")


@pytest.mark.parametrize("code", [NOT_UTF8_ATOM, NOT_UTF8_STR_PARAM], ids=["atom-name", "str-param"])
def test_string_that_is_not_utf8_makes_a_non_code(code):
    with pytest.raises(NotACode, match="not UTF-8"):
        decode(code)
    assert try_decode_formula(code) is None


def test_reference_name_that_is_not_utf8_makes_a_non_code():
    with pytest.raises(NotACode, match="not UTF-8"):
        decode_ref(NOT_UTF8_REF)


def test_seq_roundtrip():
    assert seq_decode(seq_encode([])) == []
    s = seq_encode([7, 7, 7])
    assert seq_at(s, 2) == 7
    rng = random.Random(31)
    for _ in range(100):
        items = [rng.randrange(0, 1 << rng.randrange(1, 64)) for _ in range(rng.randrange(0, 64))]
        s = seq_encode(items)
        assert seq_decode(s) == items
        for k, v in enumerate(items):
            assert seq_at(s, k) == v


def test_seq_component_below_code():
    rng = random.Random(37)
    for _ in range(50):
        items = [rng.randrange(0, 1 << 40) for _ in range(rng.randrange(1, 8))]
        s = seq_encode(items)
        assert all(v < s for v in items)


def test_seq_out_of_range():
    with pytest.raises(IndexError):
        seq_at(seq_encode([1, 2]), 2)


def test_subst_code_basic():
    z = encode(EqAtom(Var(0), Var(1)))
    expect = encode(EqAtom(numeral(1), Var(1)))
    assert subst_code(z, 0) == expect


def test_subst_code_closed_unchanged():
    z = encode(parse_formula("0=0"))
    for n in (0, 3, 17):
        assert subst_code(z, n) == z


def test_subst_code_matches_decode_substitute_encode():
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        f = random_formula(rng, 4, [0, 1])
        from conseq.syntax import free_vars

        fv = sorted(free_vars(f))
        if len(fv) > 2:
            continue
        n = rng.randrange(0, 5)
        z = encode(f)
        want = encode(substitute(f, fv[0], numeral(n + 1))) if fv else z
        assert subst_code(z, n) == want
        checked += 1


def test_subst_code_errors():
    with pytest.raises(NotACode):
        subst_code(5, 0)
    f = parse_formula("((x0=x1\\/x1=x2)\\/x2=x3)")
    with pytest.raises(ArityMismatch):
        subst_code(encode(f), 0)


def test_machine_index_monotone_and_same_enumeration():
    z = encode(EqAtom(Var(0), Var(1)))
    prev = None
    for w in range(101):
        c = machine_index(0, w, z, 2)
        assert machine_parts(c) == (2, 0, z)
        if prev is not None:
            assert c > prev
        prev = c


def test_machine_index_distinct_codes_same_description():
    z = encode(EqAtom(Var(0), Var(1)))
    c0 = machine_index(1, 0, z, 2)
    c1 = machine_index(1, 1, z, 2)
    assert c0 != c1
    assert machine_parts(c0) == machine_parts(c1)


def test_machine_index_rejects_non_code():
    with pytest.raises(NotACode):
        machine_index(0, 0, 6, 2)
