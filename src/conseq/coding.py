"""Canonical injective coding of terms, formulas, proofs, and sequences.

The scheme (normative description in docs/coding.md): every object serializes
to a self-delimiting byte string of tag bytes and minimal varints; the code is
the integer value of the sentinel byte 0x5A followed by that string.  Decoding
is exact and partial: integers outside the image raise NotACode.

Codes are astronomically large for any real formula, which is the honest
situation this toolkit works in: slice dumps over small ranges see only
non-codes, and membership of real formulas is tested at their actual codes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

from . import refs
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
    Zero,
    ZERO,
    numeral,
    parse_formula,
    substitute,
    free_vars,
)

SENTINEL = 0x5A

T_ZERO = 0x01
T_VAR = 0x02
T_SUCC = 0x03
T_ADD = 0x04
T_MUL = 0x05
T_EXP = 0x06

F_EQ = 0x10
F_LE = 0x11
F_ATOM = 0x12
F_NOT = 0x13
F_AND = 0x14
F_OR = 0x15
F_IMP = 0x16
F_ALL = 0x17
F_EX = 0x18
F_BALL = 0x19
F_BEX = 0x1A

P_NAT = 0x20
P_STR = 0x21
P_REF = 0x22
P_FORMULA = 0x23
P_TERM = 0x24

R_NAMED = 0x01
R_EXT = 0x02
R_SLIPEXT = 0x03
R_MOMEGA = 0x04
R_MACH = 0x05
R_CRAIG = 0x06

PR_PROOF = 0x30
J_AXIOM = 0x31
J_LOGICAL = 0x32
J_MP = 0x33
J_GEN = 0x34

S_SEQ = 0x40

MACHINE_DESC_TAG = 7  # first item of a machine description sequence


# The one cache policy of the library: a bounded LRU over pure functions, so
# eviction never changes a result; cache_info() reports hits and misses.
cached = functools.lru_cache(maxsize=4096)


class NotACode(ValueError):
    pass


class ArityMismatch(ValueError):
    pass


def _varint(n: int) -> bytes:
    if n < 0:
        raise ValueError("varint of negative")
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _str_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _varint(len(raw)) + raw


def _nat_bytes(n: int) -> bytes:
    if n == 0:
        return _varint(0)
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return _varint(len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.i = 0

    def byte(self) -> int:
        if self.i >= len(self.data):
            raise NotACode("truncated")
        b = self.data[self.i]
        self.i += 1
        return b

    def varint(self) -> int:
        shift = 0
        val = 0
        while True:
            b = self.byte()
            val |= (b & 0x7F) << shift
            if not (b & 0x80):
                if b == 0 and shift != 0:
                    raise NotACode("non-minimal varint")
                return val
            shift += 7
            if shift > 64 * 7:
                raise NotACode("varint too long")

    def nat(self) -> int:
        ln = self.varint()
        if ln == 0:
            return 0
        if self.i + ln > len(self.data):
            raise NotACode("truncated nat")
        raw = self.data[self.i : self.i + ln]
        self.i += ln
        if raw[0] == 0:
            raise NotACode("non-minimal nat")
        return int.from_bytes(raw, "big")

    def string(self) -> str:
        ln = self.varint()
        if self.i + ln > len(self.data):
            raise NotACode("truncated bytes")
        raw = self.data[self.i : self.i + ln]
        self.i += ln
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise NotACode("string is not UTF-8") from None

    def done(self) -> bool:
        return self.i == len(self.data)


# ---------------------------------------------------------------------------
# Serialization (iterative over the tree)


# reference kind <-> tag; the fields follow the tag in declared order
_REF_TAGS = {
    refs.Named: R_NAMED,
    refs.Ext: R_EXT,
    refs.SlipExt: R_SLIPEXT,
    refs.MOmega: R_MOMEGA,
    refs.Mach: R_MACH,
    refs.CraigRef: R_CRAIG,
}
_REF_KINDS = {tag: cls for cls, tag in _REF_TAGS.items()}


def _ser_ref(r, out: bytearray) -> None:
    if isinstance(r, str):
        r = refs.Named(r)
    tag = _REF_TAGS.get(type(r))
    if tag is None:
        raise TypeError(f"not a theory reference: {r!r}")
    out.append(tag)
    for name, typ in refs.FIELDS[type(r)]:
        x = getattr(r, name)
        if typ is int:
            out += _nat_bytes(x)
        elif typ is str:
            out += _str_bytes(x)
        else:
            _ser_ref(x, out)


def _ser_param(p, out: bytearray) -> None:
    if isinstance(p, bool):
        raise TypeError("bool is not a parameter")
    if isinstance(p, int):
        out.append(P_NAT)
        out += _nat_bytes(p)
    elif isinstance(p, str):
        out.append(P_STR)
        out += _str_bytes(p)
    elif isinstance(p, Formula):
        out.append(P_FORMULA)
        _ser_node(p, out)
    elif isinstance(p, Term):
        out.append(P_TERM)
        _ser_node(p, out)
    else:
        out.append(P_REF)
        _ser_ref(p, out)


def _ser_node(node, out: bytearray) -> None:
    stack = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, Zero):
            out.append(T_ZERO)
        elif isinstance(x, Var):
            out.append(T_VAR)
            out += _varint(x.index)
        elif isinstance(x, Succ):
            out.append(T_SUCC)
            stack.append(x.arg)
        elif isinstance(x, Add):
            out.append(T_ADD)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, Mul):
            out.append(T_MUL)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, Exp):
            out.append(T_EXP)
            stack.append(x.power)
            stack.append(x.base)
        elif isinstance(x, EqAtom):
            out.append(F_EQ)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, LeAtom):
            out.append(F_LE)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, DAtom):
            out.append(F_ATOM)
            out += _str_bytes(x.name)
            out += _varint(len(x.params))
            for p in x.params:
                _ser_param(p, out)
            out += _varint(len(x.args))
            for a in reversed(x.args):
                stack.append(a)
        elif isinstance(x, Not):
            out.append(F_NOT)
            stack.append(x.arg)
        elif isinstance(x, And):
            out.append(F_AND)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, Or):
            out.append(F_OR)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, Imp):
            out.append(F_IMP)
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, All):
            out.append(F_ALL)
            out += _varint(x.var)
            stack.append(x.body)
        elif isinstance(x, Ex):
            out.append(F_EX)
            out += _varint(x.var)
            stack.append(x.body)
        elif isinstance(x, BAll):
            out.append(F_BALL)
            out += _varint(x.var)
            stack.append(x.body)
            stack.append(x.bound)
        elif isinstance(x, BEx):
            out.append(F_BEX)
            out += _varint(x.var)
            stack.append(x.body)
            stack.append(x.bound)
        else:
            raise TypeError(f"not encodable: {x!r}")


def serialize(node) -> bytes:
    out = bytearray()
    _ser_node(node, out)
    return bytes(out)


# ---------------------------------------------------------------------------
# Deserialization (iterative with reduction frames)

# tag -> (node class, whether varint(index/var) follows the tag, number of
# children); the children follow in field order.  The designated atom (F_ATOM)
# is the one kind with its own layout.
_NODE_LAYOUT = {
    T_ZERO: (Zero, False, 0),
    T_VAR: (Var, True, 0),
    T_SUCC: (Succ, False, 1),
    T_ADD: (Add, False, 2),
    T_MUL: (Mul, False, 2),
    T_EXP: (Exp, False, 2),
    F_EQ: (EqAtom, False, 2),
    F_LE: (LeAtom, False, 2),
    F_NOT: (Not, False, 1),
    F_AND: (And, False, 2),
    F_OR: (Or, False, 2),
    F_IMP: (Imp, False, 2),
    F_ALL: (All, True, 1),
    F_EX: (Ex, True, 1),
    F_BALL: (BAll, True, 2),
    F_BEX: (BEx, True, 2),
}


def _read_ref(r: _Reader):
    kind = r.byte()
    cls = _REF_KINDS.get(kind)
    if cls is None:
        raise NotACode(f"bad ref kind {kind}")
    return cls(
        *[r.nat() if typ is int else r.string() if typ is str else _read_ref(r) for _, typ in refs.FIELDS[cls]]
    )


def _read_param(r: _Reader):
    kind = r.byte()
    if kind == P_NAT:
        return r.nat()
    if kind == P_STR:
        return r.string()
    if kind == P_REF:
        ref = _read_ref(r)
        # Bare named references normalize to plain strings (parse-stable form).
        return ref.name if isinstance(ref, refs.Named) else ref
    if kind == P_FORMULA:
        return _read_node(r)
    if kind == P_TERM:
        return _read_node(r)
    raise NotACode(f"bad param kind {kind}")


def _read_node(r: _Reader):
    # frames: [class, leading constructor args, children wanted, children got]
    frames: list[list] = []
    while True:
        tag = r.byte()
        layout = _NODE_LAYOUT.get(tag)
        if layout is not None:
            cls, indexed, want = layout
            lead = (r.varint(),) if indexed else ()
        elif tag == F_ATOM:
            name = r.string()
            nparams = r.varint()
            if nparams > 64:
                raise NotACode("too many params")
            params = tuple(_read_param(r) for _ in range(nparams))
            want = r.varint()
            if want > 64:
                raise NotACode("too many args")
            cls, lead = DAtom, (name, params)
        else:
            raise NotACode(f"bad tag {tag}")
        if want:
            frames.append([cls, lead, want, []])
            continue
        got: list = []
        # build the node, then every frame it completes
        while True:
            try:
                if cls is DAtom:
                    node = DAtom(*lead, tuple(got))
                elif cls is Zero:
                    node = ZERO
                else:
                    node = cls(*lead, *got)
            except (TypeError, ValueError) as e:
                raise NotACode(str(e))
            if not frames:
                return node
            cls, lead, want, got = frames[-1]
            got.append(node)
            if len(got) < want:
                break
            frames.pop()


# ---------------------------------------------------------------------------
# Public interface


def encode(obj: Union[Formula, Term]) -> int:
    """Goedel code of a term or formula: injective, deterministic."""
    body = serialize(obj)
    return int.from_bytes(bytes([SENTINEL]) + body, "big")


def _body(n: int) -> _Reader:
    if n <= 0:
        raise NotACode("not a code")
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    if raw[0] != SENTINEL:
        raise NotACode("missing sentinel")
    return _Reader(raw[1:])


def decode(n: int) -> Union[Formula, Term]:
    """Inverse of encode on its image; raises NotACode elsewhere."""
    r = _body(n)
    node = _read_node(r)
    if not r.done():
        raise NotACode("trailing bytes")
    return node


def decode_formula(n: int) -> Formula:
    node = decode(n)
    if not isinstance(node, Formula):
        raise NotACode("code of a term, not a formula")
    return node


def try_decode_formula(n: int):
    try:
        return decode_formula(n)
    except NotACode:
        return None


def encode_ref(r) -> int:
    out = bytearray()
    _ser_ref(r, out)
    return int.from_bytes(bytes([SENTINEL, P_REF]) + bytes(out), "big")


def decode_ref(n: int):
    r = _body(n)
    if r.byte() != P_REF:
        raise NotACode("not a reference code")
    ref = _read_ref(r)
    if not r.done():
        raise NotACode("trailing bytes")
    return ref


# ---------------------------------------------------------------------------
# Hilbert proofs


@dataclass(frozen=True)
class Step:
    formula: Formula
    # a justification: ("axiom",) | ("logical", scheme) | ("mp", i, j) | ("gen", i)
    just: tuple


@dataclass(frozen=True)
class Proof:
    steps: tuple

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


# The logical schemes in code order: a "logical" step codes its scheme's
# index here.  Each shape is written in the printer's syntax over the formula
# metavariables P(), Q(), R() and, in EQ-REFL, the term metavariable x0.
# ALL-E and ALL-DIST have side conditions, so semantics.match_scheme checks
# them and they have no pattern.
_SCHEME_SHAPES = (
    ("K", r"(P()->(Q()->P()))"),
    ("S", r"((P()->(Q()->R()))->((P()->Q())->(P()->R())))"),
    ("CONTRA", r"((~P()->~Q())->(Q()->P()))"),
    ("AND-E1", r"((P()/\Q())->P())"),
    ("AND-E2", r"((P()/\Q())->Q())"),
    ("AND-I", r"(P()->(Q()->(P()/\Q())))"),
    ("OR-I1", r"(P()->(P()\/Q()))"),
    ("OR-I2", r"(P()->(Q()\/P()))"),
    ("OR-E", r"((P()->R())->((Q()->R())->((P()\/Q())->R())))"),
    ("ALL-E", None),
    ("ALL-DIST", None),
    ("EQ-REFL", r"x0=x0"),
)
SCHEMES = tuple(name for name, _ in _SCHEME_SHAPES)
SCHEME_PATTERNS = {name: parse_formula(text) for name, text in _SCHEME_SHAPES if text}
# metavariable -> its position in the parts of scheme_instance, and its key
# in the binding of is_scheme_instance
_METAVARS = {Var(0): 0, **{DAtom(name, (), ()): i for i, name in enumerate("PQR")}}


def scheme_instance(scheme: str, *parts) -> Formula:
    """The scheme's pattern with P(), Q(), R() (or x0) replaced by parts, in
    that order."""

    def fill(p):
        i = _METAVARS.get(p)
        return parts[i] if i is not None else type(p)(*map(fill, p._children()))

    return fill(SCHEME_PATTERNS[scheme])


def is_scheme_instance(scheme: str, f: Formula) -> bool:
    """Whether f fills the scheme's pattern: a metavariable binds the node at
    its first occurrence and must equal it at every later one; any other
    pattern node needs a node of its type.  The walk follows the pattern, so
    its depth is the pattern's, not f's."""
    bound: dict = {}

    def match(p, g) -> bool:
        i = _METAVARS.get(p)
        if i is not None:
            return bound.setdefault(i, g) == g
        return type(p) is type(g) and all(map(match, p._children(), g._children()))

    return match(SCHEME_PATTERNS[scheme], f)


# justification kind -> (tag, number of arguments).  Each argument is coded as
# a varint: a step index, or for "logical" the scheme's index in SCHEMES.
JUSTIFICATIONS = {"axiom": (J_AXIOM, 0), "logical": (J_LOGICAL, 1), "mp": (J_MP, 2), "gen": (J_GEN, 1)}
_JUST_KINDS = {tag: (kind, arity) for kind, (tag, arity) in JUSTIFICATIONS.items()}


def encode_proof(p: Proof) -> int:
    out = bytearray([PR_PROOF])
    out += _varint(len(p.steps))
    for st in p.steps:
        _ser_node(st.formula, out)
        kind, *args = st.just
        tag, arity = JUSTIFICATIONS.get(kind, (None, None))
        if len(args) != arity:
            raise ValueError(f"bad justification {st.just!r}")
        out.append(tag)
        for a in args:
            out += _varint(SCHEMES.index(a) if kind == "logical" else a)
    return int.from_bytes(bytes([SENTINEL]) + bytes(out), "big")


def decode_proof(n: int) -> Proof:
    r = _body(n)
    if r.byte() != PR_PROOF:
        raise NotACode("not a proof code")
    count = r.varint()
    if count > 100_000:
        raise NotACode("proof too long")
    steps = []
    for _ in range(count):
        f = _read_node(r)
        if not isinstance(f, Formula):
            raise NotACode("proof step is not a formula")
        kind, arity = _JUST_KINDS.get(r.byte(), (None, 0))
        if kind is None:
            raise NotACode("bad justification tag")
        args = [r.varint() for _ in range(arity)]
        if kind == "logical":
            if args[0] >= len(SCHEMES):
                raise NotACode("bad scheme index")
            args = [SCHEMES[args[0]]]
        steps.append(Step(f, (kind, *args)))
    if not r.done():
        raise NotACode("trailing bytes")
    return Proof(tuple(steps))


# ---------------------------------------------------------------------------
# Finite sequences of naturals


def seq_encode(items: list[int]) -> int:
    out = bytearray([S_SEQ])
    out += _varint(len(items))
    for x in items:
        if x < 0:
            raise ValueError("sequence items must be naturals")
        out += _nat_bytes(x)
    return int.from_bytes(bytes([SENTINEL]) + bytes(out), "big")


def seq_decode(s: int) -> list[int]:
    r = _body(s)
    if r.byte() != S_SEQ:
        raise NotACode("not a sequence code")
    n = r.varint()
    if n > 1_000_000:
        raise NotACode("sequence too long")
    items = [r.nat() for _ in range(n)]
    if not r.done():
        raise NotACode("trailing bytes")
    return items


def seq_at(s: int, k: int) -> int:
    items = seq_decode(s)
    if not (0 <= k < len(items)):
        raise IndexError(f"sequence index {k} out of range {len(items)}")
    return items[k]


# ---------------------------------------------------------------------------
# Code-level functions used by the constructions


def subst_code(z: int, n: int) -> int:
    """Code-level substitution: decode z, replace its first (least) free
    variable by numeral(n+1), return the code.  Codes of closed formulas pass
    through unchanged."""
    f = decode(z)
    if not isinstance(f, Formula):
        raise NotACode("not the code of a formula")
    fv = sorted(free_vars(f))
    if len(fv) > 2:
        raise ArityMismatch("formula has more than two free variables")
    if not fv:
        return z
    g = substitute(f, fv[0], numeral(n + 1))
    return encode(g)


def machine_index(x: int, w: int, z: int, level: int) -> int:
    """The w-th machine code enumerating BSigma(level) together with the
    m-reflection sentence for BSigma(level) + the theory numerated by the
    formula coded subst_code(z, x).

    The w-th code is the canonical description padded with w no-op entries,
    so codes are strictly increasing in w while all describe the same
    enumerator.
    """
    if x < 0 or w < 0 or level < 0:
        raise ValueError("arguments must be naturals")
    decode(z)  # validates; raises NotACode otherwise
    items = [MACHINE_DESC_TAG, level, x, z] + [0] * w
    return seq_encode(items)


@cached
def machine_desc(code: int):
    """Inverse of machine_index: (level, x, z, pads) or None."""
    try:
        items = seq_decode(code)
    except NotACode:
        return None
    if len(items) < 4 or items[0] != MACHINE_DESC_TAG or any(items[4:]):
        return None
    return items[1], items[2], items[3], len(items) - 4


def machine_parts(code: int):
    """machine_desc without the padding count: (level, x, z) or None."""
    desc = machine_desc(code)
    return None if desc is None else desc[:3]
