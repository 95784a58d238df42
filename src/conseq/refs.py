"""Theory references: small structured values naming axiom sets.

A reference is how designated atoms point at a theory (Prf[EA], Prf[ext(EA,c)],
...).  References print inside atom parameter brackets and are Goedel-codable,
so they appear both in formula text and in machine codes.

Kinds:
  named name            -- a standard presentation (Q, EA, BSigma1, ...)
  ext(ref, c)           -- ref extended by the single sentence with code c
  slipext(ref, z, n)    -- ref plus the n-th slice of the binary formula coded z
  momega(m, ref)        -- ISigma(m) plus the uniform iterated m-reflection axiom
  mach(c)               -- the axiom enumerator described by machine code c
  craig(ref)            -- the padded (elementary) presentation of ref's stream

The field rule: each kind declares its dataclass fields once, in the order in
which they are printed, parsed and coded, and each field is a str, an int (a
natural) or a Ref.  Every kind but Named is written in call syntax
head(field,...).  Ref.text, ref_from_parts and the coder (coding._ser_ref and
coding._read_ref) all walk that one declaration, FIELDS.
"""

from dataclasses import dataclass, fields
from typing import ClassVar


class RefError(ValueError):
    pass


@dataclass(frozen=True)
class Ref:
    """Base of every reference kind."""

    head: ClassVar[str]

    def text(self) -> str:
        parts = []
        for name, typ in FIELDS[type(self)]:
            x = getattr(self, name)
            parts.append(x.text() if typ is Ref else str(x))
        return f"{self.head}({','.join(parts)})"


@dataclass(frozen=True)
class Named(Ref):
    name: str

    def text(self) -> str:
        return self.name


@dataclass(frozen=True)
class Ext(Ref):
    head = "ext"
    base: Ref
    code: int


@dataclass(frozen=True)
class SlipExt(Ref):
    """Base theory together with slice n of the binary formula coded z."""

    head = "slipext"
    base: Ref
    z: int
    n: int


@dataclass(frozen=True)
class MOmega(Ref):
    head = "momega"
    m: int
    base: Ref


@dataclass(frozen=True)
class Mach(Ref):
    head = "mach"
    code: int


@dataclass(frozen=True)
class CraigRef(Ref):
    head = "craig"
    base: Ref


# kind -> ((field name, field type), ...) in declared order.  The types are
# the classes themselves because this module leaves annotations unpostponed.
FIELDS = {cls: tuple((f.name, f.type) for f in fields(cls)) for cls in (Named, Ext, SlipExt, MOmega, Mach, CraigRef)}
HEADS = {cls.head: cls for cls in FIELDS if cls is not Named}


def ref_from_parts(head: str, items: list, pos: int = 0) -> Ref:
    """Build a reference from parsed call syntax head(items)."""
    cls = HEADS.get(head)
    types = [typ for _, typ in FIELDS[cls]] if cls is not None else []
    if cls is None or len(items) != len(types) or any(t is int and not isinstance(x, int) for t, x in zip(types, items)):
        raise RefError(f"unknown reference form {head}({items}) at {pos}")
    return cls(*[x if t is int else _as_ref(x) for t, x in zip(types, items)])


def _as_ref(x) -> Ref:
    if isinstance(x, str):
        return Named(x)
    if isinstance(x, Ref):
        return x
    raise RefError(f"expected a theory reference, got {x!r}")
