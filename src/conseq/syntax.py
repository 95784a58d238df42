"""Terms and formulas of elementary arithmetic, with parsing and printing.

The term signature is fixed: 0, S, +, *, exp.  Formulas have =, <=,
designated atoms, the propositional connectives, and both unbounded and
bounded quantifiers (bounded quantifiers are primitive, not sugar).

Every node kind follows one contract (see Node): it declares its dataclass
fields, its subnodes in coding order and its leaf data, and the base class
seals a structural hash and node count at construction and compares nodes
through them.  Nodes are immutable.

Deeply nested terms occur routinely (compact code literals reach hundreds of
thousands of nodes), so no walk here recurses per node: the rewrites
(substitution, and hierarchy's negation normal form and prenex slotting) run
through walk(), one explicit stack, and the folds and the printer keep loops of
their own.  Binder-aware walks are linear in binder nesting: free_vars keeps
one bound set, changed in place, and substitute folds free variables only
under a binder that may capture.  Only formula-valued atom parameters nest;
semantics.eval_formula still recurses once per connective.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

from . import registry
from .refs import Ref, ref_from_parts


class SyntaxError_(ValueError):
    """Parse failure, carrying a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Evaluation failure: an unbound variable, an open sentence, ..."""


# ---------------------------------------------------------------------------
# AST nodes
#
# The node contract: a kind declares its dataclass fields, `_children()` (its
# subnodes in coding order) and, if it carries data besides subnodes,
# `_leaf_key()`.  Node.__post_init__ seals the structural hash and the node
# count from those two, and Node.__eq__ compares through them, so no kind
# spells out hashing, sizing or equality itself.  Fields come in the order
# leaf data, then children, which is also the constructor order.


class Node:
    """Base for terms and formulas: hash/size sealed, equality iterative, repr printed."""

    __slots__ = ()

    _hash: int
    size: int

    def __post_init__(self):
        key = [type(self), self._leaf_key()]
        size = 1
        for c in self._children():
            key.append(c._hash)
            size += c.size
        object.__setattr__(self, "_hash", hash(tuple(key)))
        object.__setattr__(self, "size", size)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        if self._hash != other._hash or self.size != other.size:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            # formula-valued atom params compare structurally, by their own
            # __eq__, inside the leaf-key comparison
            if type(a) is not type(b) or a._hash != b._hash or a._leaf_key() != b._leaf_key():
                return False
            stack.extend(zip(a._children(), b._children()))
        return True

    def _children(self) -> tuple:
        return ()

    def _leaf_key(self) -> tuple:
        return ()

    def __repr__(self):
        return _emit(self)


# node kinds are frozen dataclasses; hash, equality and repr come from Node
_node = dataclass(frozen=True, eq=False, repr=False)


class Term(Node):
    __slots__ = ()


class Formula(Node):
    __slots__ = ()


@_node
class Var(Term):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be a natural number")
        Node.__post_init__(self)

    def _leaf_key(self):
        return (self.index,)


@_node
class Zero(Term):
    pass


@_node
class Succ(Term):
    arg: Term

    def _children(self):
        return (self.arg,)


@_node
class Add(Term):
    left: Term
    right: Term

    def _children(self):
        return (self.left, self.right)


@_node
class Mul(Term):
    left: Term
    right: Term

    def _children(self):
        return (self.left, self.right)


@_node
class Exp(Term):
    base: Term
    power: Term

    def _children(self):
        return (self.base, self.power)


@_node
class EqAtom(Formula):
    left: Term
    right: Term

    def _children(self):
        return (self.left, self.right)


@_node
class LeAtom(Formula):
    left: Term
    right: Term

    def _children(self):
        return (self.left, self.right)


@_node
class DAtom(Formula):
    """Designated atom: a registered predicate with parameters and term args.

    Parameters are naturals, identifiers, theory references (see refs) or
    whole formulas and terms; they are hashed and compared structurally.  An
    atom of a registered name must match its family's declaration (see
    registry), else construction raises ValueError."""

    name: str
    params: tuple
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "args", tuple(self.args))
        fam = registry.FAMILIES.get(self.name)
        if fam is not None:
            _check_atom(self, fam)
        Node.__post_init__(self)

    def _children(self):
        return self.args

    def _leaf_key(self):
        return (self.name, self.params)


# what each parameter type of a registry signature admits
_ADMITS = {
    registry.NAT: lambda x: type(x) is int and x >= 0,
    registry.STR: lambda x: isinstance(x, str),
    registry.REF: lambda x: isinstance(x, (str, Ref)),
    registry.FORMULA: lambda x: isinstance(x, Formula),
}


def _check_atom(a: DAtom, fam: registry.Family) -> None:
    """Raise ValueError unless a's params and argument count match fam's
    declaration (for PrfGoal, the declaration of its goal shape)."""
    p, n = a.params, len(a.args)
    if fam.shapes is not None and p and isinstance(p[0], str):
        fam = fam.shapes.get(p[0], fam)
    for i, typ in enumerate(fam.params):
        x = p[i] if i < len(p) else None
        if x is None or not ((isinstance(x, str) and x in typ) if isinstance(typ, tuple) else _ADMITS[typ](x)):
            what = f"one of {', '.join(typ)}" if isinstance(typ, tuple) else typ
            got = "none" if x is None else repr(x) if isinstance(x, (int, str)) else type(x).__name__
            raise ValueError(f"{a.name} parameter {i} must be {what}, got {got}")
    if len(p) > len(fam.params):
        raise ValueError(f"{a.name} takes {len(fam.params)} params, got {len(p)}")
    if n < fam.arity or (n > fam.arity and not fam.variadic):
        raise ValueError(f"{a.name} takes {fam.arity}{' or more' if fam.variadic else ''} args, got {n}")


@_node
class Not(Formula):
    arg: Formula

    def _children(self):
        return (self.arg,)


@_node
class And(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)


@_node
class Imp(Formula):
    left: Formula
    right: Formula

    def _children(self):
        return (self.left, self.right)


class _Binder(Formula):
    """A quantifier: its bound variable index is its leaf data."""

    __slots__ = ()

    def _leaf_key(self):
        return (self.var,)


@_node
class All(_Binder):
    var: int
    body: Formula

    def _children(self):
        return (self.body,)


@_node
class Ex(_Binder):
    var: int
    body: Formula

    def _children(self):
        return (self.body,)


class _Bounded(_Binder):
    """A bounded quantifier: the bound term must not contain the variable."""

    __slots__ = ()

    def __post_init__(self):
        if self.var in term_vars(self.bound):
            raise ValueError("bound term contains the bound variable")
        Node.__post_init__(self)

    def _children(self):
        return (self.bound, self.body)


@_node
class BAll(_Bounded):
    """Bounded universal: A xk<=t. f   (t must not contain xk)."""

    var: int
    bound: Term
    body: Formula


@_node
class BEx(_Bounded):
    """Bounded existential: E xk<=t. f   (t must not contain xk)."""

    var: int
    bound: Term
    body: Formula


ZERO = Zero()


# ---------------------------------------------------------------------------
# Basic term builders


def numeral(n: int) -> Term:
    """Unary numeral: S applied n times to 0."""
    if n < 0:
        raise ValueError("numeral of a negative number")
    t: Term = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


_TWO = Succ(Succ(ZERO))
_ONE = Succ(ZERO)


def code_literal(n: int) -> Term:
    """Closed term of value n in O(log n) nodes (binary Horner form).

    Unary numerals are physically impossible at code magnitudes; this is the
    canonical compact literal used wherever a code value must appear inside
    a formula.
    """
    if n < 0:
        raise ValueError("literal of a negative number")
    if n == 0:
        return ZERO
    bits = bin(n)[2:]
    t: Optional[Term] = None
    for b in bits:
        if t is None:
            t = _ONE  # leading bit is 1
        else:
            t = Mul(t, _TWO)
            if b == "1":
                t = Add(t, _ONE)
    assert t is not None
    return t


# Largest intermediate value, in bits, that term evaluation will build.
VALUE_BIT_CAP = 4_000_000


def term_value(t: Term, env: Optional[dict] = None) -> int:
    """Value of a term with its variables read from env; iterative.  Raises
    EvalError on a variable env does not bind, OverflowError when an
    intermediate value exceeds VALUE_BIT_CAP bits."""
    env = {} if env is None else env
    out: list[int] = []
    stack: list[tuple] = [("t", t)]
    while stack:
        kind, x = stack.pop()
        if kind == "t":
            if isinstance(x, Zero):
                out.append(0)
            elif isinstance(x, Var):
                if x.index not in env:
                    raise EvalError(f"unbound variable x{x.index}")
                out.append(env[x.index])
            elif isinstance(x, Succ):
                stack.append(("succ", None))
                stack.append(("t", x.arg))
            elif isinstance(x, (Add, Mul)):
                stack.append(("add" if isinstance(x, Add) else "mul", None))
                stack.append(("t", x.right))
                stack.append(("t", x.left))
            elif isinstance(x, Exp):
                stack.append(("exp", None))
                stack.append(("t", x.power))
                stack.append(("t", x.base))
            else:
                raise TypeError(f"not a term: {x!r}")
        elif kind == "succ":
            out[-1] += 1
        elif kind == "add":
            b = out.pop()
            out[-1] += b
        elif kind == "mul":
            b = out.pop()
            r = out[-1] * b
            if r.bit_length() > VALUE_BIT_CAP:
                raise OverflowError("term value exceeds size cap")
            out[-1] = r
        elif kind == "exp":
            e = out.pop()
            b = out.pop()
            if b > 1 and e * b.bit_length() > VALUE_BIT_CAP:
                raise OverflowError("term value exceeds size cap")
            out.append(b**e)
    (v,) = out
    return v


def term_vars(t: Term) -> frozenset[int]:
    """Variable indices occurring in a term; iterative."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            seen.add(x.index)
        else:
            stack.extend(x._children())
    return frozenset(seen)


# ---------------------------------------------------------------------------
# The walk

SPLICE = object()  # shape: the node is replaced by its one kid's result
_LEAVE = object()


def walk(root: Node, ctx, enter):
    """The one rewrite traversal of terms and formulas, on an explicit stack.
    enter(node, ctx) sees each node pre-order, left to right, with its
    top-down context, and returns (result, None) when the node is finished or
    (shape, kids) to descend into kids, a sequence of (subnode, its ctx).  The
    node is then rebuilt post-order from its kids' results through the node
    contract: shape None keeps the kind and leaf data (and the node itself when
    no kid changed), (cls, leaf) builds cls(*leaf, *kids), and SPLICE gives
    the one kid's result.
    """
    out: list = []
    stack: list = [(root, ctx)]
    while stack:
        x, c = stack.pop()
        if x is _LEAVE:
            node, shape, n = c
            kids = out[len(out) - n :]
            del out[len(out) - n :]
            out.append(_rebuild(node, shape, kids))
            continue
        value, kids = enter(x, c)
        if kids is None:
            out.append(value)
        else:
            stack.append((_LEAVE, (x, value, len(kids))))
            stack.extend(reversed(kids))
    return out[0]


def _rebuild(node: Node, shape, kids: list) -> Node:
    if shape is SPLICE:
        return kids[0]
    if shape is None:
        if all(map(operator.is_, kids, node._children())):
            return node
        shape = (type(node), node._leaf_key())
    cls, leaf = shape
    return DAtom(*leaf, tuple(kids)) if cls is DAtom else cls(*leaf, *kids)


def _map_term(x: Node, m: dict):
    """walk step: a term with each variable in m replaced by its image."""
    if type(x) is Var:
        return m.get(x.index, x), None
    return None, [(c, m) for c in x._children()]


# ---------------------------------------------------------------------------
# Free variables and substitution


def _free_sets(f: Formula, table: dict) -> None:
    """Fill table with id -> free variables of f and of each formula node,
    atom argument and bound term under it.  In reversed breadth-first order
    every node follows its kids."""
    order = [f]
    for x in order:
        if isinstance(x, Formula):
            order += x._children()
    for x in reversed(order):
        if isinstance(x, Term):
            s = term_vars(x)
        elif isinstance(x, _Binder):
            s = table[id(x.body)] - {x.var}
            if isinstance(x, _Bounded):  # the bound is outside the binder's scope
                s |= table[id(x.bound)]
        else:
            s = frozenset().union(*[table[id(c)] for c in x._children()])
        table[id(x)] = s


def free_vars(f: Union[Formula, Term]) -> frozenset[int]:
    """Free variable indices of a formula (or all variables of a term).  A
    loop of its own, with one bound set changed in place: a binder counts its
    variable in, and the int it pushes under its body counts it out."""
    out: set[int] = set()
    bound: dict[int, int] = {}  # index -> binders of it around the node
    stack: list = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, Term):
            if type(x) is Var:
                if x.index not in bound:
                    out.add(x.index)
            else:
                stack.extend(x._children())
        elif type(x) is int:  # leaving a binder of x
            n = bound.pop(x) - 1
            if n:
                bound[x] = n
        elif isinstance(x, _Binder):
            bound[x.var] = bound.get(x.var, 0) + 1
            if isinstance(x, _Bounded):  # popped after leaving: outside the scope
                stack.append(x.bound)
            stack += (x.var, x.body)
        else:
            stack.extend(x._children())
    return frozenset(out)


def max_var(f: Union[Formula, Term]) -> int:
    """Largest variable index occurring anywhere (bound or free); -1 if none.
    A fold with no context and no rebuild, so a plain loop over the node
    contract, not the walk."""
    best = -1
    stack: list[Node] = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            best = max(best, x.index)
        elif isinstance(x, _Binder):
            best = max(best, x.var)
        stack.extend(x._children())
    return best


def substitute(f: Formula, v: int, t: Term) -> Formula:
    """Capture-avoiding substitution of term t for free variable v in f.

    Each node carries the passes (v, t, vars of t) to apply to it in order: a
    term applies each pass whose variable it holds, and a binder drops the
    passes of its own variable from its body.  Only at a binder whose
    variable occurs in some pass's term are free variables folded, once per
    subtree and call; there a binder that would capture is renamed to a
    fresh index, and the renaming is one more pass into its body.
    """
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    fvs: dict = {}

    def enter(x, passes):
        if not passes:
            return x, None
        if isinstance(x, Term):  # an atom's argument or a bound
            vs = term_vars(x)
            for w, u, uv in passes:
                if w in vs:
                    x, vs = walk(x, {w: u}, _map_term), (vs - {w}) | uv
            return x, None
        if not isinstance(x, _Binder):
            return None, [(c, passes) for c in x._children()]
        var, bounded, tabled = x.var, isinstance(x, _Bounded), id(x) in fvs
        if not tabled and all(var not in p[2] for p in passes):  # nothing can be captured here
            to_body = [p for p in passes if p[0] != var]
        else:
            if not tabled:  # once for the whole subtree
                _free_sets(x, fvs)
            body_fv = fvs[id(x.body)]
            bound_fv = fvs[id(x.bound)] if bounded else frozenset()
            to_body = []
            for p in passes:  # a pass whose variable is not free here changes nothing
                w, u, uv = p
                in_bound = w in bound_fv
                if in_bound:
                    bound_fv = (bound_fv - {w}) | uv
                in_body = var != w and w in body_fv
                # u would be captured in the body, or land in the bound beside the binder
                if var in uv and (in_body or in_bound):
                    # rename the binder to avoid capture, past the bound's variables
                    nv = max(uv | body_fv | {w, var}) + 1
                    while nv in bound_fv:
                        nv += 1
                    if var in body_fv:
                        to_body.append((var, Var(nv), frozenset({nv})))
                        body_fv = (body_fv - {var}) | {nv}
                    var = nv
                if in_body:
                    to_body.append(p)
                    body_fv = (body_fv - {w}) | uv
        kids = [(x.body, to_body)]
        if bounded:
            kids.insert(0, (x.bound, passes))
        return (None if var == x.var else (type(x), (var,))), kids

    return walk(f, ((v, t, term_vars(t)),), enter)


# ---------------------------------------------------------------------------
# Printing

_FALSUM = EqAtom(ZERO, _ONE)


def falsum() -> Formula:
    """The canonical false sentence 0=S(0)."""
    return _FALSUM


def _param_text(p) -> str:
    if isinstance(p, Node):
        return "{" + _emit(p) + "}"
    if isinstance(p, Ref):
        return p.text()
    if isinstance(p, (int, str)):
        return str(p)
    raise TypeError(f"not a parameter: {p!r}")


def _atom_head(x: DAtom) -> str:
    return x.name + ("[" + ",".join(map(_param_text, x.params)) + "](" if x.params else "(")


# kind -> (head, separator between children, tail); a head that shows leaf
# data is a function of the node, and tail None marks a kind with no children
_FORMAT = {
    Zero: ("0", None, None),
    Var: (lambda x: f"x{x.index}", None, None),
    Succ: ("S(", "", ")"),
    Add: ("(", "+", ")"),
    Mul: ("(", "*", ")"),
    Exp: ("exp(", ",", ")"),
    EqAtom: ("", "=", ""),
    LeAtom: ("", "<=", ""),
    DAtom: (_atom_head, ",", ")"),
    Not: ("~", "", ""),
    And: ("(", "/\\", ")"),
    Or: ("(", "\\/", ")"),
    Imp: ("(", "->", ")"),
    All: (lambda x: f"A x{x.var}. ", "", ""),
    Ex: (lambda x: f"E x{x.var}. ", "", ""),
    BAll: (lambda x: f"A x{x.var}<=", ". ", ""),
    BEx: (lambda x: f"E x{x.var}<=", ". ", ""),
}


def _emit(root: Node) -> str:
    """Text of a term or formula from _FORMAT, on one stack of nodes and strings."""
    parts: list[str] = []
    stack: list = [root]
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
            continue
        head, sep, tail = _FORMAT[type(x)]
        parts.append(head if type(head) is str else head(x))
        if tail is None:
            continue
        # pushed in reverse: the tail, then the kids with sep between them
        kids = x._children()
        if len(kids) == 2:
            stack += (tail, kids[1], sep, kids[0])
            continue
        if tail:  # also a zero-argument atom's ")"
            stack.append(tail)
        for k in kids[:0:-1]:
            stack += (k, sep)
        if kids:
            stack.append(kids[0])
    return "".join(parts)


def print_term(t: Term) -> str:
    """Canonical text of a term; iterative."""
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return _emit(t)


def print_formula(f: Formula) -> str:
    """Canonical text of a formula (the parse grammar's canonical form)."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _emit(f)


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (whitespace-insensitive, parens mandatory for binary connectives):
#   term    := 0 | x<digits> | S(term) | (term+term) | (term*term) | exp(term,term)
#   formula := term=term | term<=term | Name[params](args) | ~formula
#            | (formula/\formula) | (formula\/formula) | (formula->formula)
#            | A xk. f | E xk. f | A xk<=term. f | E xk<=term. f
#   param   := nat | ident | ident(params) | {formula} | {term}


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Tok({self.kind},{self.text!r}@{self.pos})"


def _tokenize(s: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(_Tok("nat", s[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            toks.append(_Tok("ident", s[i:j], i))
            i = j
            continue
        two = s[i : i + 2]
        if two in ("<=", "/\\", "\\/", "->"):
            toks.append(_Tok(two, two, i))
            i += 2
            continue
        if c in "()[]{},=.~+*":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        raise SyntaxError_(f"unexpected character {c!r}", i)
    toks.append(_Tok("eof", "", n))
    return toks


class _Parser:
    """Recursive-descent parser with an explicit stack for the deeply
    nestable constructs (S-chains and left-nested parenthesized terms)."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self._mark_paren_kinds(text)

    def _mark_paren_kinds(self, text: str) -> None:
        # For each '(' token decide whether it opens a formula (a binary
        # connective occurs at depth 1) or a term.
        self.paren_is_formula: dict[int, bool] = {}
        stack: list[int] = []
        for idx, t in enumerate(self.toks):
            if t.kind == "(":
                stack.append(idx)
                self.paren_is_formula[idx] = False
            elif t.kind == ")":
                if stack:
                    stack.pop()
            elif t.kind in ("/\\", "\\/", "->") and stack:
                self.paren_is_formula[stack[-1]] = True

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise SyntaxError_(f"expected {kind!r}, found {t.text!r}", t.pos)
        return t

    # -- terms ------------------------------------------------------------

    def parse_term(self) -> Term:
        # Iterative: frames describe the pending constructor.
        # frame kinds: ("succ",), ("paren_l",) waiting op, ("paren_r", op, left),
        #              ("exp_b",), ("exp_p", base)
        frames: list[tuple] = []
        result: Optional[Term] = None
        while True:
            if result is None:
                t = self.next()
                if t.kind == "nat" and t.text == "0":
                    result = ZERO
                elif t.kind == "ident" and t.text == "S":
                    self.expect("(")
                    frames.append(("succ",))
                    continue
                elif t.kind == "ident" and t.text == "exp":
                    self.expect("(")
                    frames.append(("exp_b",))
                    continue
                elif t.kind == "ident" and t.text.startswith("x") and t.text[1:].isdigit():
                    result = Var(int(t.text[1:]))
                elif t.kind == "(":
                    frames.append(("paren_l",))
                    continue
                else:
                    raise SyntaxError_(f"expected a term, found {t.text!r}", t.pos)
            # reduce
            if not frames:
                return result
            top = frames[-1]
            if top[0] == "succ":
                self.expect(")")
                frames.pop()
                result = Succ(result)
            elif top[0] == "exp_b":
                self.expect(",")
                frames.pop()
                frames.append(("exp_p", result))
                result = None
            elif top[0] == "exp_p":
                self.expect(")")
                frames.pop()
                result = Exp(top[1], result)
            elif top[0] == "paren_l":
                op = self.next()
                if op.kind not in ("+", "*"):
                    raise SyntaxError_(f"expected '+' or '*', found {op.text!r}", op.pos)
                frames.pop()
                frames.append(("paren_r", op.kind, result))
                result = None
            elif top[0] == "paren_r":
                self.expect(")")
                frames.pop()
                result = Add(top[2], result) if top[1] == "+" else Mul(top[2], result)
            else:  # pragma: no cover
                raise AssertionError(top)

    # -- params -----------------------------------------------------------

    def parse_param(self):
        t = self.peek()
        if t.kind == "nat":
            self.next()
            return int(t.text)
        if t.kind == "{":
            self.next()
            f = self.parse_formula()
            self.expect("}")
            return f
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                items = [self.parse_param()]
                while self.peek().kind == ",":
                    self.next()
                    items.append(self.parse_param())
                self.expect(")")
                return ref_from_parts(t.text, items, t.pos)
            return t.text
        raise SyntaxError_(f"expected a parameter, found {t.text!r}", t.pos)

    # -- formulas ----------------------------------------------------------

    def parse_formula(self) -> Formula:
        # frames: ("not",), ("bin_l", opentok) , ("bin_r", op), ("quant", cls, var, bound)
        frames: list[tuple] = []
        result: Optional[Formula] = None
        while True:
            if result is None:
                t = self.peek()
                if t.kind == "~":
                    self.next()
                    frames.append(("not",))
                    continue
                if t.kind == "ident" and t.text in ("A", "E"):
                    self.next()
                    vt = self.expect("ident")
                    if not (vt.text.startswith("x") and vt.text[1:].isdigit()):
                        raise SyntaxError_("expected a variable after quantifier", vt.pos)
                    v = int(vt.text[1:])
                    bound = None
                    if self.peek().kind == "<=":
                        self.next()
                        bound = self.parse_term()
                    self.expect(".")
                    if t.text == "A":
                        cls = BAll if bound is not None else All
                    else:
                        cls = BEx if bound is not None else Ex
                    frames.append(("quant", cls, v, bound))
                    continue
                if t.kind == "(" and self.paren_is_formula.get(self.i, False):
                    self.next()
                    frames.append(("bin_l",))
                    continue
                if t.kind == "ident" and not (t.text.startswith("x") and t.text[1:].isdigit()) and t.text not in ("S", "exp"):
                    # designated atom
                    self.next()
                    params: list = []
                    if self.peek().kind == "[":
                        self.next()
                        params.append(self.parse_param())
                        while self.peek().kind == ",":
                            self.next()
                            params.append(self.parse_param())
                        self.expect("]")
                    self.expect("(")
                    args: list[Term] = []
                    if self.peek().kind != ")":
                        args.append(self.parse_term())
                        while self.peek().kind == ",":
                            self.next()
                            args.append(self.parse_term())
                    self.expect(")")
                    result = DAtom(t.text, tuple(params), tuple(args))
                else:
                    # term-led atom
                    left = self.parse_term()
                    op = self.next()
                    if op.kind == "=":
                        result = EqAtom(left, self.parse_term())
                    elif op.kind == "<=":
                        result = LeAtom(left, self.parse_term())
                    else:
                        raise SyntaxError_(f"expected '=' or '<=', found {op.text!r}", op.pos)
            # reduce
            if not frames:
                return result
            top = frames[-1]
            if top[0] == "not":
                frames.pop()
                result = Not(result)
            elif top[0] == "quant":
                frames.pop()
                _, cls, v, bound = top
                result = cls(v, bound, result) if bound is not None else cls(v, result)
            elif top[0] == "bin_l":
                op = self.next()
                if op.kind not in ("/\\", "\\/", "->"):
                    raise SyntaxError_(f"expected a connective, found {op.text!r}", op.pos)
                frames.pop()
                frames.append(("bin_r", op.kind, result))
                result = None
            elif top[0] == "bin_r":
                self.expect(")")
                frames.pop()
                cls = {"/\\": And, "\\/": Or, "->": Imp}[top[1]]
                result = cls(top[2], result)
            else:  # pragma: no cover
                raise AssertionError(top)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.parse_formula()
    t = p.peek()
    if t.kind != "eof":
        raise SyntaxError_(f"trailing input {t.text!r}", t.pos)
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    tok = p.peek()
    if tok.kind != "eof":
        raise SyntaxError_(f"trailing input {tok.text!r}", tok.pos)
    return t
