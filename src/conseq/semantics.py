"""Budgeted three-valued evaluation, the Hilbert proof checker, and the
meta-evaluators behind every designated atom.

Budget policy: one scalar bounds quantifier search ranges and meta-evaluator
recursion (each re-entry into evaluation from inside an atom runs at
budget-1, which is what terminates self-referential codes).  Verdicts are
monotone in the budget: true/false never flip, unknown may resolve.

Quantifiers: one search evaluates the matrix over one candidate list, drawn
from one of three sources.  A quantifier guarded by a functional-graph atom
(Diag, SeqAt, MachIdx, ConSliceAt) contracts to the unique witness the guard
forces, or to none (exhaustive); a bound within budget gives 0..bound
(exhaustive); otherwise witness suggestions, which reach astronomically large
witnesses (codes) that no scan could, precede 0..budget (not exhaustive).
Each source computes exactly what an unbounded scan would, so monotonicity
and determinism are preserved.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Optional, Union

from . import coding, craig, refs, registry, theories
from .coding import JUSTIFICATIONS, SCHEME_PATTERNS, SCHEMES, Proof, Step, decode_proof, encode_proof  # noqa: F401 (re-exported)
from .hierarchy import ComplexityClass, class_leq, classify
from .syntax import (
    VALUE_BIT_CAP,
    All,
    And,
    BAll,
    BEx,
    DAtom,
    EqAtom,
    EvalError,
    Ex,
    Formula,
    Imp,
    LeAtom,
    Not,
    Or,
    Succ,
    Term,
    Var,
    Zero,
    ZERO,
    code_literal,
    free_vars,
    numeral,
    parse_formula,
    print_formula,
    substitute,
    term_value as term_value_env,
    term_vars,
)
from .theories import TheoryPresentation


# ---------------------------------------------------------------------------
# Three-valued verdicts


class TV3:
    __slots__ = ("val",)
    TRUE_V, FALSE_V, UNKNOWN_V = 1, 0, 2

    def __init__(self, val: int):
        self.val = val

    def is_true(self) -> bool:
        return self.val == TV3.TRUE_V

    def is_false(self) -> bool:
        return self.val == TV3.FALSE_V

    def is_unknown(self) -> bool:
        return self.val == TV3.UNKNOWN_V

    def is_decided(self) -> bool:
        return self.val != TV3.UNKNOWN_V

    def __eq__(self, other):
        return isinstance(other, TV3) and self.val == other.val

    def __hash__(self):
        return self.val

    def negate(self) -> "TV3":
        if self.is_unknown():
            return UNKNOWN
        return FALSE if self.is_true() else TRUE

    def __repr__(self):
        return f"TV3({self})"

    def __str__(self):
        return "true" if self.is_true() else "false" if self.is_false() else "unknown"


TRUE = TV3(TV3.TRUE_V)
FALSE = TV3(TV3.FALSE_V)
UNKNOWN = TV3(TV3.UNKNOWN_V)


def from_bool(b: bool) -> TV3:
    return TRUE if b else FALSE


def kleene_and(a: TV3, b: TV3) -> TV3:
    if a.is_false() or b.is_false():
        return FALSE
    if a.is_true() and b.is_true():
        return TRUE
    return UNKNOWN


def kleene_or(a: TV3, b: TV3) -> TV3:
    if a.is_true() or b.is_true():
        return TRUE
    if a.is_false() and b.is_false():
        return FALSE
    return UNKNOWN


def _infer_witness(body: Formula, v: int, instance: Formula) -> Optional[Term]:
    """Find t with instance == substitute(body, v, t), if any."""
    if v not in free_vars(body):
        return ZERO if instance == body else None
    # read off the term aligned with the first free occurrence of v, walking
    # body and instance in step on an explicit stack of node pairs
    t = None
    stack = [(body, instance, frozenset())]
    while stack:
        b, inst, bound = stack.pop()
        if isinstance(b, Var) and b.index == v and v not in bound:
            if isinstance(inst, Term):
                t = inst
                break
            continue
        bc, ic = b._children(), inst._children()
        if type(b) is not type(inst) or len(bc) != len(ic):
            continue
        if isinstance(b, (All, Ex, BAll, BEx)):
            bound = bound | {b.var}
        stack.extend((x, y, bound) for x, y in reversed(tuple(zip(bc, ic))))
    if t is None:
        return None
    try:
        if substitute(body, v, t) == instance:
            return t
    except ValueError:
        return None
    return None


def match_scheme(scheme: str, f: Formula) -> bool:
    """Whether f is an instance of the named logical scheme: one matcher for
    the declared patterns, and the side conditions of ALL-E and ALL-DIST."""
    if scheme in SCHEME_PATTERNS:
        return coding.is_scheme_instance(scheme, f)
    if not (isinstance(f, Imp) and isinstance(f.left, All)):
        return False
    if scheme == "ALL-E":
        return _infer_witness(f.left.body, f.left.var, f.right) is not None
    if scheme == "ALL-DIST":
        if not (isinstance(f.left.body, Imp) and isinstance(f.right, Imp) and isinstance(f.right.right, All)):
            return False
        v = f.left.var
        return (
            f.right.right.var == v
            and f.left.body.left == f.right.left
            and f.left.body.right == f.right.right.body
            and v not in free_vars(f.right.left)
        )
    return False


AxiomTest = Callable[[Formula], TV3]


def check_proof_steps(axiom_test: AxiomTest, proof: Proof, goal: Formula) -> bool:
    """Two-valued: undecided axiom membership rejects the step."""
    if not proof.steps:
        return False
    for i, st in enumerate(proof.steps):
        j = st.just
        if not (isinstance(j, tuple) and j and isinstance(j[0], str)):
            return False
        if len(j) - 1 != JUSTIFICATIONS.get(j[0], (None, None))[1]:
            return False
        if j[0] == "axiom":
            if not axiom_test(st.formula).is_true():
                return False
        elif j[0] == "logical":
            if j[1] not in SCHEMES or not match_scheme(j[1], st.formula):
                return False
        elif not all(isinstance(a, int) and 0 <= a < i for a in j[1:]):  # mp and gen cite earlier steps
            return False
        elif j[0] == "mp":
            imp = proof.steps[j[1]].formula
            if not (isinstance(imp, Imp) and imp.left == proof.steps[j[2]].formula and imp.right == st.formula):
                return False
        elif not (isinstance(st.formula, All) and st.formula.body == proof.steps[j[1]].formula):  # gen
            return False
    return proof.conclusion == goal


def axiom_membership(ref, f: Formula, budget: int) -> TV3:
    """Membership of f in the axiom set named by ref."""
    if isinstance(ref, str):
        ref = refs.Named(ref)
    if isinstance(ref, refs.Named):
        try:
            return from_bool(theories.member_of_named(ref.name, f))
        except theories.TheoryError:
            return FALSE
    if isinstance(ref, refs.Ext):
        if coding.encode(f) == ref.code:
            return TRUE
        return axiom_membership(ref.base, f, budget)
    if isinstance(ref, refs.MOmega):
        if f == theories.m_omega_sentence(ref.m, theories.resolve_ref(ref.base)):
            return TRUE
        return axiom_membership(refs.Named(f"ISigma{ref.m}"), f, budget)
    if isinstance(ref, refs.SlipExt):
        base = axiom_membership(ref.base, f, budget)
        if base.is_true():
            return TRUE
        try:
            g = coding.decode_formula(ref.z)
        except coding.NotACode:
            return base
        try:
            unary = theories.slice_unary(g, ref.n)
        except theories.TheoryError:
            return base
        fv = sorted(free_vars(unary))
        verdict = eval_formula(unary, max(budget - 1, 0), {fv[0]: coding.encode(f)})
        return kleene_or(base, verdict)
    if isinstance(ref, refs.Mach):
        parts = coding.machine_parts(ref.code)
        if parts is None:
            return FALSE
        level = parts[0]
        if axiom_membership(refs.Named(f"BSigma{level}"), f, budget).is_true():
            return TRUE
        try:
            stream = theories.machine_stream(ref.code)
        except theories.TheoryError:
            return FALSE
        return from_bool(f == stream(3))
    if isinstance(ref, refs.CraigRef):
        try:
            base = theories.resolve_ref(ref.base)
        except theories.TheoryError:
            return FALSE
        return from_bool(craig.craig_member(base, f))
    return FALSE


def _axiom_test(ref, budget: int, codes: tuple = ()) -> AxiomTest:
    """Membership in the axioms of ref (a presentation, a reference, or None
    for no axioms) plus the sentences whose codes are listed in codes."""
    if isinstance(ref, TheoryPresentation):
        ref = ref.ref

    def test(f: Formula) -> TV3:
        if codes and coding.encode(f) in codes:
            return TRUE
        return FALSE if ref is None else axiom_membership(ref, f, budget)

    return test


def check_proof(T: Union[TheoryPresentation, refs.Ref, str], proof: Proof, goal: Formula, budget: int = 64) -> bool:
    """True iff every step is justified over T and the last step is goal."""
    return check_proof_steps(_axiom_test(T, budget), proof, goal)


# ---------------------------------------------------------------------------
# Proof text


def proof_to_text(p: Proof) -> str:
    """Line-oriented proof format: `step <i>: <formula> ; <justification>`."""
    lines = (f"step {i}: {print_formula(st.formula)} ; {' '.join(map(str, st.just))}" for i, st in enumerate(p.steps))
    return "\n".join(lines)


def proof_from_text(text: str) -> Proof:
    steps = []
    for lineno, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        if not head.startswith("step"):
            raise ValueError(f"line {lineno}: expected 'step <i>:'")
        body, sep, jtext = rest.rpartition(";")
        if not sep:
            raise ValueError(f"line {lineno}: missing justification")
        f = parse_formula(body.strip())
        kind, *args = jtext.split() or [""]
        if len(args) != JUSTIFICATIONS.get(kind, (None, None))[1]:
            raise ValueError(f"line {lineno}: bad justification {jtext.strip()!r}")
        steps.append(Step(f, (kind, *(a if kind == "logical" else int(a) for a in args))))
    return Proof(tuple(steps))


# ---------------------------------------------------------------------------
# Canonical proof stream (PrfIdx)


def logical_instance(i: int) -> tuple[Formula, str]:
    """The i-th logical step of the canonical proof stream: its formula and
    scheme, cycling through EQ-REFL, K, AND-E1 and OR-I1."""
    k = i // 4
    scheme = ("EQ-REFL", "K", "AND-E1", "OR-I1")[i % 4]
    if scheme == "EQ-REFL":
        return coding.scheme_instance(scheme, numeral(k)), scheme
    a = coding.scheme_instance("EQ-REFL", numeral(k % 3))
    return coding.scheme_instance(scheme, a, LeAtom(ZERO, numeral(k % 5))), scheme


def canonical_proof(ref, k: int) -> Proof:
    """The k-th proof in the canonical proof stream of the theory: single-step
    proofs, theory axioms at even positions, logical instances at odd ones."""
    if k % 2 == 0:
        idx = k // 2
        try:
            pres = theories.resolve_ref(ref if not isinstance(ref, str) else refs.Named(ref))
            if pres.finite_size is None or idx < pres.finite_size:
                return Proof((Step(pres.enumerator(idx), ("axiom",)),))
        except (theories.TheoryError, IndexError):
            pass
        f, s = logical_instance(idx)
        return Proof((Step(f, ("logical", s)),))
    f, s = logical_instance(k // 2)
    return Proof((Step(f, ("logical", s)),))


# ---------------------------------------------------------------------------
# Formula evaluation


def _atom_value(f: DAtom, budget: int, env: dict) -> TV3:
    fam = registry.get_family(f.name)
    try:
        argvals = [term_value_env(a, env) for a in f.args]
    except OverflowError:
        return UNKNOWN
    return fam.evaluator(f.params, argvals, budget)


def _contraction(f, positive: bool, env: dict):
    """(body, witnesses) for a quantifier f of the shape E v (G /\\ body),
    E v G or A v (G -> body) (bounded or not), where the functional-graph
    atom G forces the value of x_v: witnesses is that one value, or empty if
    no value satisfies G, and body is 0=0 for E v G.  None for any other f."""
    inner = f.body
    if positive and isinstance(inner, DAtom):
        g, body = inner, _TRUE_BODY
    elif isinstance(inner, And if positive else Imp):
        g, body = inner.left, inner.right
    else:
        return None
    if not isinstance(g, DAtom):
        return None
    try:
        fam = registry.get_family(g.name)
    except KeyError:
        return None
    w = _graph_solve(fam, g, f.var, env)
    if w is _NOT_SOLVED:
        return None
    return body, ([] if w is None else [w])


_TRUE_BODY = EqAtom(ZERO, ZERO)
_NOT_SOLVED = object()


def _graph_solve(fam, g: DAtom, v: int, env: dict):
    """The value of x_v that the functional-graph atom g (of family fam)
    forces, or None if no value satisfies g; _NOT_SOLVED if g's output
    argument is not x_v, another argument mentions v, or the solve fails."""
    if fam.graph_out is None or fam.solver is None or g.args[fam.graph_out] != Var(v):
        return _NOT_SOLVED
    others = [a for i, a in enumerate(g.args) if i != fam.graph_out]
    if any(v in term_vars(a) for a in others):
        return _NOT_SOLVED
    try:
        return fam.solver(g.params, [term_value_env(a, env) for a in others])
    except (OverflowError, EvalError):
        return _NOT_SOLVED


def _suggest_witnesses(matrix: Formula, v: int, env: dict, budget: int) -> list[int]:
    """Candidate values for v harvested from functional atoms in the matrix."""
    out: set[int] = set()
    stack: list[Formula] = [matrix]
    while stack:
        g = stack.pop()
        if isinstance(g, DAtom):
            try:
                fam = registry.get_family(g.name)
            except KeyError:
                continue
            if fam.suggester is not None:
                try:
                    out.update(fam.suggester(g.params, g.args, v, env, budget))
                except (OverflowError, EvalError):
                    pass
            w = _graph_solve(fam, g, v, env)
            if w is not None and w is not _NOT_SOLVED:
                out.add(w)
            continue
        for c in g._children():
            if isinstance(c, Formula):
                stack.append(c)
    sugg = _collection_witness(matrix, v, env, budget)
    if sugg is not None:
        out.add(sugg)
    return sorted(out)


def _collection_witness(matrix: Formula, v: int, env: dict, budget: int) -> Optional[int]:
    """Witness for the collection_rewrite output shape: the sequence code of
    least inner witnesses per value of the leading bounded variable."""
    blocks = []
    g = matrix
    while isinstance(g, BAll):
        blocks.append((g.var, g.bound))
        g = g.body
    if not blocks:
        return None
    guard = None
    if isinstance(g, Imp):
        guard, g = g.left, g.right
    # shape produced by collection_rewrite:
    #   (E w<=s SeqAt(s,k,w)) /\ (A w<=s (SeqAt(s,k,w) -> body))
    if not (isinstance(g, And) and isinstance(g.left, BEx) and isinstance(g.right, BAll)):
        return None
    if g.left.bound != Var(v) or g.right.bound != Var(v):
        return None
    w_var = g.right.var
    if not (isinstance(g.right.body, Imp) and isinstance(g.right.body.left, DAtom)):
        return None
    seq_atom = g.right.body.left
    if seq_atom.name != "SeqAt" or seq_atom.args[0] != Var(v) or seq_atom.args[2] != Var(w_var):
        return None
    k_var = blocks[0][0]
    if seq_atom.args[1] != Var(k_var):
        return None
    body = g.right.body.right
    rest_blocks = blocks[1:]

    try:
        k_hi = term_value_env(blocks[0][1], env)
    except (OverflowError, EvalError):
        return None
    if k_hi > budget:
        return None

    def holds_at(k: int, w: int) -> TV3:
        env2 = dict(env)
        env2[k_var] = k
        env2[w_var] = w
        f: Formula = body if guard is None else Imp(guard, body)
        for bv, bt in reversed(rest_blocks):
            f = BAll(bv, bt, f)
        return eval_formula(f, budget, env2)

    witnesses = []
    for k in range(k_hi + 1):
        found = None
        for w in range(budget + 1):
            r = holds_at(k, w)
            if r.is_true():
                found = w
                break
            if r.is_unknown():
                return None
        if found is None:
            return None
        witnesses.append(found)
    return coding.seq_encode(witnesses)


def eval_formula(f: Formula, budget: int, env: Optional[dict] = None) -> TV3:
    """Three-valued truth of f in the standard model under env, at budget."""
    env = env or {}
    if budget <= 0:
        return UNKNOWN
    if isinstance(f, EqAtom):
        try:
            return from_bool(term_value_env(f.left, env) == term_value_env(f.right, env))
        except OverflowError:
            return UNKNOWN
    if isinstance(f, LeAtom):
        try:
            return from_bool(term_value_env(f.left, env) <= term_value_env(f.right, env))
        except OverflowError:
            return UNKNOWN
    if isinstance(f, DAtom):
        return _atom_value(f, budget, env)
    if isinstance(f, Not):
        return eval_formula(f.arg, budget, env).negate()
    if isinstance(f, And):
        a = eval_formula(f.left, budget, env)
        if a.is_false():
            return FALSE
        return kleene_and(a, eval_formula(f.right, budget, env))
    if isinstance(f, Or):
        a = eval_formula(f.left, budget, env)
        if a.is_true():
            return TRUE
        return kleene_or(a, eval_formula(f.right, budget, env))
    if isinstance(f, Imp):
        a = eval_formula(f.left, budget, env)
        if a.is_false():
            return TRUE
        return kleene_or(a.negate(), eval_formula(f.right, budget, env))
    if isinstance(f, (Ex, All, BEx, BAll)):
        # the one candidate list of the module docstring, then one search over it
        positive = isinstance(f, (Ex, BEx))
        v = f.var
        body, witnesses = _contraction(f, positive, env) or (f.body, None)
        exhaustive = witnesses is not None
        use_bound = isinstance(f, (BEx, BAll)) and witnesses != []  # no solution: decided without the bound
        if use_bound:
            try:
                bound_val: Optional[int] = term_value_env(f.bound, env)
            except OverflowError:
                bound_val = None
        if not exhaustive and use_bound and bound_val is not None and bound_val <= budget:
            witnesses, exhaustive = range(bound_val + 1), True
        else:
            if not exhaustive:
                witnesses = _suggest_witnesses(body, v, env, budget)
            if use_bound:  # a bound past VALUE_BIT_CAP bits admits every witness below the cap
                witnesses = [
                    w for w in witnesses if (w <= bound_val if bound_val is not None else w.bit_length() < VALUE_BIT_CAP)
                ]
            if not exhaustive:
                witnesses = chain(witnesses, range(budget + 1))
        env2 = dict(env)
        saw_unknown = False
        for w in witnesses:
            env2[v] = w
            r = eval_formula(body, budget, env2)
            if positive and r.is_true():
                return TRUE
            if not positive and r.is_false():
                return FALSE
            if r.is_unknown():
                saw_unknown = True
        if exhaustive and not saw_unknown:
            return FALSE if positive else TRUE
        return UNKNOWN
    raise TypeError(f"not a formula: {f!r}")


def eval_sentence(f: Formula, budget: int) -> TV3:
    if free_vars(f):
        raise EvalError("open formula")
    return eval_formula(f, budget, {})


def _prove(p: int, goal_of: Callable[[Proof], Union[Formula, TV3]], test: AxiomTest) -> TV3:
    """Shared tail of the Prf-family evaluators: decode the proof code p,
    build the goal from the proof and check the proof against it.  Non-codes
    are false; goal_of may return a verdict instead of a formula."""
    try:
        proof = decode_proof(p)
        goal = goal_of(proof)
    except coding.NotACode:
        return FALSE
    if isinstance(goal, TV3):
        return goal
    return from_bool(check_proof_steps(test, proof, goal))


def eval_prf(T: Union[TheoryPresentation, refs.Ref, str], p: int, x: int, budget: int = 64) -> TV3:
    """Two-valued meta-evaluator behind Prf[T]: decode failures are false."""
    return _prove(p, lambda proof: coding.decode_formula(x), _axiom_test(T, budget))


def _truth(x: int, kind: str, level: int, values: tuple, arities: tuple, budget: int) -> TV3:
    """Shared tail of the truth atoms: the formula coded x with its free
    variables, in index order, bound to values, evaluated at budget-1.
    Non-codes, a free-variable count outside arities and a class above
    (kind, level) are false."""
    s = coding.try_decode_formula(x)
    if s is None:
        return FALSE
    fv = sorted(free_vars(s))
    if len(fv) not in arities or not class_leq(classify(s), ComplexityClass(kind, level)):
        return FALSE
    return eval_formula(s, max(budget - 1, 0), dict(zip(fv, values)))


def eval_truth(gamma: ComplexityClass, x: int, budget: int) -> TV3:
    """Meta-evaluator behind TrueSigma/TruePi: class mismatch and decode
    failure are false; otherwise budgeted evaluation of the decoded sentence."""
    return _truth(x, gamma.kind, gamma.level, (), (0,), budget)


# ---------------------------------------------------------------------------
# Designated-atom evaluators


def _eval_axof(params, args, budget) -> TV3:
    (ref,) = params
    (x,) = args
    try:
        f = coding.decode_formula(x)
    except coding.NotACode:
        return FALSE
    return axiom_membership(ref, f, budget)


# The axioms of each plain Prf-family atom (p, g, extra...): a theory
# reference or None, and the extra sentence codes, read off the params and
# the arguments after (p, g).
_PRF_AXIOMS = {
    "Prf": lambda params, extra: (params[0], ()),
    "PrfX": lambda params, extra: (params[0], extra),
    "PrfSent": lambda params, extra: (None, extra),
    "PrfSentX": lambda params, extra: (None, extra),
    "PrfMachX": lambda params, extra: (refs.Mach(extra[0]), extra[1:]),
}


def _eval_prf_family(name: str):
    axioms = _PRF_AXIOMS[name]

    def ev(params, args, budget) -> TV3:
        ref, codes = axioms(params, tuple(args[2:]))
        return _prove(args[0], lambda proof: coding.decode_formula(args[1]), _axiom_test(ref, budget, codes))

    return ev


def _eval_prfidx(params, args, budget) -> TV3:
    (ref,) = params
    k, g = args
    if k > 1_000_000:
        return UNKNOWN
    try:
        goal = coding.decode_formula(g)
    except coding.NotACode:
        return FALSE
    return from_bool(canonical_proof(ref, k).conclusion == goal)


def _eval_prfex(params, args, budget) -> TV3:
    (ref,) = params
    k, a = args

    def goal_of(proof):
        body = coding.decode_formula(a)
        fv = sorted(free_vars(body))
        return Ex(fv[0], body) if len(fv) == 1 else FALSE

    return _prove(k, goal_of, _axiom_test(ref, budget))


def _numeral_height(t: Term) -> Optional[int]:
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


def _matches_numeral_subst(inst: Formula, base: Formula, fv: list[int], vals: list[int]) -> bool:
    """inst == base with numerals of vals substituted for fv, checked without
    materializing huge numerals."""
    mapping = dict(zip(fv, vals))
    # base and inst in step, on an explicit stack of node pairs
    stack = [(base, inst, frozenset())]
    while stack:
        b, i, bound = stack.pop()
        if isinstance(b, Var) and b.index in mapping and b.index not in bound:
            if not isinstance(i, Term) or _numeral_height(i) != mapping[b.index]:
                return False
            continue
        # leaf keys: a variable's index, an atom's name and params, a binder's var
        if type(b) is not type(i) or b._leaf_key() != i._leaf_key():
            return False
        if isinstance(b, (All, Ex, BAll, BEx)):
            bound = bound | {b.var}
        bc, ic = b._children(), i._children()
        if len(bc) != len(ic):
            return False
        stack.extend((x, y, bound) for x, y in zip(bc, ic))
    return True


def _eval_prfsub(params, args, budget) -> TV3:
    (ref,) = params
    vals = list(args[2:])

    def goal_of(proof):
        base = coding.decode_formula(args[1])
        fv = sorted(free_vars(base))
        if not proof.steps or len(fv) != len(vals):
            return FALSE
        return proof.conclusion if _matches_numeral_subst(proof.conclusion, base, fv, vals) else FALSE

    return _prove(args[0], goal_of, _axiom_test(ref, budget))


def _eval_prfgoal(params, args, budget) -> TV3:
    goalkind, thykind = params[0], params[1]
    ncon = theories.ncon_machine_of if thykind == "idx" else theories.ncon_sent_of

    def goal_of(proof):
        if goalkind == "marker":
            try:
                return theories.marker_sentence(params[2])
            except theories.TheoryError:  # not a theory name, as for Prf[ref]
                return FALSE
        if goalkind == "inhab":
            scode, x = args[2], args[3]
            if x > 100_000:
                return UNKNOWN  # the goal's numeral cannot be materialized
            sigma = coding.decode_formula(scode)
            fv = sorted(free_vars(sigma))
            if len(fv) != 2:
                return FALSE
            return Ex(fv[1], substitute(sigma, fv[0], numeral(x + 1)))
        if goalkind == "refl":
            m, kind, lvl = params[2], params[3], params[4]
            scode, x = args[2], args[3]
            zv = 0
            t_atom = DAtom("TrueClAt", (kind, lvl), (code_literal(scode), code_literal(x + 1), Var(zv)))
            return All(zv, Imp(t_atom, ncon(m, Var(zv), 1)))
        return ncon(params[2], code_literal(args[2]), 0)  # connum

    y = args[1]
    test = _axiom_test(None, budget, (y,)) if thykind == "sent" else _axiom_test(refs.Mach(y), budget)
    return _prove(args[0], goal_of, test)


def _eval_true(kind: str):
    return lambda params, args, budget: eval_truth(ComplexityClass(kind, params[0]), args[0], budget)


def _eval_trueseqat(params, args, budget) -> TV3:
    kind, n = params
    a, s, k = args
    try:
        w = coding.seq_at(s, k)
    except (coding.NotACode, IndexError):
        return FALSE
    return _truth(a, kind, n, (w,), (0, 1), budget)


def _eval_trueclat(params, args, budget) -> TV3:
    kind, n = params
    s, a, b = args
    return _truth(s, kind, n, (a, b), (2,), budget)


def _eval_inclass(kind: str):
    def ev(params, args, budget) -> TV3:
        f = coding.try_decode_formula(args[0])
        return FALSE if f is None else from_bool(class_leq(classify(f), ComplexityClass(kind, params[0])))

    return ev


@coding.cached
def _diag_cached(z: int, i: int):
    from .diagonal import diag_value

    return diag_value(z, i)


def _eval_diag(params, args, budget) -> TV3:
    z, i, y = args
    w = _diag_cached(z, i)
    return from_bool(w is not None and w == y)


def _eval_seqat(params, args, budget) -> TV3:
    s, k, w = args
    try:
        return from_bool(coding.seq_at(s, k) == w)
    except (coding.NotACode, IndexError):
        return FALSE


def _solve_seqat(params, vals):
    s, k = vals
    try:
        return coding.seq_at(s, k)
    except (coding.NotACode, IndexError):
        return None


def _eval_machidx(params, args, budget) -> TV3:
    (m,) = params
    x, w, z, y = args
    return from_bool(coding.machine_desc(y) == (m, x, z, w))


def _solve_machidx(params, vals):
    (m,) = params
    x, w, z = vals
    if w > 100_000:
        raise OverflowError("machine index padding too large to materialize")
    try:
        return coding.machine_index(x, w, z, m)
    except (coding.NotACode, ValueError):
        return None


def _suggest_machidx(params, arg_terms, v, env, budget):
    """When the padding count w is quantified and the output y is known,
    invert the description code."""
    (m,) = params
    x_t, w_t, z_t, y_t = arg_terms
    if w_t != Var(v):
        return []
    try:
        y = term_value_env(y_t, env)
    except (OverflowError, EvalError):
        return []
    desc = coding.machine_desc(y)
    if desc is None or desc[0] != m:
        return []
    return [desc[3]]


@coding.cached
def _mcon_slice_code(m: int, n: int, z: int) -> Optional[int]:
    tau = coding.try_decode_formula(z)
    if tau is None or len(free_vars(tau)) != 2:
        return None
    return coding.encode(theories.ncon_of_slice(m, tau, n + 1))


_SMALL_CODE_BITS = 700  # any reflection formula codes far above this


def _eval_consliceat(params, args, budget) -> TV3:
    (m,) = params
    x, n, z = args
    if x.bit_length() < _SMALL_CODE_BITS:
        return FALSE
    target = _mcon_slice_code(m, n, z)
    return from_bool(target is not None and x == target)


def _eval_padconat(params, args, budget) -> TV3:
    (m,) = params
    x, s, n, z = args
    if s < 1 or x.bit_length() < _SMALL_CODE_BITS:
        return FALSE
    target = _mcon_slice_code(m, n, z)
    if target is None:
        return FALSE
    f = coding.try_decode_formula(x)
    if f is None:
        return FALSE
    for phi, count in craig.pad_decompositions(f):
        if count == s and coding.encode(phi) == target:
            return TRUE
    return FALSE


def _suggest_padconat(params, arg_terms, v, env, budget):
    """Suggest the padding length from the conjunction code when x is known."""
    x_t, s_t, n_t, z_t = arg_terms
    if s_t != Var(v):
        return []
    try:
        x = term_value_env(x_t, env)
    except (OverflowError, EvalError):
        return []
    f = coding.try_decode_formula(x)
    if f is None:
        return []
    return [count for _, count in craig.pad_decompositions(f)]


def _eval_sliceconj(params, args, budget) -> TV3:
    (unary,) = params
    x, y, p = args
    psi = coding.try_decode_formula(p)
    if psi is None:
        return FALSE
    if y > budget:
        return UNKNOWN
    fv = sorted(free_vars(unary))
    if len(fv) != 1:
        return FALSE
    members = []
    for z in range(y + 1):
        r = eval_formula(unary, max(budget - 1, 0), {fv[0]: z})
        if r.is_unknown():
            return UNKNOWN
        if r.is_true():
            g = coding.try_decode_formula(z)
            if g is not None:
                members.append(And(g, psi))
    if not members:
        conj: Formula = EqAtom(ZERO, ZERO)
    else:
        conj = members[-1]
        for g in reversed(members[:-1]):
            conj = And(g, conj)
    return from_bool(x == coding.encode(conj))


def _eval_itercon(params, args, budget) -> TV3:
    m, ref = params
    (x,) = args
    if x > 12:
        return UNKNOWN
    try:
        T = theories.resolve_ref(ref)
    except theories.TheoryError:
        return FALSE
    f = theories.iter_ncon(m, x, T)
    return eval_formula(f, max(budget - 1, 0), {})


def _eval_rfninst(params, args, budget) -> TV3:
    (baseref,) = params
    x, n, z = args
    if x.bit_length() < _SMALL_CODE_BITS:
        return FALSE
    f = coding.try_decode_formula(x)
    if f is None:
        return FALSE
    # strip the universal closure, then read off the consequent
    g = f
    while isinstance(g, All):
        g = g.body
    if not isinstance(g, Imp):
        return FALSE
    phi = g.right
    ref = refs.SlipExt(baseref if not isinstance(baseref, str) else refs.Named(baseref), z, n + 1)
    try:
        expected = theories.rfn_instance_for_ref(ref, phi)
    except (theories.TheoryError, ValueError):
        return FALSE
    return from_bool(f == expected)


# name: (evaluator, solver, suggester), installed into the registry, whose
# slots are read at call time
_BEHAVIOUR = {
    "AxOf": (_eval_axof, None, None),
    **{name: (_eval_prf_family(name), None, None) for name in _PRF_AXIOMS},
    "PrfIdx": (_eval_prfidx, None, None),
    "PrfEx": (_eval_prfex, None, None),
    "PrfSub": (_eval_prfsub, None, None),
    "PrfGoal": (_eval_prfgoal, None, None),
    "TrueSigma": (_eval_true("Sigma"), None, None),
    "TruePi": (_eval_true("Pi"), None, None),
    "TrueSeqAt": (_eval_trueseqat, None, None),
    "TrueClAt": (_eval_trueclat, None, None),
    "InSigma": (_eval_inclass("Sigma"), None, None),
    "InPi": (_eval_inclass("Pi"), None, None),
    "Diag": (_eval_diag, lambda params, vals: _diag_cached(*vals), None),
    "SeqAt": (_eval_seqat, _solve_seqat, None),
    "MachIdx": (_eval_machidx, _solve_machidx, _suggest_machidx),
    "ConSliceAt": (_eval_consliceat, lambda params, vals: _mcon_slice_code(params[0], *vals), None),
    "PadConAt": (_eval_padconat, None, _suggest_padconat),
    "SliceConj": (_eval_sliceconj, None, None),
    "IterCon": (_eval_itercon, None, None),
    "RfnInst": (_eval_rfninst, None, None),
    "ZfAx": (lambda params, args, budget: UNKNOWN, None, None),
}
assert _BEHAVIOUR.keys() == registry.FAMILIES.keys()
for _name, (_ev, _solve, _suggest) in _BEHAVIOUR.items():
    _fam = registry.FAMILIES[_name]
    _fam.evaluator, _fam.solver, _fam.suggester = _ev, _solve, _suggest
