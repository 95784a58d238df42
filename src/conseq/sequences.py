"""The descending-sequence constructions and the DS sentences.

Four constructions, each a binary fixed-point formula tau(n, x):
  visser_sequence      -- slice encoding; base axioms unconditionally, plus
                          reflection-instance codes while no culprit proof of
                          the falsum exists below n;
  sigma_slice_sequence -- slice encoding, Sigma-m, with the witness-sequence
                          form of the soundness guard and the next-slice
                          m-reflection sentence as the conditional axiom;
  pi_slice_sequence    -- slice encoding, Pi-(m-1) modulo BSigma-m via the
                          collection rewrite, with padded conjunctions;
  index_sequence       -- index encoding, Pi-m modulo BSigma-m, least machine
                          index satisfying the soundness guard, fallback to
                          the base theory's own machine code.

Plus the x -> x+1 shift and the three DS sentence variants, which differ at
the documented theta-1 / theta-4 positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from . import coding, refs
from .diagonal import FixedPointResult, fixed_point
from .hierarchy import ComplexityClass, Pi, Sigma, classify, collection_rewrite
from .semantics import TV3, eval_formula
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
    Not,
    Or,
    Succ,
    Var,
    code_literal,
    free_vars,
    numeral,
    parse_formula,
    print_formula,
    substitute,
)
from .theories import (
    TheoryPresentation,
    falsum_literal,
    in_class_atom,
    marker_sentence,
    ncon_machine_of,
    ncon_sent_of,
    standard_theory,
    _ref_param,
)


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class SequenceSpec:
    construction: str
    encoding: str  # "slice" | "index"
    tau: Formula
    declared_class: ComplexityClass
    base: TheoryPresentation
    level: int
    fixed_point_result: Optional[FixedPointResult] = field(default=None, repr=False)
    # index construction only: the existence half of the mu-wrapper, used by
    # index_of for candidate verification (vars: first = n, second = y,
    # third = the tau-code hole)
    mu_exists: Optional[Formula] = field(default=None, repr=False)
    culprit: Optional[str] = None
    # bookkeeping only: the pointwise-provably-inhabited property asserted by
    # the source construction; not machine-checked
    ppi_documented: bool = False

    def tau_vars(self) -> tuple[int, int]:
        fv = sorted(free_vars(self.tau))
        if len(fv) != 2:
            raise SequenceError("sequence formula must be binary")
        return fv[0], fv[1]


# ---------------------------------------------------------------------------
# Shared pieces

N, X, HOLE = 0, 1, 2  # variable layout of every construction's psi


def _theta_guard(m: int, momega_param, bound_var: int, s_var: int, k_var: int, a_var: int) -> Formula:
    """A k<=bound A a<=bound (a in Pi-(m-1) /\\ Prf_momega(k, Ex a) ->
    True_Pi-(m-1)(a at s_k)) -- the soundness guard shared by the
    constructions (bounds per the respective displays)."""
    ante = And(
        in_class_atom("Pi", m - 1, Var(a_var)),
        DAtom("PrfEx", (momega_param,), (Var(k_var), Var(a_var))),
    )
    succ = DAtom("TrueSeqAt", ("Pi", m - 1), (Var(a_var), Var(s_var), Var(k_var)))
    return BAll(k_var, Var(bound_var), BAll(a_var, Var(bound_var), Imp(ante, succ)))


def _momega_param(m: int, T: TheoryPresentation):
    return refs.MOmega(m, T.ref)


# ---------------------------------------------------------------------------
# Constructions


def visser_sequence(base: TheoryPresentation, culprit: Optional[TheoryPresentation] = None) -> SequenceSpec:
    """Slice sequence: every slice holds the base axioms; while no culprit
    proof of the falsum has index <= n, slice n also holds every code of a
    reflection-schema instance for base + slice n+1."""
    if culprit is None:
        culprit = standard_theory("ZFstub")
    trigger = BAll(
        3, Var(N), Not(DAtom("PrfIdx", (_ref_param(culprit.ref),), (Var(3), falsum_literal())))
    )
    rfn_member = DAtom("RfnInst", (_ref_param(base.ref),), (Var(X), Var(N), Var(HOLE)))
    psi = Or(base.axiom_formula_at(Var(X)), And(trigger, rfn_member))
    fp = fixed_point(psi, HOLE)
    return SequenceSpec(
        construction="visser",
        encoding="slice",
        tau=fp.tau,
        declared_class=classify(fp.tau),
        base=base,
        level=0,
        fixed_point_result=fp,
        culprit=culprit.name,
    )


def sigma_slice_sequence(m: int, T: TheoryPresentation) -> SequenceSpec:
    """Sigma-m slice sequence: the witness sequence is quantified in front of
    the bounded guard block, so no collection is needed for the class."""
    if m < 1:
        raise SequenceError("m must be at least 1")
    mo = _momega_param(m, T)
    two_a = Ex(3, _theta_guard(m, mo, bound_var=N, s_var=3, k_var=4, a_var=5))
    two_b = DAtom("ConSliceAt", (m,), (Var(X), Var(N), Var(HOLE)))
    psi = Or(T.axiom_formula_at(Var(X)), And(two_a, two_b))
    fp = fixed_point(psi, HOLE)
    return SequenceSpec(
        construction="sigma-slice",
        encoding="slice",
        tau=fp.tau,
        declared_class=Sigma(m),
        base=T,
        level=m,
        fixed_point_result=fp,
        ppi_documented=True,
    )


def pi_slice_sequence(m: int, T: TheoryPresentation) -> SequenceSpec:
    """Pi-(m-1)-modulo-BSigma-m slice sequence: the conditional axioms are
    padded conjunctions of the next-slice reflection sentence, the witness
    sequence is bounded by the axiom code, and the collection rewrite
    certifies the class."""
    if m < 2:
        raise SequenceError("m must be at least 2")
    mo = _momega_param(m, T)
    theta = _theta_guard(m, mo, bound_var=N, s_var=3, k_var=4, a_var=5)
    pad = DAtom("PadConAt", (m,), (Var(X), Var(3), Var(N), Var(HOLE)))
    disj2 = BEx(3, Var(X), And(theta, pad))
    rewritten, cls = collection_rewrite(disj2, f"BSigma{m}")
    psi = Or(T.axiom_formula_at(Var(X)), rewritten)
    fp = fixed_point(psi, HOLE)
    return SequenceSpec(
        construction="pi-slice",
        encoding="slice",
        tau=fp.tau,
        declared_class=ComplexityClass(cls.kind, cls.level, modulo=cls.modulo),
        base=T,
        level=m,
        fixed_point_result=fp,
        ppi_documented=True,
    )


def _lt_ex(v: int, bound_var: int, body: Formula) -> Formula:
    """E v < x_bound, spelled with the primitive <= and a disequality guard."""
    return BEx(v, Var(bound_var), And(Not(EqAtom(Var(v), Var(bound_var))), body))


def _lt_all(v: int, bound_var: int, body: Formula) -> Formula:
    return BAll(v, Var(bound_var), Imp(Not(EqAtom(Var(v), Var(bound_var))), body))


def index_sequence(m: int, T: TheoryPresentation) -> SequenceSpec:
    """Pi-m (modulo BSigma-m) index sequence: the index of stage n is the
    least machine code satisfying the soundness guard, with the base theory's
    own machine code as fallback when the guard fails everywhere."""
    if m < 1:
        raise SequenceError("m must be at least 1")
    mo = _momega_param(m, T)

    def theta(s_var: int, k_var: int, a_var: int) -> Formula:
        return _theta_guard(m, mo, bound_var=N, s_var=s_var, k_var=k_var, a_var=a_var)

    def psi_in(y_var: int, s_var: int, w_var: int, k_var: int, a_var: int) -> Formula:
        return And(
            theta(s_var, k_var, a_var),
            DAtom("MachIdx", (m,), (Var(N), Var(w_var), Var(HOLE), Var(y_var))),
        )

    mu_exists = _lt_ex(3, X, _lt_ex(4, X, psi_in(X, 3, 4, 8, 9)))
    uniqueness = _lt_all(5, X, _lt_all(6, 5, _lt_all(7, 5, Not(psi_in(5, 6, 7, 10, 11)))))
    mu = And(mu_exists, uniqueness)
    fallback = And(All(3, Not(theta(3, 8, 9))), EqAtom(Var(X), code_literal(T.machine_code)))
    psi = Or(mu, fallback)
    fp = fixed_point(psi, HOLE)
    return SequenceSpec(
        construction="index",
        encoding="index",
        tau=fp.tau,
        declared_class=Pi(m, modulo=f"BSigma{m}"),
        base=T,
        level=m,
        fixed_point_result=fp,
        mu_exists=mu_exists,
        ppi_documented=True,
    )


def shift(spec: SequenceSpec) -> SequenceSpec:
    """The left shift: tau*(x, y) := tau(x+1, y), by substitution."""
    a, _ = spec.tau_vars()
    mu2 = None
    if spec.mu_exists is not None:
        mu2 = substitute(spec.mu_exists, N, Succ(Var(N)))
    return replace(
        spec,
        construction=spec.construction + "*",
        tau=substitute(spec.tau, a, Succ(Var(a))),
        mu_exists=mu2,
    )


# ---------------------------------------------------------------------------
# Slice and index extraction


def slice_axioms(
    spec: SequenceSpec,
    n: int,
    code_bound: int,
    budget: int,
    candidates: Optional[list[int]] = None,
) -> list[tuple[int, TV3]]:
    """Verdicts of tau(n, k): for every k <= code_bound when candidates is
    None, otherwise for exactly the given candidate codes (sorted).  Results
    ascend in k and match sequential evaluation bit for bit."""
    if spec.encoding != "slice":
        raise SequenceError("slice_axioms requires a slice-encoded spec")
    a, b = spec.tau_vars()
    ks = sorted(set(candidates)) if candidates is not None else range(code_bound + 1)
    out = []
    for k in ks:
        out.append((k, eval_formula(spec.tau, budget, {a: n, b: k})))
    return out


def slice_contains(spec: SequenceSpec, n: int, code: int, budget: int) -> TV3:
    a, b = spec.tau_vars()
    return eval_formula(spec.tau, budget, {a: n, b: code})


def index_of(spec: SequenceSpec, n: int, budget: int) -> Optional[int]:
    """The stage-n index: least y with a true verdict among the scanned range
    and the construction's candidate indices, with a uniqueness scan below
    the winner.  The budget bounds search effort; the witness itself is a
    machine code far beyond any scan range, which is why candidates are
    consulted (see the index construction's design notes).  None = unknown.
    """
    if spec.encoding != "index":
        raise SequenceError("index_of requires an index-encoded spec")
    a, b = spec.tau_vars()
    # small-value scan: index verdicts at small y are decidable outright; the
    # scan is capped because the mu-matrix costs grow quadratically in y
    probe = min(budget, 16)
    for y in range(min(budget, 24) + 1):
        if eval_formula(spec.tau, probe, {a: n, b: y}).is_true():
            return y
    # construction-aware candidates: machine indices at this stage, ascending
    tau_code = coding.encode(spec.tau)
    cands = []
    for w in range(8):
        try:
            cands.append(coding.machine_index(n, w, tau_code, spec.level))
        except (coding.NotACode, ValueError):
            break
    for y in cands:
        full = eval_formula(spec.tau, probe, {a: n, b: y})
        if full.is_true():
            return y
        if full.is_false():
            continue
        if spec.mu_exists is None:
            continue
        # the full verdict is unknown because the uniqueness clause cannot be
        # exhausted; verify the existence half here and check every smaller
        # candidate and every scanned point instead (they are the only values
        # at which the machine-index graph can hold)
        ex = eval_formula(spec.mu_exists, budget, {N: n, X: y, HOLE: tau_code})
        if not ex.is_true():
            continue
        smaller = [c for c in cands if c < y]
        if any(
            eval_formula(spec.mu_exists, budget, {N: n, X: c, HOLE: tau_code}).is_true()
            for c in smaller
        ):
            continue
        return y
    # fallback index
    e = spec.base.machine_code
    if eval_formula(spec.tau, probe, {a: n, b: e}).is_true():
        return e
    return None


# ---------------------------------------------------------------------------
# DS sentences

SIGMA_V, X_V, Y_V, Z_V, P_V = 0, 1, 2, 3, 4

DS_VARIANTS = ("slice-uniform", "index-uniform", "index-nonuniform")


def _x_term(shift_by: int):
    t = Var(X_V)
    for _ in range(shift_by):
        t = Succ(t)
    return t


def ds_components(variant: str, m: int, shift_by: int = 0) -> dict:
    """The four theta blocks of the chosen DS variant, over the sigma code
    variable x0.  shift_by builds the blocks for the shifted sequence
    sigma(x+shift, y)."""
    if m < 2:
        raise SequenceError("DS sentences require m >= 2")
    if variant not in DS_VARIANTS:
        raise SequenceError(f"unknown DS variant {variant!r}")
    sig = Var(SIGMA_V)
    xt = _x_term(shift_by)
    y = Var(Y_V)
    start = numeral(shift_by)
    slice_uniform = variant == "slice-uniform"
    lvl = ("Sigma", m - 1) if slice_uniform else ("Sigma", m)

    def t_at(a, b) -> Formula:
        return DAtom("TrueClAt", lvl, (sig, a, b))

    def every_stage(body: Formula) -> Formula:
        """At every stage x: some axiom y of the slice has body (slice
        encoding), or the index y has body (index encoding)."""
        if slice_uniform:
            return All(X_V, Ex(Y_V, And(t_at(xt, y), body)))
        return All(X_V, All(Y_V, Imp(t_at(xt, y), body)))

    def provable(goal_params: tuple, *args) -> Formula:
        """E p. PrfGoal[goal_params](p, args...)."""
        return Ex(P_V, DAtom("PrfGoal", goal_params, (Var(P_V),) + args))

    if slice_uniform:
        theta1 = All(X_V, Imp(t_at(start, Var(X_V)), ncon_sent_of(m, Var(X_V), 5)))
        theta2 = All(X_V, t_at(xt, code_literal(coding.encode(marker_sentence("BSigma1")))))
        theta3 = every_stage(provable(("inhab", "sent"), y, sig, xt))
        theta4 = every_stage(provable(("refl", "sent", m, "Sigma", m - 1), y, sig, xt))
    else:
        theta1 = Ex(X_V, And(t_at(start, Var(X_V)), ncon_machine_of(m, Var(X_V), 5)))
        theta2 = every_stage(provable(("marker", "idx", "BSigma1"), y))
        theta3 = every_stage(provable(("inhab", "idx"), y, sig, xt))
        if variant == "index-uniform":
            theta4 = every_stage(provable(("refl", "idx", m, "Sigma", m), y, sig, xt))
        else:
            z = Var(Z_V)
            theta4 = every_stage(All(Z_V, Imp(t_at(Succ(xt), z), provable(("connum", "idx", m), y, z))))
    return {"theta1": theta1, "theta2": theta2, "theta3": theta3, "theta4": theta4}


def ds_sentence(variant: str, m: int, sigma_class: Optional[ComplexityClass] = None) -> Formula:
    """E sigma in the stated class (theta1 /\\ theta2 /\\ theta3 /\\ theta4)."""
    if sigma_class is None:
        sigma_class = Sigma(m)
    th = ds_components(variant, m)
    guard = in_class_atom(sigma_class.kind, sigma_class.level, Var(SIGMA_V))
    body = And(guard, And(th["theta1"], And(th["theta2"], And(th["theta3"], th["theta4"]))))
    return Ex(SIGMA_V, body)


# ---------------------------------------------------------------------------
# Serialization (CLI pipelines pass specs between subcommands as files)


def spec_to_json(spec: SequenceSpec) -> str:
    d = {
        "construction": spec.construction,
        "encoding": spec.encoding,
        "m": spec.level,
        "base": spec.base.name,
        "declared_class": {
            "kind": spec.declared_class.kind,
            "level": spec.declared_class.level,
            "modulo": spec.declared_class.modulo,
        },
        "culprit": spec.culprit,
        "tau": print_formula(spec.tau),
        "mu_exists": print_formula(spec.mu_exists) if spec.mu_exists is not None else None,
    }
    return json.dumps(d, indent=1, sort_keys=True)


def spec_from_json(text: str) -> SequenceSpec:
    d = json.loads(text)
    try:
        cls = ComplexityClass(
            d["declared_class"]["kind"], d["declared_class"]["level"], d["declared_class"]["modulo"]
        )
        return SequenceSpec(
            construction=d["construction"],
            encoding=d["encoding"],
            tau=parse_formula(d["tau"]),
            declared_class=cls,
            base=standard_theory(d["base"]),
            level=d["m"],
            mu_exists=parse_formula(d["mu_exists"]) if d.get("mu_exists") else None,
            culprit=d.get("culprit"),
        )
    except KeyError as e:
        raise SequenceError(f"spec lacks the key {e.args[0]!r}") from None
