"""Constructive self-reference: given psi with a designated code-hole
variable, produce tau with tau equivalent to psi at tau's own code.

The construction routes through the Diag atom, the Delta-0 declared graph of
the diagonalization function diag(z, i) = code of (decode(z) with variable i
replaced by the compact literal of z).  With v fresh and

    beta := E hole (Diag(x_v, numeral(v), x_hole) /\\ psi)       (Sigma form)
    beta := A hole (Diag(x_v, numeral(v), x_hole) -> psi)        (Pi form)

the result is tau := beta[x_v := compact literal of code(beta)]; Diag then
holds exactly at hole = code(tau), so evaluating tau unfolds to psi at tau's
code.  Provable equivalence over a weak base is not machine-checked; the
semantic unfolding is (verify_fixed_point), and that check is what guards the
construction against regressions.

The substituted certificate is the compact binary literal, not a unary
numeral: codes are astronomically large, so an S-tower certificate is
physically impossible while the compact literal stays logarithmic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import coding
from .hierarchy import classify
from .syntax import (
    All,
    And,
    DAtom,
    Ex,
    Formula,
    Imp,
    Term,
    Var,
    code_literal,
    free_vars,
    max_var,
    numeral,
    substitute,
    term_value,
)


class DiagonalError(ValueError):
    pass


def diag_value(z: int, i: int) -> int | None:
    """The diagonalization function: code of decode(z) with variable i
    replaced by the compact literal of z; None where undefined."""
    try:
        f = coding.decode(z)
    except coding.NotACode:
        return None
    if not isinstance(f, Formula):
        return None
    return coding.encode(substitute(f, i, code_literal(z)))


@dataclass(frozen=True)
class FixedPointResult:
    tau: Formula
    psi: Formula
    hole: int
    certificate: Term  # the code literal actually substituted for the fresh variable

    @property
    def certificate_value(self) -> int:
        return term_value(self.certificate)


def fixed_point(psi: Formula, hole: int) -> FixedPointResult:
    """Goedel-Carnap construction through the Diag atom; the wrapper form
    (existential or universal) is chosen to match classify(psi), so the
    class is preserved for Sigma-n / Pi-n inputs.  Delta-0 inputs promote to
    the existential form and come out Sigma-1."""
    if hole not in free_vars(psi):
        raise DiagonalError("hole variable is not free in psi")
    v = max_var(psi) + 1
    cls = classify(psi)
    diag = DAtom("Diag", (), (Var(v), numeral(v), Var(hole)))
    if cls.kind == "Pi":
        beta: Formula = All(hole, Imp(diag, psi))
    else:
        beta = Ex(hole, And(diag, psi))
    code = coding.encode(beta)
    cert = code_literal(code)
    tau = substitute(beta, v, cert)
    return FixedPointResult(tau=tau, psi=psi, hole=hole, certificate=cert)


@dataclass(frozen=True)
class UnfoldingReport:
    samples: int
    decided_pairs: int
    disagreements: tuple
    budget: int
    seed: int

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def verify_fixed_point(result: FixedPointResult, samples: int, budget: int, seed: int = 0) -> UnfoldingReport:
    """Compare tau against psi evaluated at tau's code, over sampled
    assignments of tau's free variables.  A disagreement is a sample where
    both sides decide and differ."""
    from .semantics import eval_formula

    rng = random.Random(seed)
    fv = sorted(free_vars(result.tau))
    tau_code = coding.encode(result.tau)
    disagreements = []
    decided = 0
    for _ in range(samples):
        env = {v: rng.randrange(0, 8) for v in fv}
        left = eval_formula(result.tau, budget, env)
        env2 = dict(env)
        env2[result.hole] = tau_code
        right = eval_formula(result.psi, budget, env2)
        if left.is_decided() and right.is_decided():
            decided += 1
            if left != right:
                disagreements.append((dict(env), str(left), str(right)))
    return UnfoldingReport(
        samples=samples,
        decided_pairs=decided,
        disagreements=tuple(disagreements),
        budget=budget,
        seed=seed,
    )
