"""Pinned verdicts: one seeded differential corpus, hashed.

The digest hashes, per row:

- 3,200 seeded formulas (`random_formula` under a fixed assignment of its
  free variables, and `random_decidable_sentence`): the printed text, the
  code, the class, and the verdict or exception type at budgets 4 and 16;
- `decode` of 12,000 seeded integers, 70% of them one-byte mutations of
  formula codes: the decoded text or the exception type;
- rows that reach the binder-aware walks behind the proof atoms:
  `_matches_numeral_subst` directly and through `PrfSub`, the goal of
  `PrfGoal[inhab, ...]` and `theories.slice_unary` (both `substitute`), and
  `ALL-E` steps (`_infer_witness`), each on instances and on near misses.

A change that alters one verdict, one decoded tree or one substituted
formula changes the digest.  Nothing here is built at import: perfbench's
codec-corpus imports test modules, so they stay cheap to import.
"""

import hashlib
import random

from conseq import coding
from conseq.gen import random_decidable_sentence, random_formula, random_term
from conseq.hierarchy import classify
from conseq.semantics import _matches_numeral_subst, eval_formula, eval_sentence, match_scheme
from conseq.sequences import index_sequence, pi_slice_sequence, sigma_slice_sequence, visser_sequence
from conseq.syntax import All, DAtom, Ex, Imp, Not, code_literal, free_vars, numeral, print_formula, substitute
from conseq.theories import slice_unary, standard_theory

ENV = {0: 1, 1: 0, 2: 3}


def _outcome(thunk) -> str:
    try:
        return str(thunk())
    except Exception as e:  # the exception type is the pinned outcome
        return type(e).__name__


def _formula_rows(row, rng):
    formulas = []
    for i in range(3200):
        if i % 2:
            f = random_decidable_sentence(rng, 3)
            run = eval_sentence
        else:
            f = random_formula(rng, 3, [0, 1, 2])
            run = lambda g, b: eval_formula(g, b, ENV)  # noqa: E731
        formulas.append(f)
        verdicts = " ".join(_outcome(lambda b=b: run(f, b)) for b in (4, 16))
        row(f"{print_formula(f)} {coding.encode(f)} {classify(f).text()} {verdicts}")
    return formulas


def _decode_rows(row, rng, formulas):
    codes = [coding.encode(f) for f in formulas]
    for _ in range(12000):
        if rng.random() < 0.7:
            c = rng.choice(codes)
            b = bytearray(c.to_bytes((c.bit_length() + 7) // 8, "big"))
            b[rng.randrange(len(b))] = rng.randrange(256)
            n = int.from_bytes(b, "big")
        else:
            n = rng.getrandbits(rng.randrange(1, 120))
        row(_outcome(lambda: print_formula(coding.decode(n))))


def _instance_pairs(rng, n):
    """(base, its free variables, values, the instance at those numerals)."""
    out = []
    while len(out) < n:
        base = random_formula(rng, 3, [0, 1, 2])
        fv = sorted(free_vars(base))
        if not fv:
            continue
        vals = [rng.randrange(4) for _ in fv]
        inst = base
        for v, k in zip(fv, vals):
            inst = substitute(inst, v, numeral(k))
        out.append((base, fv, vals, inst))
    return out


def _walk_rows(row, rng):
    # _matches_numeral_subst: the instance, another value, and the base itself
    for base, fv, vals, inst in _instance_pairs(rng, 400):
        other = [k + (j == 0) for j, k in enumerate(vals)]
        got = [_matches_numeral_subst(g, base, fv, w) for g, w in ((inst, vals), (inst, other), (base, vals))]
        row(f"numsubst {print_formula(inst)} {got}")

    # PrfSub over K-scheme instances, a one-step logical proof of the instance
    for base, fv, vals, inst in _instance_pairs(rng, 30):
        k_base = Imp(base, Imp(base, base))
        k_inst = Imp(inst, Imp(inst, inst))
        proof = coding.encode_proof(coding.Proof((coding.Step(k_inst, ("logical", "K")),)))
        for w in (vals, [k + 1 for k in vals]):
            args = (code_literal(proof), code_literal(coding.encode(k_base))) + tuple(map(numeral, w))
            row(f"prfsub {eval_formula(DAtom('PrfSub', ('EA',), args), 4)}")

    # PrfGoal[inhab, sent](p, y, s, x): the goal is E v. sigma(x+1, v)
    count = 0
    while count < 30:
        sigma = random_formula(rng, 3, [0, 1])
        fv = sorted(free_vars(sigma))
        if len(fv) != 2:
            continue
        count += 1
        x = rng.randrange(3)
        goal = Ex(fv[1], substitute(sigma, fv[0], numeral(x + 1)))
        proof = coding.encode_proof(coding.Proof((coding.Step(goal, ("axiom",)),)))
        for y in (x, x + 1):
            args = tuple(map(code_literal, (proof, coding.encode(goal), coding.encode(sigma), y)))
            row(f"inhab {print_formula(goal)} {eval_formula(DAtom('PrfGoal', ('inhab', 'sent'), args), 4)}")

    # ALL-E: A v. body -> body[t/v], with terms that hold the body's binders
    for _ in range(400):
        body = random_formula(rng, 3, [0, 1, 2])
        v = rng.choice([0, 1, 2])
        t = random_term(rng, 2, [0, 1, 3, 5, 7])
        inst = substitute(body, v, t)
        verdicts = [match_scheme("ALL-E", Imp(All(v, body), g)) for g in (inst, Not(inst))]
        row(f"all-e {print_formula(inst)} {verdicts}")

    # slice_unary on the four construction taus
    ea = standard_theory("EA")
    for spec in (visser_sequence(ea), sigma_slice_sequence(2, ea), pi_slice_sequence(2, ea), index_sequence(2, ea)):
        for idx in range(3):
            row(f"slice {hashlib.sha256(print_formula(slice_unary(spec.tau, idx)).encode()).hexdigest()}")


def _digest() -> str:
    h = hashlib.sha256()

    def row(text):
        h.update(text.encode() + b"\n")

    rng = random.Random(20261022)
    formulas = _formula_rows(row, rng)
    _decode_rows(row, rng, formulas)
    _walk_rows(row, rng)
    return h.hexdigest()


VERDICT_DIGEST = "d6b71120ab5464729d215f62287e6a3e2e5df500541362836d68dd843dd595f9"


def test_verdict_digest():
    assert _digest() == VERDICT_DIGEST
