"""Batch command-line front end.

Deterministic, scriptable: identical inputs give byte-identical output.
Exit codes: 0 success, 1 domain error (bad formula, not a code, ...),
2 usage error.  Sequence specs travel between subcommands as JSON files
written by `seq build`.
"""

from __future__ import annotations

import argparse
import sys

from . import coding, craig, registry, sequences, theories
from .diagonal import fixed_point, verify_fixed_point
from .hierarchy import classify
from .semantics import check_proof, eval_sentence
from .syntax import DAtom, Formula, Imp, Succ, free_vars, parse_formula, print_formula, print_term

NUMERAL_NODE_CAP = 100_000


class DomainError(Exception):
    pass


def nat(text: str) -> int:
    """argparse type of counts and bounds: a negative one is a usage error."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _max_numeral_nodes(f) -> int:
    best = 0
    stack = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, Succ):
            n = 0
            while isinstance(x, Succ):
                n += 1
                x = x.arg
            best = max(best, n)
        stack.extend(x._children())
    return best


def _load_formula(text: str):
    f = parse_formula(text)
    if f.size > 5_000_000:
        raise DomainError("formula too large")
    if _max_numeral_nodes(f) > NUMERAL_NODE_CAP:
        raise DomainError(f"numeral exceeds the {NUMERAL_NODE_CAP}-node cap")
    return f


def _load_registered(text: str):
    """_load_formula for the commands that classify or evaluate: every
    designated atom, also inside formula params, must be registered."""
    f = _load_formula(text)
    stack = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, DAtom):
            registry.get_family(x.name)  # UnknownAtom, a ValueError, if unregistered
            stack.extend(p for p in x.params if isinstance(p, Formula))
        else:
            stack.extend(c for c in x._children() if isinstance(c, Formula))
    return f


def _read_spec(path: str) -> sequences.SequenceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return sequences.spec_from_json(fh.read())
    except OSError as e:
        raise DomainError(f"cannot read spec file: {e}")


def cmd_parse(args, out) -> int:
    f = _load_formula(args.formula)
    out.write(print_formula(f) + "\n")
    return 0


def cmd_classify(args, out) -> int:
    f = _load_registered(args.formula)
    out.write(classify(f).text() + "\n")
    return 0


def cmd_encode(args, out) -> int:
    f = _load_formula(args.formula)
    out.write(str(coding.encode(f)) + "\n")
    return 0


def cmd_decode(args, out) -> int:
    try:
        n = int(args.number)
    except ValueError:
        raise DomainError("decode expects a decimal natural")
    try:
        obj = coding.decode(n)
    except coding.NotACode as e:
        raise DomainError(f"not a code: {e}")
    out.write((print_formula(obj) if isinstance(obj, Formula) else print_term(obj)) + "\n")
    return 0


def cmd_fixpoint(args, out) -> int:
    f = _load_registered(args.formula)
    if args.hole not in free_vars(f):
        raise DomainError(f"hole variable x{args.hole} is not free in the formula")
    r = fixed_point(f, args.hole)
    out.write(print_formula(r.tau) + "\n")
    out.write(classify(r.tau).text() + "\n")
    if args.verify:
        rep = verify_fixed_point(r, args.verify, args.budget)
        out.write(f"verified {rep.samples} samples: {len(rep.disagreements)} disagreements\n")
    return 0


def cmd_craig(args, out) -> int:
    base = theories.standard_theory(args.base)
    if base.finite_size is not None and args.count > base.finite_size:
        raise DomainError(f"{base.name} has only {base.finite_size} axioms")
    pres = craig.craig_presentation(base)
    rec = pres.export_record(args.count)
    out.write(f"name {rec['name']}\n")
    out.write(f"axiom_formula {rec['axiom_formula']}\n")
    out.write(f"machine_code {rec['machine_code']}\n")
    for i in range(args.count):
        phi = base.enumerator(i)
        pad = craig.pad_conjunction(phi, i + 1)
        p1, p2 = craig.equivalence_certificates(base, i)
        ok = check_proof(base, p1, Imp(pad, phi)) and check_proof(base, p2, Imp(phi, pad))
        out.write(f"axiom {i} certificates {'ok' if ok else 'FAIL'}\n")
    return 0


def cmd_eval(args, out) -> int:
    f = _load_registered(args.formula)
    if free_vars(f):
        raise DomainError("eval expects a sentence (no free variables)")
    out.write(str(eval_sentence(f, args.budget)) + "\n")
    return 0


def cmd_seq_build(args, out) -> int:
    base = theories.standard_theory(args.base)
    if args.construction == "visser":
        culprit = theories.standard_theory(args.culprit) if args.culprit else None
        spec = sequences.visser_sequence(base, culprit)
    elif args.construction == "sigma-slice":
        spec = sequences.sigma_slice_sequence(args.m, base)
    elif args.construction == "pi-slice":
        spec = sequences.pi_slice_sequence(args.m, base)
    elif args.construction == "index":
        spec = sequences.index_sequence(args.m, base)
    else:
        raise DomainError(f"unknown construction {args.construction!r}")
    text = sequences.spec_to_json(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        out.write(f"wrote {args.out}\n")
    out.write(f"construction {spec.construction}\n")
    out.write(f"encoding {spec.encoding}\n")
    out.write(f"declared {spec.declared_class.text()}\n")
    out.write(f"actual {classify(spec.tau).text()}\n")
    return 0


def cmd_seq_slice(args, out) -> int:
    spec = _read_spec(args.spec)
    rows = sequences.slice_axioms(spec, args.n, args.bound, args.budget)
    for k, verdict in rows:
        if verdict.is_true() or args.all:
            try:
                text = print_formula(coding.decode_formula(k))
            except coding.NotACode:
                text = "non-code"
            out.write(f"k {k} verdict {verdict} formula {text}\n")
    if not args.all:
        out.write(f"scanned {args.bound + 1} codes\n")
    return 0


def cmd_seq_index_of(args, out) -> int:
    spec = _read_spec(args.spec)
    y = sequences.index_of(spec, args.n, args.budget)
    out.write("unknown\n" if y is None else f"{y}\n")
    return 0


def cmd_seq_ds(args, out) -> int:
    f = sequences.ds_sentence(args.variant, args.m)
    out.write(print_formula(f) + "\n")
    th = sequences.ds_components(args.variant, args.m)
    for name in ("theta1", "theta2", "theta3", "theta4"):
        out.write(f"{name} {classify(th[name]).text()}\n")
    return 0


def cmd_selfcheck(args, out) -> int:
    from . import selfcheck

    return selfcheck.run(out, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conseq", description="reflection-sequence toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical text")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("classify", help="arithmetic-hierarchy class of a formula")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("encode", help="Goedel code of a formula (decimal)")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="formula of a Goedel code")
    p.add_argument("number")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("fixpoint", help="diagonal fixed point of a formula at a hole variable")
    p.add_argument("formula")
    p.add_argument("--hole", type=int, required=True)
    p.add_argument("--verify", type=nat, default=0, metavar="SAMPLES")
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(fn=cmd_fixpoint)

    p = sub.add_parser("craig", help="padded elementary presentation of a theory stream")
    p.add_argument("--base", required=True)
    p.add_argument("--count", type=nat, default=5)
    p.set_defaults(fn=cmd_craig)

    p = sub.add_parser("eval", help="budgeted three-valued truth of a sentence")
    p.add_argument("formula")
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(fn=cmd_eval)

    seq = sub.add_parser("seq", help="sequence constructions")
    seqsub = seq.add_subparsers(dest="seqcmd", required=True)

    p = seqsub.add_parser("build")
    p.add_argument("construction", choices=["visser", "sigma-slice", "pi-slice", "index"])
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--base", default="EA")
    p.add_argument("--culprit", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_seq_build)

    p = seqsub.add_parser("slice")
    p.add_argument("spec")
    p.add_argument("--n", type=nat, required=True)
    p.add_argument("--bound", type=nat, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--all", action="store_true", help="print every scanned code")
    p.set_defaults(fn=cmd_seq_slice)

    p = seqsub.add_parser("index-of")
    p.add_argument("spec")
    p.add_argument("--n", type=nat, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(fn=cmd_seq_index_of)

    p = seqsub.add_parser("ds")
    p.add_argument("variant", choices=list(sequences.DS_VARIANTS))
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=cmd_seq_ds)

    p = sub.add_parser("selfcheck", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selfcheck)

    return ap


def run(argv: list[str], out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args, out)
    except (DomainError, ValueError) as e:
        out.write(f"error: {e}\n")
        return 1
    except RecursionError:
        # eval_formula recurses once per connective
        out.write("error: formula nested too deeply\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
