import io

import pytest

from conseq import coding, theories
from conseq.cli import run
from conseq.semantics import Proof, Step, encode_proof
from conseq.syntax import code_literal, parse_formula, print_formula, print_term


def _run(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def test_parse_and_exit_codes():
    code, text = _run(["parse", "0=0"])
    assert code == 0 and text == "0=0\n"
    code, text = _run(["parse", "0=@"])
    assert code == 1 and text.startswith("error:")
    code, _ = _run(["frobnicate"])
    assert code == 2


def test_classify_output_format():
    code, text = _run(["classify", "E x0. x0=0"])
    assert code == 0 and text == "Sigma 1\n"
    ncon2 = print_formula(theories.ncon_formula(2, theories.standard_theory("EA")))
    code, text = _run(["classify", ncon2])
    assert code == 0 and text == "Pi 3\n"


def test_eval():
    code, text = _run(["eval", "--budget", "10", "0=0"])
    assert code == 0 and text == "true\n"
    code, text = _run(["eval", "--budget", "10", "0=S(0)"])
    assert text == "false\n"
    code, text = _run(["eval", "--budget", "10", "E x0. S(x0)=0"])
    assert text == "unknown\n"
    code, text = _run(["eval", "--budget", "10", "x0=0"])
    assert code == 1


def test_encode_decode_roundtrip():
    _, enc = _run(["encode", "A x0. x0=x0"])
    code, dec = _run(["decode", enc.strip()])
    assert code == 0 and dec == "A x0. x0=x0\n"
    code, text = _run(["decode", "7"])
    assert code == 1


def test_fixpoint():
    code, text = _run(["fixpoint", "(InSigma[1](x7)\\/x9=x9)", "--hole", "7", "--verify", "5"])
    assert code == 0
    lines = text.splitlines()
    assert lines[-2].startswith("Sigma") or lines[-2].startswith("Pi") or lines[-2].startswith("Delta")
    assert lines[-1] == "verified 5 samples: 0 disagreements"
    code, _ = _run(["fixpoint", "0=0", "--hole", "7"])
    assert code == 1


def test_craig_subcommand():
    code, text = _run(["craig", "--base", "BSigma1", "--count", "3"])
    assert code == 0
    assert "axiom 0 certificates ok" in text
    assert "axiom 2 certificates ok" in text


def test_seq_pipeline(tmp_path):
    spec_file = str(tmp_path / "spec.json")
    code, text = _run(["seq", "build", "sigma-slice", "--m", "2", "--base", "EA", "--out", spec_file])
    assert code == 0
    assert "declared Sigma 2" in text
    assert "actual Sigma 2" in text
    code, text = _run(["seq", "slice", spec_file, "--n", "0", "--bound", "50", "--budget", "500"])
    assert code == 0
    assert "scanned 51 codes" in text
    code, text = _run(["seq", "slice", spec_file, "--n", "0", "--bound", "5", "--budget", "200", "--all"])
    assert code == 0
    for k in range(6):
        assert f"k {k} verdict false formula non-code" in text


def test_seq_index_pipeline(tmp_path):
    spec_file = str(tmp_path / "ispec.json")
    code, _ = _run(["seq", "build", "index", "--m", "2", "--base", "BSigma2", "--out", spec_file])
    assert code == 0
    code, text = _run(["seq", "index-of", spec_file, "--n", "0", "--budget", "10000"])
    assert code == 0
    assert text.strip().isdigit()


def test_seq_ds():
    code, text = _run(["seq", "ds", "index-nonuniform", "--m", "2"])
    assert code == 0
    assert "theta4 Pi 2" in text


def test_selfcheck_passes():
    code, text = _run(["selfcheck", "--seed", "0"])
    assert code == 0
    assert "FAIL" not in text


def test_determinism_byte_identical():
    for argv in (
        ["classify", "E x0. x0=0"],
        ["eval", "--budget", "10", "0=0"],
        ["encode", "A x0. x0=x0"],
        ["seq", "ds", "index-uniform", "--m", "2"],
    ):
        _, a = _run(argv)
        _, b = _run(argv)
        assert a == b


def test_unregistered_atom_is_a_domain_error():
    for argv in (
        ["eval", "Foo(0)", "--budget", "5"],
        ["classify", "(0=0/\\Foo(0))"],
        ["fixpoint", "Foo(x1)", "--hole", "1"],
        ["eval", "SliceConj[{Foo(x0)}](0,0,0)", "--budget", "5"],
    ):
        code, text = _run(argv)
        assert code == 1 and text == "error: unknown designated atom 'Foo'\n"
    # syntax does not check atom names
    assert _run(["parse", "Foo(0)"]) == (0, "Foo(0)\n")
    code, text = _run(["encode", "Foo(0)"])
    assert code == 0 and text.strip().isdigit()


def test_spec_without_a_key_is_a_domain_error(tmp_path):
    import json

    from conseq import sequences

    d = json.loads(sequences.spec_to_json(sequences.sigma_slice_sequence(2, theories.standard_theory("EA"))))
    del d["declared_class"]
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps(d))
    code, text = _run(["seq", "slice", str(spec_file), "--n", "0", "--bound", "3", "--budget", "10"])
    assert code == 1 and text == "error: spec lacks the key 'declared_class'\n"


DEEP = "~" * 3000  # nested past the interpreter's default recursion limit


def test_classify_of_a_deeply_nested_formula():
    assert _run(["classify", DEEP + "0=0"]) == (0, "Delta 0\n")


def test_deeply_nested_formula_is_a_domain_error():
    assert _run(["eval", "--budget", "4", DEEP + "0=0"]) == (1, "error: formula nested too deeply\n")


def test_fixpoint_of_a_deeply_nested_formula():
    code, out = _run(["fixpoint", DEEP + "x2=0", "--hole", "2"])
    assert code == 0 and out.startswith("E x2. (Diag(") and out.endswith(DEEP + "x2=0)\nSigma 1\n")


def test_atom_on_a_code_with_a_name_that_is_not_utf8_is_false():
    # the code of an atom whose one-byte name 0xFF is not UTF-8: not a code
    code = int.from_bytes(bytes([0x5A, 0x12, 0x01, 0xFF, 0x00, 0x00]), "big")
    lit = print_term(code_literal(code))
    assert _run(["eval", "--budget", "5", f"InSigma[1]({lit})"]) == (0, "false\n")


def test_class_level_that_is_not_an_int_is_a_domain_error():
    assert _run(["eval", "--budget", "3", "TrueSigma[x](0)"]) == (1, "error: TrueSigma parameter 0 must be a natural, got 'x'\n")


_EQ = parse_formula("0=0")
_EQ_LIT = print_term(code_literal(coding.encode(_EQ)))
_PROOF_LIT = print_term(code_literal(encode_proof(Proof((Step(_EQ, ("logical", "EQ-REFL")),)))))
MALFORMED_ATOMS = [
    "InSigma[x](0)",
    "MachIdx[x](0,0,0,0)",
    "PadConAt[x](0,0,0,0)",
    "ConSliceAt[x](0,0,0)",
    "ZfAx[x]()",
    "IterCon[x,PA](0)",
    f"PrfIdx[3](0,{_EQ_LIT})",
    f"SliceConj[3](0,0,{_EQ_LIT})",
    "PrfGoal(0,0)",
    f"PrfGoal[inhab,sent]({_PROOF_LIT},0)",
]


@pytest.mark.parametrize("cmd", [["classify"], ["eval", "--budget", "3"]], ids=["classify", "eval"])
@pytest.mark.parametrize("atom", MALFORMED_ATOMS, ids=[a.split("(")[0] for a in MALFORMED_ATOMS])
def test_malformed_registered_atom_is_a_domain_error(cmd, atom):
    code, text = _run(cmd + [atom])
    assert code == 1 and text.startswith("error: ") and text.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["craig", "--base", "Q", "--count", "-2"],
        ["fixpoint", "x1=0", "--hole", "1", "--verify", "-5"],
        ["seq", "slice", "spec.json", "--n", "0", "--bound", "-3", "--budget", "10"],
        ["seq", "slice", "spec.json", "--n", "-1", "--bound", "3", "--budget", "10"],
        ["seq", "index-of", "spec.json", "--n", "-1", "--budget", "10"],
    ],
    ids=["craig-count", "fixpoint-verify", "slice-bound", "slice-n", "index-of-n"],
)
def test_negative_count_is_a_usage_error(argv):
    assert _run(argv) == (2, "")


def test_craig_count_past_a_finite_base_is_a_domain_error():
    assert _run(["craig", "--base", "Q", "--count", "20"]) == (1, "error: Q has only 8 axioms\n")
    assert _run(["craig", "--base", "ZFstub", "--count", "11"]) == (1, "error: ZFstub has only 10 axioms\n")
    code, text = _run(["craig", "--base", "Q", "--count", "8"])
    assert code == 0 and text.endswith("axiom 7 certificates ok\n")


@pytest.mark.parametrize("name", ["ISigma\u00b2", "BSigma\u0663", "Foo"])
def test_eval_axiom_of_an_unknown_theory_is_false(name):
    lit = print_term(code_literal(coding.encode(parse_formula("0=0"))))
    assert _run(["eval", "--budget", "3", f"AxOf[{name}]({lit})"]) == (0, "false\n")
