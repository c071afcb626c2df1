"""Command line behaviour: outputs, determinism, exit codes."""

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from klrcalc.cli import MAX_BASIS, main

README = Path(__file__).resolve().parent.parent / "README.md"

# a basis of 8! C(11, 8) 560 = 3,725,568,000 monomials
HOSTILE_BASIS = ["basis", "--n", "8", "--block", "0,0,0,1,1,1,2,2", "--bound", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quiver_json(capsys):
    code, out, _ = run(capsys, "quiver", "--quiver", "cycle(3)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == [0, 1, 2]
    assert obj["edges"] == [[0, 1], [1, 2], [2, 0]]
    assert obj["tau"] == {"0": 0, "1": 2, "2": 1}


def test_nf_and_mul(capsys):
    code, out, _ = run(capsys, "nf", "--n", "2", "y[1]*psi[1]*e(0,0)")
    assert code == 0
    assert out.strip() == "-e(0,0)@G + psi[1]*y[2]*e(0,0)@G"
    code, out, _ = run(capsys, "mul", "--n", "2", "e(0,1)", "e(0,1)")
    assert code == 0
    assert out.strip() == "e(0,1)@G"


def test_basis_block(capsys):
    code, out, _ = run(capsys, "basis", "--n", "2", "--block", "0,1",
                       "--bound", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 12


def test_dims_suite(capsys):
    code, out, _ = run(capsys, "verify", "dims", "--n", "1", "--bound", "3")
    assert code == 0
    assert "deg 0: 3 / 2" in out and "deg 2: 3 / 1" in out


def test_verify_klr_relations_path2(capsys):
    code, out, _ = run(capsys, "verify", "klr-relations", "--quiver", "path(2)",
                       "--n", "2", "--fuzz", "30")
    assert code == 0
    assert "all checks passed" in out


def test_verify_alt_presentation_exit0(capsys):
    code, out, _ = run(capsys, "verify", "alt-presentation", "--n", "3")
    assert code == 0
    assert "all checks passed" in out


def test_clifford_single_block_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "clifford", "--n", "2", "--block",
                       "0,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["centrality"]["status"] == "pass"
    assert obj["rank_halving"]["status"] == "pass"


def test_byte_determinism(capsys):
    args = ["verify", "klr-relations", "--quiver", "cycle(3)", "--n", "2",
            "--seed", "42", "--fuzz", "25", "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_errors_exit2(capsys):
    code, _, err = run(capsys, "nf", "--n", "2", "psi[9]*e(0,1)")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "nf", "--quiver", "cycle(2)", "--n", "1", "e(0)")
    assert code == 2
    code, _, err = run(capsys, "nf", "--field", "Fp:2", "--n", "1", "e(0)")
    assert code == 2 and "characteristic 2" in err


def test_block_refused_where_unused(capsys):
    for suite in ("klr-relations", "alt-presentation", "signed-relations", "dims"):
        code, out, err = run(capsys, "verify", suite, "--n", "1", "--block", "0")
        assert code == 2 and "--block" in err and out == ""


def test_tau_override(capsys):
    # the identity is not a reversal of cycle(3): edge condition fails
    code, _, err = run(capsys, "verify", "dims", "--n", "1",
                       "--tau", '{"0":0,"1":1,"2":2}')
    assert code == 2 and "mirror" in err
    # a valid override is accepted
    code, _, _ = run(capsys, "verify", "dims", "--n", "1",
                     "--tau", '{"0":0,"1":2,"2":1}')
    assert code == 0


def test_field_flag(capsys):
    code, out, _ = run(capsys, "nf", "--n", "2", "--field", "Fp:3",
                       "3*e(0,1) + e(1,0)")
    assert code == 0
    assert out.strip() == "e(1,0)@G"


@pytest.mark.parametrize("expr,coeff", [("1/2", 3), ("3/2", 4), ("2/4", 3)])
def test_prime_field_fraction(capsys, expr, coeff):
    # a scalar a/b reads as a * b^-1 mod p
    code, out, _ = run(capsys, "nf", "--field", "Fp:5", "--n", "1",
                       f"{expr}*y[1]*e(0)")
    assert code == 0
    assert out.strip() == f"{coeff}*y[1]*e(0)@G"


@pytest.mark.parametrize("argv", [
    ["quiver", "--tau", '{"9":0}'],
    ["quiver", "--tau", "[1,2]"],
    ["quiver", "--quiver", "@/nonexistent/quiver.json"],
    ["quiver", "--quiver", '{"family":"cycle"}'],
    ["quiver", "--quiver", '{"vertices":[0,1]}'],
    ["quiver", "--quiver", '{"vertices":[[0],[1]],"edges":[]}'],
    ["quiver", "--quiver", '{"family":"path","k":"3"}'],
    ["nf", "--n", "1", "1/0"],
    ["nf", "--field", "Fp:5", "--n", "1", "1/5"],
    ["verify", "klr-relations", "--n", "1", "--fuzz", "-5"],
    ["verify", "dims", "--n", "1", "--bound", "-1"],
    ["verify", "clifford", "--n", "1", "--max-pairs", "-1"],
    # degree windows that hold no halving row
    ["verify", "dims", "--n", "1", "--bound", "1"],
    ["verify", "dims", "--n", "2", "--bound", "2"],
    ["dims", "--n", "2", "--bound", "2"],
    ["verify", "klr-relations", "--n", "0"],
    ["verify", "clifford", "--n", "0"],
    ["verify", "alt-presentation", "--n", "0"],
    ["verify", "dims", "--n", "0"],
    # zero checks would pass vacuously
    ["verify", "klr-relations", "--n", "1", "--fuzz", "0"],
    ["verify", "clifford", "--n", "1", "--max-pairs", "0"],
    ["verify", "clifford", "--n", "2", "--block", ""],
    ["verify", "klr-relations", "--quiver", '{"vertices":[],"edges":[],"tau":{}}',
     "--n", "1"],
    ["verify", "alt-presentation", "--quiver", '{"vertices":[],"edges":[],"tau":{}}',
     "--n", "1"],
    # moduli past the cap, refused before any primality test
    ["nf", "--field", f"Fp:{10 ** 400 + 1}", "--n", "1", "e(0)"],
    ["nf", "--field", "Fp:1000000000000000003", "--n", "1", "e(0)"],
    # a repeated arrow or vertex, and reversal maps the quiver command printed
    ["verify", "klr-relations", "--n", "2", "--quiver",
     '{"vertices":[0,1],"edges":[[0,1],[0,1]]}'],
    ["quiver", "--quiver", '{"vertices":[0,0,1],"edges":[[0,1]]}'],
    ["quiver", "--tau", '{"0":0}'],
    ["quiver", "--tau", '{"0":"x","1":2,"2":1}'],
    ["quiver", "--quiver", '{"vertices":[0,1,2],"edges":[[0,1]],"tau":{"0":1}}'],
    # nesting past the interpreter's recursion limit
    ["nf", "--n", "1", "(" * 400 + "1" + ")" * 400],
    # a flag the suite does not read
    ["verify", "alt-presentation", "--n", "1", "--fuzz", "5"],
    ["verify", "clifford", "--n", "1", "--fuzz", "5"],
    ["verify", "klr-relations", "--n", "1", "--max-pairs", "5"],
    ["verify", "signed-relations", "--n", "1", "--max-pairs", "5"],
    # a window on a finite cycle
    ["quiver", "--quiver", "cycle(3,0)"],
    ["quiver", "--quiver", '{"family":"cycle","e":3,"window":-5}'],
    # powers past the cap, alone, nested or with 5,000 digits
    ["nf", "--n", "2", "psi[1]^100000*e(0,1)"],
    ["nf", "--n", "2", "(psi[1]^8)^9"],
    ["nf", "--n", "2", "y[1]^" + "9" * 5000],
    # a value past the term cap
    ["nf", "--n", "2", "(1+y[1])^31*(1+y[2])^31"],
    # a basis listing past the cap
    HOSTILE_BASIS,
])
def test_malformed_input_exits2(capsys, argv):
    # argparse refuses a bad flag value by raising SystemExit(2)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err and "Traceback" not in out.err
    assert out.out == ""


def test_term_cap_is_named_in_the_error(capsys):
    code, out, err = run(capsys, "nf", "--n", "2", "e(0,1)-(1+y[1])^31*(1+y[2])^31")
    assert code == 2 and out == ""
    assert err == ("error: value of 1024 terms on one idempotent, past the cap of "
                   "512 (line 1, column 8)\n")


def test_basis_cap_refuses_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *HOSTILE_BASIS)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: a basis of 3725568000 monomials, past the cap of "
                   f"{MAX_BASIS}\n")
    # --tags both lists each monomial on both copies
    code, out, _ = run(capsys, "basis", "--n", "2", "--block", "0,1",
                       "--bound", "1", "--tags", "both")
    assert code == 0 and "count: 24" in out


@pytest.mark.parametrize("flag, argv", [
    ("--tau", ["quiver", "--tau", "xx"]),
    ("--quiver", ["quiver", "--quiver", "{bad"]),
    ("--field", ["nf", "--field", "Fp:x", "--n", "1", "e(0)"]),
])
def test_usage_error_names_its_flag(capsys, flag, argv):
    # the parser's own message, led by the flag and the text it was given
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} {argv[argv.index(flag) + 1]!r}: ")


def readme_commands():
    """The lines of the README's "Command line" sh block."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_commands(),
                         ids=lambda line: "-".join(word for word in line.split()[1:3]
                                                   if not word.startswith("-")))
def test_readme_commands_exit0(capsys, line):
    words = shlex.split(line)
    assert words[0] == "klrcalc"
    code, out, err = run(capsys, *words[1:])
    assert code == 0 and err == "" and out
    if "--format" in words and words[words.index("--format") + 1] == "json":
        json.loads(out)


def test_long_inputs_exit0(capsys):
    code, out, err = run(capsys, "nf", "--n", "1", "+".join(["1"] * 5000))
    assert code == 0 and err == ""
    assert out.startswith("5000*e(0)@G + ")
    code, out, err = run(capsys, "nf", "--n", "1", "--", "-" * 5001 + "1")
    assert code == 0 and err == ""
    assert out.startswith("-e(0)@G - ")


def test_nesting_within_the_limit_evaluates(capsys):
    code, out, _ = run(capsys, "nf", "--n", "1", "(" * 200 + "2" + ")" * 200)
    assert code == 0 and out.startswith("2*e(0)@G + ")


DIGIT_LABELS = '{"vertices":["0","1"],"edges":[["0","1"]],"tau":{"0":"1","1":"0"}}'


# vertex labels typed as text are matched by their text, in every reader
@pytest.mark.parametrize("argv", [
    ["nf", "--quiver", DIGIT_LABELS, "psi[1]*e(0,1)"],
    ["basis", "--quiver", DIGIT_LABELS, "--block", "0,1"],
    ["verify", "clifford", "--quiver", DIGIT_LABELS, "--block", "0,1"],
    ["nf", "--quiver", "cycle(0)", "e(-1,0)"],
    ["basis", "--quiver", "cycle(0)", "--block=-1,0"],
])
def test_labels_typed_as_text_exit0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out
