import ast
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import verlinde_gl
from verlinde_gl.caps import KAC_COMPOSITION_MAX_NODES, P_SET_MAX_SIZE, PROJECTIVE_WORD_MAX_SYMBOLS
from verlinde_gl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_fuse_golden(capsys):
    code, out, _ = run(capsys, "fuse", "--p", "5", "--i", "3", "--j", "3", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["result"] == [1, 3]
    assert env["command"] == "fuse"
    assert env["warnings"] == []
    assert env["provenance"]["tool"] == "verlinde-gl"


def test_lowest_golden(capsys):
    code, out, _ = run(
        capsys, "lowest", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18"
    )
    assert code == 0
    assert out == "(15,15,11,11,11|-10,-10,-12,-17)"


def test_json_and_human_agree(capsys):
    _, human, _ = run(capsys, "hat", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18")
    _, enveloped, _ = run(
        capsys, "hat", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18", "--json"
    )
    env = json.loads(enveloped)
    assert human == "(19,19,15,15,15|-15,-15,-17,-22)"
    assert env["result"] == {"mu": [19, 19, 15, 15, 15], "nu": [-15, -15, -17, -22]}


def test_json_is_byte_deterministic(capsys):
    argv = ("pset", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_diagram_roundtrip_via_cli(capsys):
    code, out, _ = run(
        capsys, "diagram-encode", "--p", "5", "--mu", "1", "--nu", "0", "--json"
    )
    env = json.loads(out)
    assert env["result"] == {"p": 5, "symbols": ["<", ">", "o", "o", "o"], "s": 0, "r": 0}
    code, out, _ = run(
        capsys, "diagram-decode", "--p", "5", "--symbols", "<>ooo", "--s", "0", "--r", "0",
        "--m", "1", "--n", "1",
    )
    assert code == 0 and out == "mu=1 nu=0"


def test_render_and_caps(capsys):
    _, out, _ = run(
        capsys, "render", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18",
        "--cut", "3",
    )
    assert out == "o<ox>>x<oo> @3 t1^-3 t2^2"
    _, out, _ = run(
        capsys, "caps", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18"
    )
    assert out.endswith("caps: 9->0(inner), 6->1 free: 3,5")


def test_level_rank_and_psi(capsys):
    _, out, _ = run(capsys, "level-rank", "--p", "7", "--weight", "6,5,2")
    assert out == "5,4,2,2 parity=1"
    _, out, _ = run(capsys, "psi", "--p", "7", "--n", "3")
    assert out == "psi=3,-1,-1 (a=-1, b=1)"


def test_translate_and_serganova(capsys):
    _, out, _ = run(capsys, "translate", "--p", "5", "--mu", "0", "--nu", "0", "--kind", "F", "--c", "0")
    assert out == "quotient=(1|0)"
    _, out, _ = run(capsys, "serganova", "--p", "5", "--mu", "1", "--nu", "0")
    assert out == "hat=(0|1) sh_nonzero=true"


def test_borel_translate_cli(capsys):
    code, out, _ = run(
        capsys, "borel-translate", "--p", "5", "--types", "1,4",
        "--part", "1", "--part", "0,0,0,0", "--w", "2,1",
    )
    assert code == 0
    assert out == "2; 0,0,0,-1"


FIG_ARGS = ("--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18")
FIG_MU_ARGS = ("--p", "11", "--weight", "18,18,15,12,12")


def _envelope(command, result):
    return (
        f'{{"command":"{command}","provenance":{{"tool":"verlinde-gl","version":"0.1.0"}},'
        f'"result":{result},"warnings":[]}}'
    )


PINNED_OUTPUTS = [
    (("tensor-v", *FIG_MU_ARGS), "18,18,16,12,12; 18,18,15,13,12", "[[18,18,16,12,12],[18,18,15,13,12]]"),
    (("alcove", *FIG_MU_ARGS), "true", "true"),
    (("chi-rotate", *FIG_MU_ARGS, "--k", "3"), "21,18,18,18,18", "[21,18,18,18,18]"),
    (("atypicality", *FIG_ARGS), "2", "2"),
    (("casimir", *FIG_ARGS), "232 (mod p: 1)", '{"residue":1,"value":232}'),
    (("irreducible", *FIG_ARGS), "false", "false"),
    (
        ("filtration", *FIG_ARGS),
        "(18,18,15,12,12|-13,-13,-17,-18):1; (18,18,15,14,12|-14,-14,-17,-18):1; "
        "(19,19,15,15,13|-14,-15,-17,-21):1; (19,19,15,15,15|-15,-15,-17,-22):1",
        '[{"mu":[18,18,15,12,12],"multiplicity":1,"nu":[-13,-13,-17,-18]},'
        '{"mu":[18,18,15,14,12],"multiplicity":1,"nu":[-14,-14,-17,-18]},'
        '{"mu":[19,19,15,15,13],"multiplicity":1,"nu":[-14,-15,-17,-21]},'
        '{"mu":[19,19,15,15,15],"multiplicity":1,"nu":[-15,-15,-17,-22]}]',
    ),
    (
        ("kac-factors", *FIG_ARGS),
        "(16,15,15,11,11|-9,-13,-16,-16); (18,17,15,12,12|-13,-13,-17,-17); "
        "(18,18,15,12,12|-13,-13,-17,-18)",
        '[{"mu":[16,15,15,11,11],"nu":[-9,-13,-16,-16]},'
        '{"mu":[18,17,15,12,12],"nu":[-13,-13,-17,-17]},'
        '{"mu":[18,18,15,12,12],"nu":[-13,-13,-17,-18]}]',
    ),
    (
        ("kac-factors", "--p", "17", "--mu", "0,0,0,0,0,0,0,0", "--nu=0,0,0,0,0,0,0,0"),
        "(-8,-8,-8,-8,-8,-8,-8,-8|8,8,8,8,8,8,8,8); (0,-7,-7,-7,-7,-7,-7,-7|7,7,7,7,7,7,7,0); "
        "(0,0,-6,-6,-6,-6,-6,-6|6,6,6,6,6,6,0,0); (0,0,0,-5,-5,-5,-5,-5|5,5,5,5,5,0,0,0); "
        "(0,0,0,0,-4,-4,-4,-4|4,4,4,4,0,0,0,0); (0,0,0,0,0,-3,-3,-3|3,3,3,0,0,0,0,0); "
        "(0,0,0,0,0,0,-2,-2|2,2,0,0,0,0,0,0); (0,0,0,0,0,0,0,-1|1,0,0,0,0,0,0,0); "
        "(0,0,0,0,0,0,0,0|0,0,0,0,0,0,0,0)",
        '[{"mu":[-8,-8,-8,-8,-8,-8,-8,-8],"nu":[8,8,8,8,8,8,8,8]},'
        '{"mu":[0,-7,-7,-7,-7,-7,-7,-7],"nu":[7,7,7,7,7,7,7,0]},'
        '{"mu":[0,0,-6,-6,-6,-6,-6,-6],"nu":[6,6,6,6,6,6,0,0]},'
        '{"mu":[0,0,0,-5,-5,-5,-5,-5],"nu":[5,5,5,5,5,0,0,0]},'
        '{"mu":[0,0,0,0,-4,-4,-4,-4],"nu":[4,4,4,4,0,0,0,0]},'
        '{"mu":[0,0,0,0,0,-3,-3,-3],"nu":[3,3,3,0,0,0,0,0]},'
        '{"mu":[0,0,0,0,0,0,-2,-2],"nu":[2,2,0,0,0,0,0,0]},'
        '{"mu":[0,0,0,0,0,0,0,-1],"nu":[1,0,0,0,0,0,0,0]},'
        '{"mu":[0,0,0,0,0,0,0,0],"nu":[0,0,0,0,0,0,0,0]}]',
    ),
    (("dual", *FIG_ARGS), "(-15,-15,-11,-11,-11|10,10,12,17)", '{"mu":[-15,-15,-11,-11,-11],"nu":[10,10,12,17]}'),
    (("sigma", *FIG_ARGS), "(15,15,11,11,11|-10,-10,-12,-17)", '{"mu":[15,15,11,11,11],"nu":[-10,-10,-12,-17]}'),
    (
        ("projective-word", *FIG_ARGS),
        "base=(18,18,15,15,14|-13,-14,-17,-20) word=E0 F10 E9 E8 F7 F6 E10 E9",
        '{"base":{"mu":[18,18,15,15,14],"nu":[-13,-14,-17,-20]},'
        '"word":[["E",0],["F",10],["E",9],["E",8],["F",7],["F",6],["E",10],["E",9]]}',
    ),
    (
        ("translate", "--p", "5", "--mu", "1", "--nu", "0", "--kind", "E", "--c", "0"),
        "quotient=(0|0) sub=(1|-1)",
        '{"terms":[{"quotient":{"mu":[0],"nu":[0]}},{"sub":{"mu":[1],"nu":[-1]}}]}',
    ),
    (("oddroot-lemma", "--m", "5", "--n", "4"), "true", "true"),
    (("level-rank", "--p", "7", "--weight", "6,5,2"), "5,4,2,2 parity=1", '{"parity":1,"weight":[5,4,2,2]}'),
    (
        ("level-rank", "--p", "7", "--weight", "5,4,2,2", "--inverse"),
        "6,5,2 parity=1",
        '{"parity":1,"weight":[6,5,2]}',
    ),
    (
        ("psi", "--p", "7", "--n", "3"),
        "psi=3,-1,-1 (a=-1, b=1)",
        '{"a":-1,"b":1,"chi":[4,0,0],"det":[1,1,1],"psi":[3,-1,-1]}',
    ),
    (
        ("diagram-encode", "--p", "5", "--mu", "1", "--nu", "0"),
        "<>ooo @0 t1^0 t2^0",
        '{"p":5,"r":0,"s":0,"symbols":["<",">","o","o","o"]}',
    ),
    (
        ("diagram-decode", "--p", "5", "--symbols", "<>ooo", "--s", "0", "--r", "0", "--m", "1", "--n", "1"),
        "mu=1 nu=0",
        '{"mu":[1],"nu":[0]}',
    ),
    (("render", *FIG_ARGS, "--cut", "3"), "o<ox>>x<oo> @3 t1^-3 t2^2", '"o<ox>>x<oo> @3 t1^-3 t2^2"'),
    (
        ("caps", *FIG_ARGS),
        "oo>o<ox>>x< @0 t1^-3 t2^2 caps: 9->0(inner), 6->1 free: 3,5",
        '{"caps":[{"inner":true,"source":9,"tail":0},{"inner":false,"source":6,"tail":1}],"free":[3,5]}',
    ),
    (
        ("serganova", "--p", "5", "--mu", "1", "--nu", "0"),
        "hat=(0|1) sh_nonzero=true",
        '{"hat":{"mu":[0],"nu":[1]},"sh_nonzero":true}',
    ),
    (
        ("borel-translate", "--p", "5", "--types", "1,4", "--part", "1", "--part", "0,0,0,0", "--w", "2,1"),
        "2; 0,0,0,-1",
        "[[2],[0,0,0,-1]]",
    ),
    (("fuse", "--p", "5", "--i", "3", "--j", "3"), "L1 L3", "[1,3]"),
    (
        ("translate", "--p", "5", "--mu", "0", "--nu", "0", "--kind", "F", "--c", "0"),
        "quotient=(1|0)",
        '{"terms":[{"quotient":{"mu":[1],"nu":[0]}}]}',
    ),
    (("translate", "--p", "5", "--mu", "1", "--nu", "0", "--kind", "F", "--c", "0"), "0", '{"terms":[]}'),
]


def _pin_ids(cases):
    """The command name, or the whole argv for a command pinned more than once."""
    seen = set()
    ids = []
    for argv, _, _ in cases:
        ids.append(" ".join(argv) if argv[0] in seen else argv[0])
        seen.add(argv[0])
    return ids


@pytest.mark.parametrize("argv, text, result", PINNED_OUTPUTS, ids=_pin_ids(PINNED_OUTPUTS))
def test_subcommand_output_is_pinned(capsys, argv, text, result):
    # Exact text and JSON of every subcommand not pinned elsewhere.
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, _envelope(argv[0], result), "")


# --w is 1-indexed, and so are the messages refusing it.
_BOREL_TRANSLATE = ("borel-translate", "--p", "5", "--types", "1,4", "--part", "1", "--part", "0,0,0,0")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("selfcheck", "--suite", "golden", "--p", "4"), "p must be at least 5"),
        (("selfcheck", "--suite", "serganova", "--p", "11"), "selfcheck needs p <= 7"),
        (("alcove", "--p", "4", "--weight", "1"), "p must be at least 5"),
        (("oddroot-lemma", "--m", "100000", "--n", "100000"), "block sizes must be at most 16"),
        (("fuse", "--p", "1000000000000000003", "--i", "1", "--j", "1"), "p must be at most 1000000"),
        (
            ("kac-factors", "--p", "1009", "--mu", ",".join(["0"] * 504), "--nu=" + ",".join(["0"] * 504)),
            f"exceeds {KAC_COMPOSITION_MAX_NODES} nodes",
        ),
        (_BOREL_TRANSLATE + ("--w", "1,1"), "error VALIDATION: (1, 1) is not a permutation of 1..2"),
        (_BOREL_TRANSLATE + ("--w", "0"), "error VALIDATION: (0,) is not a permutation of 1..2"),
    ],
    ids=[
        "selfcheck-p4",
        "selfcheck-p11",
        "alcove-p4",
        "oddroot-lemma-huge",
        "fuse-huge-p",
        "kac-factors-over-node-budget",
        "borel-translate-w-repeats",
        "borel-translate-w-zero",
    ],
)
def test_out_of_range_inputs_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error VALIDATION") and message in err


def test_p_set_above_the_size_limit_is_refused_quickly(capsys):
    # (0^17|0^17) at p = 37 has 2^17 standard-filtration weights.
    zeros = ",".join(["0"] * 17)
    for command in ("pset", "filtration"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--p", "37", "--mu", zeros, "--nu", zeros)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error VALIDATION") and f"P_SET_MAX_SIZE = {P_SET_MAX_SIZE}" in err


def test_projective_word_above_the_size_limit_is_refused_quickly(capsys):
    # (0^1001|0^1001) at p = 2003 has a word of 1001^2 steps.
    zeros = ",".join(["0"] * 1001)
    start = time.perf_counter()
    code, out, err = run(capsys, "projective-word", "--p", "2003", "--mu", zeros, "--nu", zeros)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error VALIDATION") and f"exceeds {PROJECTIVE_WORD_MAX_SYMBOLS} symbol copies" in err


def test_cli_import_leaves_the_suites_unloaded():
    # Only selfcheck needs the suites; every other subcommand skips their import.
    env = dict(os.environ, PYTHONPATH=str(Path(verlinde_gl.__file__).resolve().parents[1]))
    probe = "import sys, verlinde_gl.cli; print('verlinde_gl.suites' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck", "--suite", "golden")
    assert code == 0
    assert out.splitlines()[-1] == "selfcheck: PASS"


def test_selfcheck_unknown_suite(capsys):
    code, out, err = run(capsys, "selfcheck", "--suite", "nope")
    assert code == 1 and out == ""
    assert err.startswith("error VALIDATION: unknown suite 'nope'")


def _selfcheck_subprocess(*flags):
    env = dict(os.environ, PYTHONPATH=str(Path(verlinde_gl.__file__).resolve().parents[1]))
    outputs = []
    for argv in (
        ["--suite", "golden"],
        ["--suite", "serganova", "--p", "5"],
        ["--suite", "equivariance", "--p", "5"],
        ["--suite", "filtration", "--p", "5"],
    ):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "verlinde_gl.cli", "selfcheck", *argv],
            env=env, capture_output=True, text=True, check=False,
        )
        outputs.append((proc.returncode, proc.stdout, proc.stderr))
    return outputs


def test_selfcheck_verdicts_survive_optimize_flag():
    # Under -O every bare assert is stripped; no verdict may depend on one.
    plain = _selfcheck_subprocess()
    assert [code for code, _, _ in plain] == [0, 0, 0, 0]
    assert _selfcheck_subprocess("-O") == plain


def test_package_has_no_assert_statements():
    # Invariants are tests or counted suite checks, never bare asserts,
    # which vanish under -O and run a second route on every call.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(verlinde_gl.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _readme_examples():
    """(argv, expected line) for each example of README's Command line block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    return [
        (shlex.split(cmd)[1:], want.removeprefix("# "))
        for cmd, want in zip(lines, lines[1:])
        if cmd.startswith("verlinde-gl ") and "selfcheck --suite all" not in cmd
    ]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, want", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, want):
    # A leading "... " in the README elides a prefix of the output.
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if want.startswith("... "):
        assert out.endswith(want[4:])
    else:
        assert out == want


def test_closed_stdout_exits_without_traceback():
    # The reader of stdout is gone before anything is written, as when a
    # pipe into `head -c 10` closes early.
    env = dict(os.environ, PYTHONPATH=str(Path(verlinde_gl.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["fuse", "--p", "5", "--i", "3", "--j", "3"], ["pset", "--p", "5", "--mu", "0", "--nu", "0", "--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "verlinde_gl.cli", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
            )
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    finally:
        os.close(write_end)


def test_cli_is_a_thin_adapter(capsys):
    # Routing the same request through the library gives identical content.
    from verlinde_gl.caps import p_set
    from verlinde_gl.superweights import super_weight

    _, out, _ = run(
        capsys, "pset", "--p", "11", "--mu", "18,18,15,12,12", "--nu=-13,-13,-17,-18",
        "--json",
    )
    got = json.loads(out)["result"]
    lam = super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))
    want = sorted((list(a.mu), list(a.nu)) for a in p_set(lam))
    assert got == [{"mu": mu, "nu": nu} for mu, nu in want]


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "fuse", "--p", "4", "--i", "1", "--j", "1")
    assert code == 1 and err.startswith("error VALIDATION")
    code, _, err = run(capsys, "unknown-command")
    assert code == 1
    code, _, err = run(capsys, "alcove", "--p", "7", "--weight", "a,b")
    assert code == 1 and "comma-separated" in err


def test_contract_exit_code(capsys):
    # Translating a simple along a cross-raising functor violates the contract.
    code, _, err = run(
        capsys, "borel-translate", "--p", "5", "--types", "1,1",
        "--part", "1", "--part", "3", "--w", "1,2",
    )
    assert code == 2 and err.startswith("error CONTRACT")
