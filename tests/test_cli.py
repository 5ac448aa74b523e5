import argparse
import ast
import importlib
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import verlinde_gl
from verlinde_gl import caps, cli, enumeration, serganova
from verlinde_gl.alcove import TENSOR_WITH_V_MAX_RANK
from verlinde_gl.borel import BOREL_TRANSLATE_MAX_SUMMANDS, BOREL_TRANSLATE_MAX_VERTEX_READS
from verlinde_gl.caps import KAC_COMPOSITION_MAX_NODES, P_SET_MAX_SIZE, PROJECTIVE_WORD_MAX_SYMBOLS
from verlinde_gl.cli import _COMMANDS, build_parser, main
from verlinde_gl.serganova import SERGANOVA_HAT_MAX_ROOTS


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


def _envelope(command, result, warnings="[]"):
    return (
        f'{{"command":"{command}","provenance":{{"tool":"verlinde-gl","version":"0.1.0"}},'
        f'"result":{result},"warnings":{warnings}}}'
    )


# The pinned calls whose envelope carries a warning: the figure weight's dual
# coordinates increase in each block.
PINNED_WARNINGS = {"dual": '["raw coordinates (-15,-15,-11,-11,-11|10,10,12,17) are not a dominant label"]'}


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
    (("lowest", *FIG_ARGS), "(15,15,11,11,11|-10,-10,-12,-17)", '{"mu":[15,15,11,11,11],"nu":[-10,-10,-12,-17]}'),
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
    assert run(capsys, *argv, "--json") == (0, _envelope(argv[0], result, PINNED_WARNINGS.get(argv[0], "[]")), "")


def test_dual_warns_on_most_of_the_p5_window():
    # dual's raw coordinates are no dominant label on most of the window.
    weights = list(enumeration.window_weights(5))
    warned = sum(len(cli._raw_pair(5, caps.dual_simple(lam))) > 2 for lam in weights)
    assert (len(weights), warned) == (3677, 2971)


# --w is 1-indexed, and so are the messages refusing it.
_BOREL_TRANSLATE = ("borel-translate", "--p", "5", "--types", "1,4", "--part", "1", "--part", "0,0,0,0")

# One past each walk's limit; each is refused before the walk starts.
_ZEROS_2001 = ",".join(["0"] * 2001)
_SUMMANDS = BOREL_TRANSLATE_MAX_SUMMANDS + 1
_OVER_WALK_LIMITS = [
    (
        ("serganova", "--p", "5", "--mu", _ZEROS_2001, "--nu", _ZEROS_2001),
        f"2001x2001 odd roots exceed SERGANOVA_HAT_MAX_ROOTS = {SERGANOVA_HAT_MAX_ROOTS}",
    ),
    (
        (
            "borel-translate", "--p", "5", "--types", ",".join(["1"] * _SUMMANDS),
            *(["--part", "0"] * _SUMMANDS), "--w", ",".join(map(str, range(_SUMMANDS, 0, -1))),
        ),
        f"{_SUMMANDS} summands exceed BOREL_TRANSLATE_MAX_SUMMANDS = {BOREL_TRANSLATE_MAX_SUMMANDS}",
    ),
    (
        # w reversed on 32 summands of type 1 and 32 of type 2: 32 x 32 odd
        # reflections, each reading 1009 vertices.
        (
            "borel-translate", "--p", "1009", "--types", ",".join(["1"] * 32 + ["2"] * 32),
            *(["--part", "0"] * 32), *(["--part", "0,0"] * 32), "--w", ",".join(map(str, range(64, 0, -1))),
        ),
        "1024 odd reflections of 1009 vertices exceed "
        f"BOREL_TRANSLATE_MAX_VERTEX_READS = {BOREL_TRANSLATE_MAX_VERTEX_READS}",
    ),
    (
        ("tensor-v", "--p", "4003", "--weight", ",".join(["0"] * 4001)),
        f"rank 4001 exceeds TENSOR_WITH_V_MAX_RANK = {TENSOR_WITH_V_MAX_RANK}",
    ),
]
_OVER_WALK_LIMIT_IDS = [
    "serganova-over-root-limit",
    "borel-translate-over-summand-limit",
    "borel-translate-over-reflection-limit",
    "tensor-v-over-rank-limit",
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("selfcheck", "--suite", "golden", "--p", "4"), "p must be at least 5"),
        (("selfcheck", "--suite", "serganova", "--p", "11"), "selfcheck needs p <= 7"),
        (("alcove", "--p", "4", "--weight", "1"), "p must be at least 5"),
        (("oddroot-lemma", "--m", "100000", "--n", "100000"), "block sizes must be at most 16"),
        (("fuse", "--p", "1000000000000000003", "--i", "1", "--j", "1"), "p must be at most 1000000"),
        (
            # Symbols "xo" * 20 + "o" at p = 41: Catalan(21) factors.
            (
                "kac-factors", "--p", "41", "--mu=" + ",".join(map(str, range(38, 18, -1))),
                "--nu=" + ",".join(map(str, range(-19, -39, -1))),
            ),
            f"exceeds {KAC_COMPOSITION_MAX_NODES} nodes",
        ),
        (_BOREL_TRANSLATE + ("--w", "1,1"), "error VALIDATION: (1, 1) is not a permutation of 1..2"),
        (_BOREL_TRANSLATE + ("--w", "0"), "error VALIDATION: (0,) is not a permutation of 1..2"),
        *_OVER_WALK_LIMITS,
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
        *_OVER_WALK_LIMIT_IDS,
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


@pytest.mark.parametrize("argv, message", _OVER_WALK_LIMITS, ids=_OVER_WALK_LIMIT_IDS)
def test_walks_above_their_limits_are_refused_quickly(capsys, argv, message):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and message in err


def test_level_rank_of_a_long_weight_answers_quickly(capsys):
    # (w^13000, 0^13000) with w = p - n: the transpose has w parts of 13000,
    # counted in one pass over the entries, not once per column.
    n, p = 26_000, 52_009
    weight = ",".join([str(p - n)] * (n // 2) + ["0"] * (n // 2))
    start = time.perf_counter()
    code, out, _ = run(capsys, "level-rank", "--p", str(p), "--weight", weight)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == ",".join(["13000"] * (p - n)) + " parity=0"


def test_projective_word_above_the_size_limit_is_refused_quickly(capsys):
    # (0^1001|0^1001) at p = 2003 has a word of 1001^2 steps.
    zeros = ",".join(["0"] * 1001)
    start = time.perf_counter()
    code, out, err = run(capsys, "projective-word", "--p", "2003", "--mu", zeros, "--nu", zeros)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error VALIDATION") and f"exceeds {PROJECTIVE_WORD_MAX_SYMBOLS} symbol copies" in err


# One call per subcommand: the first pinned one, else one on the figure weight;
# and a borel-translate of equal types, which makes no odd reflection (the
# pinned borel-translate, of types 1 and 4, makes one).
_EQUAL_TYPES = "borel-translate-equal-types"
_ONE_CALL = {argv[0]: argv for argv, _, _ in reversed(PINNED_OUTPUTS)} | {
    name: (name, *FIG_ARGS) for name in ("pset", "hat")
} | {
    "selfcheck": ("selfcheck", "--suite", "golden"),
    _EQUAL_TYPES: ("borel-translate", "--p", "5", "--types", "2,2", "--part", "0,0", "--part", "1,0", "--w", "2,1"),
}
# The verlinde_gl modules each call loads, exactly: the layers its handler
# calls and what they import at module level.  caps loads translation only
# for words and replays, borel loads superweights and caps only for odd
# reflections.
_FUSION = {"cli", "errors", "fusion"}
_ALCOVE = _FUSION | {"alcove"}
_SUPERWEIGHTS = _ALCOVE | {"superweights"}
_DIAGRAMS = _SUPERWEIGHTS | {"diagrams"}
_CAPS = _DIAGRAMS | {"caps"}
_LOADS = {
    "fuse": _FUSION,
    **dict.fromkeys(("alcove", "tensor-v", "level-rank", "psi", "chi-rotate"), _ALCOVE),
    **dict.fromkeys(("diagram-encode", "render", "diagram-decode"), _DIAGRAMS),
    **dict.fromkeys(("atypicality", "casimir", "irreducible"), _SUPERWEIGHTS),
    **dict.fromkeys(("caps", "pset", "filtration", "kac-factors", "hat", "lowest", "dual", "sigma"), _CAPS),
    "projective-word": _CAPS | {"translation"},
    **dict.fromkeys(("serganova", "oddroot-lemma"), _FUSION | {"serganova"}),
    "translate": _DIAGRAMS | {"translation"},
    "borel-translate": _CAPS | {"borel"},
    _EQUAL_TYPES: _ALCOVE | {"borel"},
    "selfcheck": _CAPS | {"borel", "enumeration", "serganova", "suites", "translation"},
}
_LOAD_PROBE = """
import contextlib, importlib, io, sys
module = importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        module.main(sys.argv[2:])
print(*(name.split(".", 1)[1] for name in sys.modules if name.startswith("verlinde_gl.")), *{"dataclasses", "json"} & sys.modules.keys())
"""


def _run_fresh(code, *args):
    """The stdout of code run with args in a fresh interpreter that imports this verlinde_gl."""
    env = dict(os.environ, PYTHONPATH=str(Path(verlinde_gl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def _loaded_modules(module, *argv):
    """The verlinde_gl submodules, and dataclasses and json if loaded, that a
    fresh interpreter holds after importing module and, if given, cli.main(argv)."""
    return set(_run_fresh(_LOAD_PROBE, module, *argv).split())


def test_package_import_loads_no_layer():
    assert _loaded_modules("verlinde_gl") == set()


def test_cli_import_leaves_the_suites_unloaded():
    # Importing the CLI loads errors alone; each subcommand loads its own layers when called.
    assert _loaded_modules("verlinde_gl.cli") == {"cli", "errors"}


@pytest.mark.parametrize("name", [*_COMMANDS, _EQUAL_TYPES])
def test_subcommand_loads_only_the_layers_it_calls(name):
    # Only selfcheck loads the suites and dataclasses (SuiteResult is the one
    # dataclass); only --json loads json.
    want = _LOADS[name] | ({"dataclasses"} if name == "selfcheck" else set())
    assert _loaded_modules("verlinde_gl.cli", *_ONE_CALL[name]) == want
    assert _loaded_modules("verlinde_gl.cli", *_ONE_CALL[name], "--json") == want | {"json"}


# A refused odd reflection, then caps, a replay before and after the handle
# binds translation (with act_on_sum patched on the module each time, as the
# benchmark's tracer patches it), then a mixed-type borel_translate.
_HANDLE_PROBE = """
import sys
from verlinde_gl import _Layer, borel
from verlinde_gl.alcove import GLWeight
from verlinde_gl.errors import ValidationError

facts = {}
try:
    borel.odd_reflect_pair(GLWeight((0,), 5), GLWeight((0, 0), 7), "to_sigma")
except ValidationError:
    facts["refused reflection loads caps"] = "verlinde_gl.caps" in sys.modules
from verlinde_gl import caps
facts["caps binds a handle"] = type(caps.translation) is _Layer
facts["caps loads translation"] = "verlinde_gl.translation" in sys.modules
from verlinde_gl import superweights, translation

original, calls = translation.act_on_sum, []


def tagged(tag):
    def act_on_sum(*args):
        calls.append(tag)
        return original(*args)

    return act_on_sum


d = caps.encode(superweights.super_weight(5, (0,), (0,)))
for tag in ("before", "after"):
    translation.act_on_sum = tagged(tag)
    caps.replay_diagrams(d, (("F", 1),))
    facts[f"replay binds translation {tag}"] = caps.translation is translation
facts["replay calls"] = calls
facts["borel binds handles"] = type(borel.caps) is _Layer and type(borel.superweights) is _Layer
shape = borel.GLXShape(5, (1, 2))
borel.borel_translate(borel.TupleWeight(shape, (GLWeight((0,), 5), GLWeight((0, 0), 5))), (1, 0))
facts["odd reflection binds caps"] = borel.caps is caps and borel.superweights is superweights
print(repr(facts))
"""


def test_layer_handle_imports_on_first_read_and_rebinds():
    # A _Layer handle imports its module on the first attribute read and
    # rebinds the name to the module; it copies no attribute, so a function
    # patched on the module is the one called before and after that read.
    assert ast.literal_eval(_run_fresh(_HANDLE_PROBE)) == {
        "refused reflection loads caps": False,
        "caps binds a handle": True,
        "caps loads translation": False,
        "replay binds translation before": True,
        "replay binds translation after": True,
        "replay calls": ["before", "after"],
        "borel binds handles": True,
        "odd reflection binds caps": True,
    }


def _lazy_loaders(source: str, module: str) -> list[str]:
    """module.function for each function that imports a library module itself
    (a relative or verlinde_gl import, import_module or __import__), and each
    lru_cache function that imports any module."""

    def loads(node, any_module):
        if isinstance(node, ast.ImportFrom):
            return any_module or node.level > 0 or (node.module or "").startswith("verlinde_gl")
        if isinstance(node, ast.Import):
            return any_module or any(alias.name.startswith("verlinde_gl") for alias in node.names)
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "attr", getattr(func, "id", None)) in ("import_module", "__import__")

    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cached = any("lru_cache" in ast.unparse(d) for d in fn.decorator_list)
            if any(loads(node, cached) for node in ast.walk(fn)):
                found.append(f"{module}.{fn.name}")
    return found


def test_layers_load_lazily_only_through_the_package_handle():
    # One mechanism loads a layer on first use: _Layer in __init__.py.  No
    # other function imports a library module, and no lru_cache wraps a
    # module loader; a local json or dataclasses import loads no layer.
    source = (
        "from functools import lru_cache\n"
        "def a():\n    from . import caps\n"
        "def b():\n    from .suites import run_suite\n"
        "def c():\n    import verlinde_gl.caps\n"
        "def d():\n    return importlib.import_module(name)\n"
        "@lru_cache(1)\ndef e():\n    import json\n    return json\n"
        "def f():\n    import json\n    from dataclasses import asdict\n"
    )
    assert _lazy_loaders(source, "m") == ["m.a", "m.b", "m.c", "m.d", "m.e"]
    modules = sorted(Path(verlinde_gl.__file__).parent.glob("*.py"))
    found = [name for path in modules if path.stem != "__init__" for name in _lazy_loaders(path.read_text(), path.stem)]
    assert found == []


# The package exports as nine eager import lines named them, before they resolved on first use.
_EAGER_EXPORTS = """
from .alcove import GLWeight, add_box, chi_rotate, is_admissible, level_rank_D, level_rank_D_inverse
from .alcove import psi_data, remove_box, tensor_with_V
from .caps import Cap, CapDiagram, cap_diagram, dual_simple, dual_simple_label, hat, is_inner, kac_composition
from .caps import lowest_weight, p_set, projective_filtration, projective_word, render_caps, replay_word
from .caps import sigma_to_standard, standard_to_sigma
from .borel import GLXShape, TupleWeight, borel_translate, conjugate_relabel, is_w_dominant, odd_reflect_pair
from .borel import w_dominance_leq, w_integrable
from .diagrams import WeightDiagram, cut, decode, encode, render_ascii
from .errors import ContractError, ValidationError
from .fusion import fuse_simples, is_even_object
from .serganova import check_oddroot_lemma, odd_root_order, serganova_hat, serganova_hats, sh_nonzero
from .superweights import SuperShape, SuperWeight, atypicality, beta, casimir_scalar, casimir_unsuper
from .superweights import dominance_leq, form, is_typical, kac_irreducible, residue_data, rho2, super_weight
from .translation import KacExtension, LoopVector, apply_E, apply_F, loop_e, loop_f, loop_vector
from .translation import phi_equivariance_check, translate_kac, translate_projective, translate_simple
"""


def test_package_exports_resolve_to_the_defining_module():
    exported = {alias.name: node.module for node in ast.parse(_EAGER_EXPORTS).body for alias in node.names}
    assert len(exported) == 71
    assert sorted(verlinde_gl.__all__) == sorted(exported)
    listed = dir(verlinde_gl)
    for name, module in exported.items():
        assert getattr(verlinde_gl, name) is getattr(importlib.import_module(f"verlinde_gl.{module}"), name), name
        assert name in listed and name in vars(verlinde_gl)  # read once, then a plain attribute
    from verlinde_gl import encode

    assert encode is verlinde_gl.diagrams.encode
    with pytest.raises(AttributeError):
        verlinde_gl.no_such_name


def _subcommand(parser, name):
    """(the subparser of name, its one-line help in the parent's listing)."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (listing,) = [a.help for a in action._choices_actions if a.dest == name]
    return action.choices[name], listing


def test_one_subparser_matches_the_full_parser():
    full = build_parser()
    for name in _COMMANDS:
        single, listing = _subcommand(build_parser([name]), name)
        full_single, full_listing = _subcommand(full, name)
        assert (single.format_help(), listing) == (full_single.format_help(), full_listing), name


def test_help_quotes_the_live_bounds(monkeypatch):
    # Each bound is read when its subparser is built, not when cli is imported.
    monkeypatch.setattr(caps, "P_SET_MAX_SIZE", 1234)
    monkeypatch.setattr(enumeration, "SELFCHECK_MAX_P", 4321)
    monkeypatch.setattr(serganova, "ODDROOT_LEMMA_MAX_BLOCK", 99)
    for parser in (build_parser(), build_parser(["pset"])):
        assert _subcommand(parser, "pset")[1].endswith("(at most 1234 weights)")
    assert "a prime from 5 to 4321" in _subcommand(build_parser(["selfcheck"]), "selfcheck")[0].format_help()
    assert "at most 99" in _subcommand(build_parser(["oddroot-lemma"]), "oddroot-lemma")[0].format_help()


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


def _unbounded_caches(source: str) -> list[int]:
    """Lines that use functools.cache, or lru_cache without an integer maxsize."""
    tree = ast.parse(source)
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            if node.attr == "cache" or (node.attr == "lru_cache" and id(node) not in bounded):
                found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "lru_cache" and id(node) not in bounded:
            found.append(node.lineno)
    return sorted(found)


def test_library_caches_are_bounded():
    # A cache in the library has an explicit bound: no functools.cache, and
    # every lru_cache names an integer maxsize.
    bad = "from functools import cache, lru_cache\nimport functools\n@lru_cache\n@lru_cache(None)\n@functools.cache\ndef f(): pass\n"
    good = "from functools import lru_cache\nimport functools\n@lru_cache(64)\n@functools.lru_cache(maxsize=8)\ndef f(): pass\n"
    assert _unbounded_caches(bad) == [1, 3, 4, 5] and _unbounded_caches(good) == []
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(verlinde_gl.__file__).parent.glob("*.py"))
        for line in _unbounded_caches(path.read_text())
    ]
    assert found == []


def test_column_step_is_used_only_by_the_batch_walk():
    # The Serganova hat is one fold of column_step, in serganova_hats; every
    # other walk in the package, the suites' included, goes through it.
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Name) and node.id == "column_step":
            found.append(where)
        if isinstance(node, ast.Attribute) and node.attr == "column_step":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(verlinde_gl.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == ["serganova.serganova_hats"]


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


def test_readme_lists_the_subcommands_in_table_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("\nSubcommands: ", 1)[1].split(".\n", 1)[0]
    assert [name.strip().strip("`") for name in listed.split(",")] == list(_COMMANDS)


def test_readme_names_every_input_bound():
    # Every module-level *MAX* constant of the library is an input limit, and
    # README's input-limits paragraph names it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = []
    for path in sorted(Path(verlinde_gl.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names += [f"{path.stem}.{t.id}" for t in node.targets if isinstance(t, ast.Name) and "MAX" in t.id]
    assert "fusion.MAX_P" in names
    assert [name for name in names if f"`{name}`" not in readme] == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _module_handles(tree: ast.Module, modules: set[str]) -> set[str]:
    """Names the source binds to a module: an import of a module (from the
    package, not from a module of the same name) or a _Layer handle."""
    handles = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            handles |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] not in modules:
            handles |= {alias.asname or alias.name for alias in node.names if alias.name in modules}
        elif isinstance(node, ast.Assign) and any(
            isinstance(n, ast.Name) and n.id == "_Layer" for n in ast.walk(node.value)
        ):
            handles |= {n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return handles


def _code_uses(source: str, lookups: bool, modules: set[str]) -> Counter:
    """Names that source references as an ast.Name or ast.Attribute outside
    their own top-level definition; a name bound to one of the modules is a
    module handle and no use.  With lookups, also the last dotted part of
    each string constant, the way the benchmark looks names up by string
    ("p_set", "caps.p_set"); a string that is a module name names a layer
    ("translation"), no function."""
    uses = Counter()
    tree = ast.parse(source)
    handles = _module_handles(tree, modules)
    for stmt in tree.body:
        own = set(_defined_names(stmt))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id not in handles:
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif lookups and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value not in modules:
                name = node.value.rpartition(".")[2]
            else:
                continue
            if name not in own:
                uses[name] += 1
    return uses


def _unused(library: dict[str, str], code: tuple[str, ...] = (), lookups: tuple[str, ...] = ()) -> list[str]:
    """module.name for each top-level name of library (module -> source)
    that no code in library, code or lookups uses, in definition order."""
    uses = Counter()
    for source in [*library.values(), *code]:
        uses += _code_uses(source, False, set(library))
    for source in lookups:
        uses += _code_uses(source, True, set(library))
    return [
        f"{module}.{name}"
        for module, source in library.items()
        for stmt in ast.parse(source).body
        for name in _defined_names(stmt)
        if not uses[name]
    ]


def _names_without_a_use(*others: str) -> list[str]:
    """The library's unused top-level names, counting code in the library
    and in the files the root-relative globs others match; files under
    perfbench/ also use a name through a string that looks it up."""
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "verlinde_gl").glob("*.py"))
    library = {path.stem: path.read_text() for path in modules if path.stem != "__init__"}
    paths = [path for pattern in others for path in sorted(root.glob(pattern))]
    code = tuple(path.read_text() for path in paths if path.parent.name != "perfbench")
    lookups = tuple(path.read_text() for path in paths if path.parent.name == "perfbench")
    return _unused(library, code, lookups)


def test_use_guard_counts_code_and_benchmark_lookups_only():
    library = {
        "m": 'def f():\n    """Calls g, see h."""\n    return f()  # g\n\n'
        "def g():\n    pass\n\n"
        "class C:\n    def __new__(cls) -> C:\n        return C\n\n"
        "def h():\n    pass\n\nK = 1\n",
    }
    # Docstrings and comments name no use, and neither do references inside
    # a name's own definition.
    assert _unused(library) == ["m.f", "m.g", "m.C", "m.h", "m.K"]
    assert _unused(library, code=("m.g()\nx = [C]\n", "K")) == ["m.f", "m.h"]
    # A string is a use only in the benchmark, as a name or as module.name.
    assert _unused(library, code=('call("f")', '"m.h"')) == ["m.f", "m.g", "m.C", "m.h", "m.K"]
    assert _unused(library, lookups=('call("f")', 'TRACED = ("m.h",)', '"C K"')) == ["m.g", "m.C", "m.K"]
    # A module handle named like a function of that module is no use of it:
    # an import of the module, or a _Layer handle; an import from the module
    # binds the function itself.
    library = {"t": "def t():\n    pass\n\ndef u():\n    pass\n"}
    for handle in ("from . import t", "from pkg import t as t", "import t", "import t.u", "t = _Layer('t', globals())"):
        assert _unused(library, code=(f"{handle}\nt.u()\n",)) == ["t.t"], handle
    assert _unused(library, code=("from .t import t, u\nt()\nu()\n",)) == []
    assert _code_uses(Path(cli.__file__).read_text(), False, {"translation"})["translation"] == 0
    # A benchmark string equal to a module name names the layer, not the
    # function of that name; module.name still looks the function up.
    assert _unused(library, lookups=('LAYERS = ("t",)',)) == ["t.t", "t.u"]
    assert _unused(library, lookups=('LAYERS = ("t",)\nTRACED = ("t.u", "t.t")',)) == []
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
    assert _code_uses(tracer.read_text(), True, modules)["translation"] == 0


def test_every_top_level_name_has_a_use():
    # In the library, the tests or the benchmark scripts.
    assert _names_without_a_use("tests/*.py", "perfbench/*.py") == []


def test_names_only_tests_or_readme_use_are_pinned():
    # Results of the paper kept with their tests (ROADMAP item 6's keep-list),
    # the two translations that items 1 and 2 will replace, and item 5's
    # weight identity.  README no longer counts as a use, so a new name that
    # only tests use needs a deliberate entry here, with its reason.
    assert _names_without_a_use("perfbench/*.py") == [
        "alcove.remove_box",  # the box removal of the paper, add_box's inverse
        "alcove.wedge_to_weight",  # the wedge dictionary's checked inverse
        "borel.w_dominance_leq",  # the paper's w-dominance order on tuple weights
        "fusion.is_even_object",  # the even subcategory of Ver_p
        "superweights.kac_irreducible",  # K(lam) is simple exactly when lam is typical
        "superweights.casimir_unsuper",  # the Casimir before the super convention, mod p the super one
        "translation.translate_simple",  # item 2's adjunction rule replaces it
        "translation.translate_projective",  # item 1's projective peel replaces it
        "translation.commutator",  # [E_i, F_i] on K(lam), item 5's weight identity
    ]


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
