"""Command-line surface: one subcommand per library operation.

Every subcommand is a thin adapter around a library call; output is either a
deterministic human-readable line or, with --json, an envelope

    {"command": ..., "result": ..., "warnings": [...], "provenance": {...}}

serialized with sorted keys.  Exit codes: 0 success, 1 validation error,
2 contract error.  Weights are comma-separated integers; use --mu=-1,0 style
for values starting with a minus sign.

The command table, left out of --help: _COMMANDS maps each subcommand, in
help order, to (help, arguments, handler).  A handler returns (json-ready
result, text, *warnings) and calls the library through its modules
(caps.p_set) at call time, so the table shows the layer each subcommand
adapts.  The envelope lists the warnings; dual adds one when its raw
coordinates are not a dominant label.

A call loads only the layers its subcommand calls, and json only for --json.
The module names here are the package's _Layer handles: the first attribute
read imports the module and rebinds the name to it.  build_parser builds only
the subparser that argv names (all of them for --help, no arguments or an
unknown name).  Help texts quote a bound as {caps.P_SET_MAX_SIZE}, read when
its own subparser is built.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from . import _Layer, __version__
from .errors import ContractError, ValidationError

alcove, borel, caps, diagrams, enumeration, fusion, serganova, suites, superweights, translation = (
    _Layer(name, globals())
    for name in "alcove borel caps diagrams enumeration fusion serganova suites superweights translation".split()
)


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValidationError(message)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _weight(args: argparse.Namespace) -> superweights.SuperWeight:
    return superweights.super_weight(args.p, _ints(args.mu), _ints(args.nu))


def _gl(args: argparse.Namespace) -> alcove.GLWeight:
    return alcove.GLWeight(_ints(args.weight), args.p)


def _tuple_text(entries) -> str:
    """'1,0,-2': the comma-separated form weights are read and printed in."""
    return ",".join(map(str, entries))


Output = tuple[Any, ...]  # (json-ready result, text, *warnings)


def _weight_pair(w: superweights.SuperWeight | tuple[tuple[int, ...], tuple[int, ...]]) -> Output:
    """A super weight (shape, mu, nu) or a raw (mu, nu) coordinate pair: {"mu", "nu"} and '(1,0|-2)'."""
    mu, nu = w[-2:]
    return {"mu": list(mu), "nu": list(nu)}, f"({_tuple_text(mu)}|{_tuple_text(nu)})"


def _weight_set(weights: Iterable[superweights.SuperWeight]) -> Output:
    """A set of super weights, sorted."""
    return _joined(map(_weight_pair, sorted((a.mu, a.nu) for a in weights)))


def _raw_pair(p: int, coords: tuple[tuple[int, ...], tuple[int, ...]]) -> Output:
    """Raw (mu, nu) coordinates, as _weight_pair, warned when they are not a dominant label."""
    pair, text = _weight_pair(coords)
    if all(alcove.is_admissible(block, len(block), p) for block in coords):
        return pair, text
    return pair, text, f"raw coordinates {text} are not a dominant label"


def _scalar(value: bool | int) -> Output:
    """A flag or a count, printed as JSON spells it: 'true', '2'."""
    return value, str(value).lower()


def _entries(w: alcove.GLWeight) -> Output:
    """The entries of a GL_n weight: [1, 0, -2] and '1,0,-2'."""
    return list(w.entries), _tuple_text(w.entries)


def _joined(outputs: Iterable[Output], sep: str = "; ") -> Output:
    """A list of outputs: the list of their results, and their texts joined by sep."""
    outputs = list(outputs)
    return [result for result, _ in outputs], sep.join(text for _, text in outputs)


def _fuse(args: argparse.Namespace) -> Output:
    return _joined(((k, f"L{k}") for k in fusion.fuse_simples(args.i, args.j, args.p)), " ")


def _alcove(args: argparse.Namespace) -> Output:
    fusion.check_prime(args.p)
    entries = _ints(args.weight)
    return _scalar(alcove.is_admissible(entries, len(entries), args.p))


def _level_rank(args: argparse.Namespace) -> Output:
    image, parity = (alcove.level_rank_D_inverse if args.inverse else alcove.level_rank_D)(_gl(args))
    return {"weight": list(image.entries), "parity": parity}, f"{_tuple_text(image.entries)} parity={parity}"


def _psi(args: argparse.Namespace) -> Output:
    t = alcove.psi_data(args.n, args.p)
    weights = {"det": t.det_weight, "chi": t.chi_weight, "psi": t.psi_weight}
    result = {name: list(w.entries) for name, w in weights.items()} | {"a": t.a, "b": t.b}
    return result, f"psi={_tuple_text(t.psi_weight.entries)} (a={t.a}, b={t.b})"


def _diagram_encode(args: argparse.Namespace) -> Output:
    d = diagrams.encode(_weight(args))
    return {"p": d.p, "symbols": list(d.symbols), "s": d.s, "r": d.r}, diagrams.render_ascii(d)


def _render(args: argparse.Namespace) -> Output:
    text = diagrams.render_ascii(diagrams.encode(_weight(args)), args.cut)
    return text, text


def _caps(args: argparse.Namespace) -> Output:
    cd = caps.cap_diagram(diagrams.encode(_weight(args)))
    rows = [{"source": c.source, "tail": c.tail, "inner": caps.is_inner(cd, j)} for j, c in enumerate(cd.caps)]
    text = f"{diagrams.render_ascii(cd.base)} {caps.render_caps(cd)}"
    return {"caps": rows, "free": sorted(cd.free_circles)}, text


def _casimir(args: argparse.Namespace) -> Output:
    cas = superweights.casimir_scalar(_weight(args))
    return {"value": cas.value, "residue": cas.residue}, f"{cas.value} (mod p: {cas.residue})"


def _filtration(args: argparse.Namespace) -> Output:
    table = caps.projective_filtration(_weight(args))
    rows = []
    for a in sorted(table, key=lambda w: (w.mu, w.nu)):
        pair, text = _weight_pair(a)
        rows.append(({**pair, "multiplicity": table[a]}, f"{text}:{table[a]}"))
    return _joined(rows)


def _projective_word(args: argparse.Namespace) -> Output:
    base, word = caps.projective_word(_weight(args))
    pair, text = _weight_pair(base)
    steps = " ".join(f"{kind}{i}" for kind, i in word)
    return {"base": pair, "word": [[kind, i] for kind, i in word]}, f"base={text} word={steps}"


def _serganova(args: argparse.Namespace) -> Output:
    mu, nu = _ints(args.mu), _ints(args.nu)
    pair, text = _weight_pair(serganova.serganova_hat(mu, nu, args.p))
    nonzero = serganova.sh_nonzero(mu, nu, args.p)
    return {"hat": pair, "sh_nonzero": nonzero}, f"hat={text} sh_nonzero={str(nonzero).lower()}"


def _diagram_decode(args: argparse.Namespace) -> Output:
    lam = diagrams.decode(diagrams.WeightDiagram(args.p, args.symbols, args.s, args.r), args.m, args.n)
    return _weight_pair(lam)[0], f"mu={_tuple_text(lam.mu)} nu={_tuple_text(lam.nu)}"


def _translate(args: argparse.Namespace) -> Output:
    ext = translation.translate_kac(args.kind, args.c, _weight(args))
    terms = [(role, *_weight_pair(w)) for role, w in zip(("quotient", "sub"), ext.terms if ext else ())]
    text = " ".join(f"{role}={text}" for role, _, text in terms)
    return {"terms": [{role: pair} for role, pair, _ in terms]}, text or "0"


def _borel_translate(args: argparse.Namespace) -> Output:
    shape = borel.GLXShape(args.p, _ints(args.types))
    parts = tuple(alcove.GLWeight(_ints(text), args.p) for text in args.part)
    w1 = _ints(args.w)
    if sorted(w1) != list(range(1, shape.k + 1)):
        raise ValidationError(f"{w1} is not a permutation of 1..{shape.k}")
    out = borel.borel_translate(borel.TupleWeight(shape, parts), tuple(x - 1 for x in w1))
    return _joined(map(_entries, out.parts))


def _selfcheck(args: argparse.Namespace) -> Output:
    from dataclasses import asdict

    names = sorted(suites.SUITE_BUILDERS) if args.suite == "all" else [args.suite]
    results = [suites.run_suite(name, args.p) for name in names]
    ok = all(r.ok for r in results)
    text = "\n".join([r.line() for r in results] + [f"selfcheck: {'PASS' if ok else 'FAIL'}"])
    if not ok:
        raise ValidationError(text)
    return [{**asdict(r), "ok": r.ok} for r in results], text


Argument = tuple[str, dict[str, Any]]  # (flag, add_argument keywords)
_REQUIRED: dict[str, Any] = {"required": True}
_INT: dict[str, Any] = {"type": int, "required": True}
_P: Argument = ("--p", _INT)
_GL = (_P, ("--weight", _REQUIRED))
_SUPER = (_P, ("--mu", _REQUIRED), ("--nu", _REQUIRED))
_DIAGRAM = (
    _P,
    ("--symbols", {"required": True, "help": "p characters over o < > x, vertex 0 first"}),
    ("--s", _INT),
    ("--r", _INT),
    ("--m", {"type": int}),
    ("--n", {"type": int}),
)
_TUPLE_WEIGHT = (
    _P,
    ("--types", {"required": True, "help": "summand types, nondecreasing"}),
    ("--part", {"action": "append", "required": True, "help": "one admissible part per summand"}),
    ("--w", {"required": True, "help": "positions of the summands, 1-indexed"}),
)
_SUITE = (
    ("--suite", {"default": "golden", "help": "a suite name or 'all'"}),
    ("--p", {"type": int, "default": 5, "help": "a prime from 5 to {enumeration.SELFCHECK_MAX_P}"}),
)
_KIND: dict[str, Any] = {"choices": ("F", "E"), "required": True}
_BLOCK_SIZE: dict[str, Any] = {**_INT, "help": "at most {serganova.ODDROOT_LEMMA_MAX_BLOCK}"}
_AT_MOST = "(at most {caps.P_SET_MAX_SIZE} weights)"

# name -> (help, arguments after --json, handler), in help order.
_COMMANDS: dict[str, tuple[str, tuple[Argument, ...], Callable[[argparse.Namespace], Output]]] = {
    "fuse": ("fusion of two simples of Ver_p", (_P, ("--i", _INT), ("--j", _INT)), _fuse),
    "alcove": ("admissibility of a GL_n weight", _GL, _alcove),
    "tensor-v": ("summands of V_lambda (x) V", _GL, lambda a: _joined(map(_entries, alcove.tensor_with_V(_gl(a))))),
    "level-rank": ("level-rank dual weight and parity", (*_GL, ("--inverse", {"action": "store_true"})), _level_rank),
    "psi": ("invertible objects det, chi, psi for GL_n", (_P, ("--n", _INT)), _psi),
    "chi-rotate": ("tensor with chi^k", (*_GL, ("--k", _INT)), lambda a: _entries(alcove.chi_rotate(_gl(a), a.k))),
    "diagram-encode": ("weight diagram of a super weight", _SUPER, _diagram_encode),
    "render": ("ASCII rendering of the weight diagram", (*_SUPER, ("--cut", {"type": int, "default": 0})), _render),
    "caps": ("cap diagram, tau swaps and free circles", _SUPER, _caps),
    "atypicality": ("number of crosses", _SUPER, lambda a: _scalar(superweights.atypicality(_weight(a)))),
    "casimir": ("Casimir scalar and residue", _SUPER, _casimir),
    "irreducible": ("typicality of the Kac label", _SUPER, lambda a: _scalar(superweights.is_typical(_weight(a)))),
    "pset": (
        f"standard-filtration support of the projective cover {_AT_MOST}",
        _SUPER,
        lambda a: _weight_set(caps.p_set(_weight(a))),
    ),
    "filtration": (f"standard-filtration multiplicities {_AT_MOST}", _SUPER, _filtration),
    "kac-factors": (
        "composition-factor labels of the Kac module", _SUPER, lambda a: _weight_set(caps.kac_composition(_weight(a)))
    ),
    "hat": ("highest weight of the projective cover", _SUPER, lambda a: _weight_pair(caps.hat(_weight(a)))),
    "lowest": ("lowest weight of the simple", _SUPER, lambda a: _weight_pair(caps.lowest_weight(_weight(a)))),
    "dual": ("label coordinates of the dual simple", _SUPER, lambda a: _raw_pair(a.p, caps.dual_simple(_weight(a)))),
    "sigma": (
        "opposite-Borel label of the same simple", _SUPER, lambda a: _weight_pair(caps.standard_to_sigma(_weight(a)))
    ),
    "projective-word": ("typical base and translation word", _SUPER, _projective_word),
    "serganova": ("classical Serganova hat and Shapovalov test", _SUPER, _serganova),
    "diagram-decode": ("super weight of a diagram", _DIAGRAM, _diagram_decode),
    "translate": ("translation functor on a Kac class", (*_SUPER, ("--kind", _KIND), ("--c", _INT)), _translate),
    "borel-translate": ("standard label of a w-highest weight", _TUPLE_WEIGHT, _borel_translate),
    "selfcheck": ("run a batch suite", _SUITE, _selfcheck),
    "oddroot-lemma": (
        "partial-sum identity for the odd-root order",
        (("--m", _BLOCK_SIZE), ("--n", _BLOCK_SIZE)),
        lambda a: _scalar(serganova.check_oddroot_lemma(a.m, a.n)),
    ),
}


def _quote(text: str) -> str:
    """A help text with its {layer.CONSTANT} fields read, which imports those layers."""
    return text.format_map(globals())


def build_parser(argv: Sequence[str] = ()) -> _CliParser:
    """The parser of argv: with argv[0]'s subparser alone when it names one, else with all."""
    description = (__doc__ or "").partition("\n\nThe command table")[0]
    parser = _CliParser(prog="verlinde-gl", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, arguments, _ = _COMMANDS[name]
        cmd = sub.add_parser(name, help=_quote(help_text))
        cmd.add_argument("--json", action="store_true", help="emit the JSON envelope")
        for flag, kwargs in arguments:
            cmd.add_argument(flag, **{key: _quote(v) if key == "help" else v for key, v in kwargs.items()})
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        result, text, *warnings = _COMMANDS[args.command][2](args)
    except ValidationError as exc:
        print(f"error VALIDATION: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"error CONTRACT: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json  # only --json loads the encoder

        envelope = {
            "command": args.command,
            "result": result,
            "warnings": warnings,
            "provenance": {"tool": "verlinde-gl", "version": __version__},
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early: send the unwritten rest to devnull so the
        # interpreter's final flush stays quiet, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
