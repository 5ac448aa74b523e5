"""Command-line surface: one subcommand per library operation.

Every subcommand is a thin adapter around a library call; output is either a
deterministic human-readable line or, with --json, an envelope

    {"command": ..., "result": ..., "warnings": [...], "provenance": {...}}

serialized with sorted keys.  Exit codes: 0 success, 1 validation error,
2 contract error.  Weights are comma-separated integers; use --mu=-1,0 style
for values starting with a minus sign.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Any

from . import __version__
from .alcove import (
    GLWeight,
    chi_rotate,
    is_admissible,
    level_rank_D,
    level_rank_D_inverse,
    psi_data,
    tensor_with_V,
)
from .borel import GLXShape, TupleWeight, borel_translate
from .caps import (
    P_SET_MAX_SIZE,
    cap_diagram,
    dual_simple,
    hat,
    is_inner,
    kac_composition,
    lowest_weight,
    p_set,
    projective_filtration,
    projective_word,
    render_caps,
    standard_to_sigma,
)
from .diagrams import WeightDiagram, decode, encode, render_ascii, to_json
from .errors import ContractError, ValidationError
from .fusion import check_prime, fuse_simples
from .serganova import ODDROOT_LEMMA_MAX_BLOCK, check_oddroot_lemma, serganova_hat, sh_nonzero
from .superweights import (
    SuperWeight,
    atypicality,
    casimir_scalar,
    is_typical,
    super_weight,
)
from .suites import SELFCHECK_MAX_P, SUITE_BUILDERS, run_suite
from .translation import translate_kac


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValidationError(message)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _weight(args: argparse.Namespace) -> SuperWeight:
    return super_weight(args.p, _ints(args.mu), _ints(args.nu))


def _pair(mu: tuple[int, ...], nu: tuple[int, ...]) -> dict[str, list[int]]:
    return {"mu": list(mu), "nu": list(nu)}


def _tuple_text(entries) -> str:
    """'1,0,-2': the comma-separated form weights are read and printed in."""
    return ",".join(map(str, entries))


def _pair_text(mu, nu) -> str:
    """'(1,0|-2)': a super weight or a raw coordinate pair."""
    return f"({_tuple_text(mu)}|{_tuple_text(nu)})"


# Commands answering with a set of super weights (printed sorted), and
# commands answering with one super weight or raw (mu, nu) coordinate pair.
_WEIGHT_SET_COMMANDS = {"pset": p_set, "kac-factors": kac_composition}
_PAIR_COMMANDS = {"hat": hat, "lowest": lowest_weight, "dual": dual_simple, "sigma": standard_to_sigma}


def _diagram_obj(d: WeightDiagram) -> dict[str, Any]:
    return json.loads(to_json(d))


def build_parser() -> _CliParser:
    parser = _CliParser(prog="verlinde-gl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON envelope")

    def cmd(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    c = cmd("fuse", help="fusion of two simples of Ver_p")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--i", type=int, required=True)
    c.add_argument("--j", type=int, required=True)

    c = cmd("alcove", help="admissibility of a GL_n weight")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--weight", required=True)

    c = cmd("tensor-v", help="summands of V_lambda (x) V")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--weight", required=True)

    c = cmd("level-rank", help="level-rank dual weight and parity")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--weight", required=True)
    c.add_argument("--inverse", action="store_true")

    c = cmd("psi", help="invertible objects det, chi, psi for GL_n")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)

    c = cmd("chi-rotate", help="tensor with chi^k")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--weight", required=True)
    c.add_argument("--k", type=int, required=True)

    for name, help_text in (
        ("diagram-encode", "weight diagram of a super weight"),
        ("render", "ASCII rendering of the weight diagram"),
        ("caps", "cap diagram, tau swaps and free circles"),
        ("atypicality", "number of crosses"),
        ("casimir", "Casimir scalar and residue"),
        ("irreducible", "typicality of the Kac label"),
        ("pset", f"standard-filtration support of the projective cover (at most {P_SET_MAX_SIZE} weights)"),
        ("filtration", f"standard-filtration multiplicities (at most {P_SET_MAX_SIZE} weights)"),
        ("kac-factors", "composition-factor labels of the Kac module"),
        ("hat", "highest weight of the projective cover"),
        ("lowest", "lowest weight of the simple"),
        ("dual", "label coordinates of the dual simple"),
        ("sigma", "opposite-Borel label of the same simple"),
        ("projective-word", "typical base and translation word"),
        ("serganova", "classical Serganova hat and Shapovalov test"),
    ):
        c = cmd(name, help=help_text)
        c.add_argument("--p", type=int, required=True)
        c.add_argument("--mu", required=True)
        c.add_argument("--nu", required=True)
        if name == "render":
            c.add_argument("--cut", type=int, default=0)

    c = cmd("diagram-decode", help="super weight of a diagram")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--symbols", required=True, help="p characters over o < > x, vertex 0 first")
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)

    c = cmd("translate", help="translation functor on a Kac class")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--mu", required=True)
    c.add_argument("--nu", required=True)
    c.add_argument("--kind", choices=("F", "E"), required=True)
    c.add_argument("--c", type=int, required=True)

    c = cmd("borel-translate", help="standard label of a w-highest weight")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--types", required=True, help="summand types, nondecreasing")
    c.add_argument("--part", action="append", required=True, help="one admissible part per summand")
    c.add_argument("--w", required=True, help="positions of the summands, 1-indexed")

    c = cmd("selfcheck", help="run a batch suite")
    c.add_argument("--suite", default="golden", help=f"one of {sorted(SUITE_BUILDERS)} or 'all'")
    c.add_argument("--p", type=int, default=5, help=f"a prime from 5 to {SELFCHECK_MAX_P}")

    c = cmd("oddroot-lemma", help="partial-sum identity for the odd-root order")
    c.add_argument("--m", type=int, required=True, help=f"at most {ODDROOT_LEMMA_MAX_BLOCK}")
    c.add_argument("--n", type=int, required=True, help=f"at most {ODDROOT_LEMMA_MAX_BLOCK}")
    return parser


def _execute(args: argparse.Namespace) -> tuple[Any, str]:
    """Return (json-ready result, human text)."""
    cmdname = args.command
    if cmdname == "fuse":
        out = fuse_simples(args.i, args.j, args.p)
        return out, " ".join(f"L{k}" for k in out)
    if cmdname == "alcove":
        check_prime(args.p)
        entries = _ints(args.weight)
        ok = is_admissible(entries, len(entries), args.p)
        return ok, str(ok).lower()
    if cmdname == "tensor-v":
        lam = GLWeight(_ints(args.weight), args.p)
        out = [list(w.entries) for w in tensor_with_V(lam)]
        return out, "; ".join(map(_tuple_text, out))
    if cmdname == "level-rank":
        lam = GLWeight(_ints(args.weight), args.p)
        image, parity = (level_rank_D_inverse if args.inverse else level_rank_D)(lam)
        return {"weight": list(image.entries), "parity": parity}, (
            f"{_tuple_text(image.entries)} parity={parity}"
        )
    if cmdname == "psi":
        t = psi_data(args.n, args.p)
        out = {
            "det": list(t.det_weight.entries),
            "chi": list(t.chi_weight.entries),
            "a": t.a,
            "b": t.b,
            "psi": list(t.psi_weight.entries),
        }
        return out, f"psi={_tuple_text(t.psi_weight.entries)} (a={t.a}, b={t.b})"
    if cmdname == "chi-rotate":
        lam = chi_rotate(GLWeight(_ints(args.weight), args.p), args.k)
        return list(lam.entries), _tuple_text(lam.entries)
    if cmdname == "diagram-encode":
        d = encode(_weight(args))
        return _diagram_obj(d), render_ascii(d)
    if cmdname == "diagram-decode":
        d = WeightDiagram(args.p, args.symbols, args.s, args.r)
        lam = decode(d, args.m, args.n)
        return _pair(lam.mu, lam.nu), f"mu={_tuple_text(lam.mu)} nu={_tuple_text(lam.nu)}"
    if cmdname == "render":
        text = render_ascii(encode(_weight(args)), args.cut)
        return text, text
    if cmdname == "caps":
        cd = cap_diagram(encode(_weight(args)))
        caps = [
            {"source": c.source, "tail": c.tail, "inner": is_inner(cd, j)}
            for j, c in enumerate(cd.caps)
        ]
        text = render_ascii(cd.base) + " " + render_caps(cd)
        return {"caps": caps, "free": sorted(cd.free_circles)}, text
    if cmdname == "atypicality":
        k = atypicality(_weight(args))
        return k, str(k)
    if cmdname == "casimir":
        cas = casimir_scalar(_weight(args))
        return {"value": cas.value, "residue": cas.residue}, f"{cas.value} (mod p: {cas.residue})"
    if cmdname == "irreducible":
        ok = is_typical(_weight(args))
        return ok, str(ok).lower()
    if cmdname in _WEIGHT_SET_COMMANDS:
        out = sorted((list(a.mu), list(a.nu)) for a in _WEIGHT_SET_COMMANDS[cmdname](_weight(args)))
        return [{"mu": mu, "nu": nu} for mu, nu in out], "; ".join(_pair_text(mu, nu) for mu, nu in out)
    if cmdname in _PAIR_COMMANDS:
        out = _PAIR_COMMANDS[cmdname](_weight(args))
        mu, nu = (out.mu, out.nu) if isinstance(out, SuperWeight) else out
        return _pair(mu, nu), _pair_text(mu, nu)
    if cmdname == "filtration":
        table = projective_filtration(_weight(args))
        rows = sorted((list(a.mu), list(a.nu), mult) for a, mult in table.items())
        return [
            {"mu": mu, "nu": nu, "multiplicity": mult} for mu, nu, mult in rows
        ], "; ".join(f"{_pair_text(mu, nu)}:{mult}" for mu, nu, mult in rows)
    if cmdname == "projective-word":
        base, word = projective_word(_weight(args))
        return {
            "base": _pair(base.mu, base.nu),
            "word": [[kind, i] for kind, i in word],
        }, f"base={_pair_text(base.mu, base.nu)} word=" + " ".join(f"{kind}{i}" for kind, i in word)
    if cmdname == "serganova":
        mu, nu = _ints(args.mu), _ints(args.nu)
        hmu, hnu = serganova_hat(mu, nu, args.p)
        nz = sh_nonzero(mu, nu, args.p)
        return {
            "hat": _pair(hmu, hnu),
            "sh_nonzero": nz,
        }, f"hat={_pair_text(hmu, hnu)} sh_nonzero={str(nz).lower()}"
    if cmdname == "oddroot-lemma":
        ok = check_oddroot_lemma(args.m, args.n)
        return ok, str(ok).lower()
    if cmdname == "translate":
        ext = translate_kac(args.kind, args.c, _weight(args))
        if ext is None:
            return {"terms": []}, "0"
        terms = [{"quotient": _pair(ext.quotient.mu, ext.quotient.nu)}]
        text = f"quotient={_pair_text(ext.quotient.mu, ext.quotient.nu)}"
        if ext.sub is not None:
            terms.append({"sub": _pair(ext.sub.mu, ext.sub.nu)})
            text += f" sub={_pair_text(ext.sub.mu, ext.sub.nu)}"
        return {"terms": terms}, text
    if cmdname == "borel-translate":
        types = _ints(args.types)
        shape = GLXShape(args.p, types)
        parts = tuple(GLWeight(_ints(text), args.p) for text in args.part)
        w1 = _ints(args.w)
        if sorted(w1) != list(range(1, shape.k + 1)):
            raise ValidationError(f"{w1} is not a permutation of 1..{shape.k}")
        out = borel_translate(TupleWeight(shape, parts), tuple(x - 1 for x in w1))
        return [list(g.entries) for g in out.parts], "; ".join(_tuple_text(g.entries) for g in out.parts)
    if cmdname == "selfcheck":
        names = sorted(SUITE_BUILDERS) if args.suite == "all" else [args.suite]
        results = [run_suite(name, args.p) for name in names]
        lines = [r.line() for r in results]
        ok = all(r.ok for r in results)
        payload = [{**asdict(r), "ok": r.ok} for r in results]
        text = "\n".join(lines + [f"selfcheck: {'PASS' if ok else 'FAIL'}"])
        if not ok:
            raise ValidationError(text)
        return payload, text
    raise ValidationError(f"unknown command {cmdname!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result, text = _execute(args)
    except ValidationError as exc:
        print(f"error VALIDATION: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"error CONTRACT: {exc}", file=sys.stderr)
        return 2
    if args.json:
        envelope = {
            "command": args.command,
            "result": result,
            "warnings": [],
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
