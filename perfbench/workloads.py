"""The four benchmark workloads and their seeded input generators.

All workloads are closed loops with one client in one process.  ``query``,
``atypical`` and ``cli`` run in cycles: a cycle is a fixed schedule of
operation kinds (and primes) whose inputs are drawn fresh from the seeded
generator, so every seed sees the same mix and only the weights differ.  A run
always ends on a cycle boundary.  ``gate`` is the fixed self-check sweep.

The library is imported lazily (``lib`` arguments are the imported package),
so that set-up time can be measured in a fresh interpreter from the first
library import on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One timed call: kind names the witness, run(*args) is what is timed."""

    kind: str
    args: tuple
    run: Callable


def rand_admissible(rank: int, p: int, rng: random.Random) -> tuple[int, ...]:
    """Nonincreasing integers with spread at most p - rank, top in [-2p, 2p]."""
    top = rng.randint(-2 * p, 2 * p)
    if rank == 1:
        return (top,)
    spread = rng.randint(0, p - rank)
    inner = sorted((rng.randint(top - spread, top) for _ in range(rank - 2)), reverse=True)
    return (top, *inner, top - spread)


def rand_super_weight(lib, p: int, rng: random.Random, max_block: int = 5):
    """A random pair (mu|nu) with block sizes at most max_block, m + n < p."""
    m = rng.randint(1, min(max_block, p - 2))
    n = rng.randint(1, min(max_block, p - 1 - m))
    return lib.super_weight(p, rand_admissible(m, p, rng), rand_admissible(n, p, rng))


def rand_tuple_weight(lib, p: int, rng: random.Random):
    """A w-integrable tuple weight: equal types half the time, mixed otherwise."""
    k = rng.randint(2, 4)
    if rng.random() < 0.5:
        types = (rng.randint(1, min(6, p - 1)),) * k
    else:
        types = tuple(sorted(rng.randint(1, p - 1) for _ in range(k)))
    shape = lib.GLXShape(p, types)
    w = list(range(k))
    rng.shuffle(w)
    parts = [lib.GLWeight(rand_admissible(t, p, rng), p) for t in types]
    # Inside each equal-type block, hand the higher degrees to earlier positions.
    for block in shape.blocks():
        members = sorted(block, key=lambda i: w[i])
        ranked = sorted((parts[i] for i in block), key=lambda g: -g.degree)
        for i, part in zip(members, ranked):
            parts[i] = part
    return lib.TupleWeight(shape, tuple(parts)), tuple(w)


def rotated_weight(lib, symbols: str, rng: random.Random):
    """Decode the diagram `symbols` turned by a random offset, with a random label."""
    k = rng.randrange(len(symbols))
    d = lib.WeightDiagram(len(symbols), symbols[k:] + symbols[:k], rng.randint(-3, 3), rng.randint(-3, 3))
    return lib.decode(d)


def figure_weight(lib):
    """The paper's running example at p = 11."""
    return lib.super_weight(11, (18, 18, 15, 12, 12), (-13, -13, -17, -18))


def zero_weight(lib, p: int):
    """(0^k | 0^k) with k = (p - 1) / 2: the most atypical weight, k crosses in a row."""
    k = (p - 1) // 2
    return lib.super_weight(p, (0,) * k, (0,) * k)


class Workload:
    """A cycle of operations; warm_ops of the first cycle are run as the warm-up."""

    digest_cycles = 1  # cycles whose outputs feed the digest; every run completes them
    trace_cycles = 1  # cycles run by a traced run, once untraced and once traced
    warm_ops = 1

    def __init__(self, lib, smoke: bool) -> None:
        self.lib = lib
        self.smoke = smoke

    def call(self, name: str, *args) -> Op:
        """An operation calling the library function `name`, looked up at call time."""
        lib = self.lib
        return Op(name, args, lambda *a: getattr(lib, name)(*a))

    def cycle(self, rng: random.Random, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, witness, op: Op, out) -> str | None:
        """None when the witness accepts the output of op, else the reason."""
        return witness.check(op.kind, op.args, out)

    def warm_up(self) -> None:
        """Run the start of one cycle untimed, so lazy set-up is done before timing."""
        for op in self.cycle(random.Random(0), 0)[: self.warm_ops]:
            op.run(*op.args)


def _word_and_replay(lib, lam):
    base, word = lib.projective_word(lam)
    return base, word, lib.replay_word(base, word)


class Query(Workload):
    """Single public calls on fresh random weights at p in {5, .., 23}."""

    digest_cycles = 5
    trace_cycles = 40
    primes = (5, 7, 11, 13, 17, 19, 23)
    warm_ops = 21

    def cycle(self, rng, index):
        lib, call = self.lib, self.call
        ops: list[Op] = []

        def weight(max_block: int = 5):
            return rand_super_weight(lib, p, rng, max_block)

        def gl_weight():
            rank = rng.randint(1, min(6, p - 1))
            return lib.GLWeight(rand_admissible(rank, p, rng), p)

        for p in self.primes[:2] if self.smoke else self.primes:
            lam = weight()
            d = lib.encode(lam)
            ops += [call("encode", lam), call("decode", d), call("render_ascii", d, rng.randrange(p))]
            for name in ("atypicality", "casimir_scalar"):
                ops.append(call(name, weight()))
            ops.append(call("cap_diagram", lib.encode(weight())))
            for name in ("p_set", "hat", "lowest_weight", "dual_simple_label", "standard_to_sigma"):
                ops.append(call(name, weight()))
            ops.append(call("sigma_to_standard", lib.standard_to_sigma(weight())))
            ops.append(call("translate_kac", rng.choice("FE"), rng.randrange(p), weight()))
            ops.append(Op("projective_word", (weight(),), lambda x: _word_and_replay(lib, x)))
            for name in ("serganova_hat", "sh_nonzero"):
                w = weight(max_block=4)
                ops.append(call(name, w.mu, w.nu, p))
            ops.append(call("borel_translate", *rand_tuple_weight(lib, p, rng)))
            ops.append(call("fuse_simples", rng.randint(1, p - 1), rng.randint(1, p - 1), p))
            ops += [call("level_rank_D", gl_weight()), call("tensor_with_V", gl_weight())]
            lam = weight()
            while lib.atypicality(lam) > 2:
                lam = weight()
            ops.append(call("kac_composition", lam))
        return ops


class Atypical(Workload):
    """caps functions on maximal and near-maximal atypicality at p in {7, 11, 13}.

    The inputs are fixed diagram shapes turned by a random offset with a
    random label: k crosses in a row ((0^k | 0^k) itself in the first cycle),
    and k - 1 crosses with one arrow of each kind, plus the figure weight at
    p = 11.  Turning a diagram keeps its cap structure, so every seed does the
    same amount of work and only the weights differ.
    """

    digest_cycles = 1
    trace_cycles = 2
    primes = (7, 11, 13)
    warm_ops = 5

    def cycle(self, rng, index):
        lib = self.lib
        ops: list[Op] = []
        for p in self.primes[:1] if self.smoke else self.primes:
            k = (p - 1) // 2
            top = zero_weight(lib, p)
            if index:
                top = rotated_weight(lib, lib.encode(top).symbols, rng)
            near = rotated_weight(lib, "x" * (k - 1) + ">o<" + "o" * (k - 1), rng)
            for lam in [top, near] + ([figure_weight(lib)] if p == 11 else []):
                ops += [self.call("kac_composition", lam), self.call("p_set", lam)]
                ops.append(Op("projective_word", (lam,), lambda x: _word_and_replay(lib, x)))
                ops += [self.call("hat", lam), self.call("projective_filtration", lam)]
        return ops


def _pair_text(mu, nu) -> str:
    return f"({','.join(map(str, mu))}|{','.join(map(str, nu))})"


def _pair_obj(mu, nu) -> dict:
    return {"mu": list(mu), "nu": list(nu)}


class Cli(Workload):
    """Cold `python -m verlinde_gl.cli` subprocesses, half text and half --json."""

    digest_cycles = 1
    trace_cycles = 10
    commands = ("fuse", "render", "caps", "pset", "hat", "serganova", "borel-translate")
    # Small weights keep every call cheap, so the time is the cold start itself.
    primes = (5, 7, 11)
    max_block = 3

    def __init__(self, lib, smoke: bool, in_process: bool = False) -> None:
        super().__init__(lib, smoke)
        self.src = os.path.dirname(os.path.dirname(lib.__file__))
        self.in_process = in_process
        self.peak_rss_kb = 0

    def _weight_args(self, lam) -> list[str]:
        return [f"--p={lam.shape.p}", "--mu=" + ",".join(map(str, lam.mu)), "--nu=" + ",".join(map(str, lam.nu))]

    def expected(self, command: str, lam_or_args):
        """(json result, text) the CLI must print, built from library calls."""
        lib = self.lib
        if command == "fuse":
            i, j, p = lam_or_args
            out = lib.fuse_simples(i, j, p)
            return out, " ".join(f"L{k}" for k in out)
        if command == "render":
            lam, k = lam_or_args
            text = lib.render_ascii(lib.encode(lam), k)
            return text, text
        if command == "borel-translate":
            tw, w = lam_or_args
            out = [list(g.entries) for g in lib.borel_translate(tw, w).parts]
            return out, "; ".join(",".join(map(str, e)) for e in out)
        lam = lam_or_args
        if command == "caps":
            cd = lib.cap_diagram(lib.encode(lam))
            caps = [
                {"source": c.source, "tail": c.tail, "inner": lib.is_inner(cd, j)}
                for j, c in enumerate(cd.caps)
            ]
            text = lib.render_ascii(cd.base) + " " + lib.render_caps(cd)
            return {"caps": caps, "free": sorted(cd.free_circles)}, text
        if command == "pset":
            rows = sorted((list(a.mu), list(a.nu)) for a in lib.p_set(lam))
            return [_pair_obj(mu, nu) for mu, nu in rows], "; ".join(_pair_text(mu, nu) for mu, nu in rows)
        if command == "hat":
            h = lib.hat(lam)
            return _pair_obj(h.mu, h.nu), _pair_text(h.mu, h.nu)
        if command == "serganova":
            (hmu, hnu), nz = lib.serganova_hat(lam.mu, lam.nu, lam.shape.p), lib.sh_nonzero(lam.mu, lam.nu, lam.shape.p)
            return {"hat": _pair_obj(hmu, hnu), "sh_nonzero": nz}, f"hat={_pair_text(hmu, hnu)} sh_nonzero={str(nz).lower()}"
        raise ValueError(command)

    def cycle(self, rng, index):
        lib = self.lib
        ops: list[Op] = []
        for command in self.commands:
            for as_json in (False, True):
                p = rng.choice(self.primes)
                if command == "fuse":
                    payload = (rng.randint(1, p - 1), rng.randint(1, p - 1), p)
                    argv = ["fuse", f"--p={p}", f"--i={payload[0]}", f"--j={payload[1]}"]
                elif command == "render":
                    lam = rand_super_weight(lib, p, rng, self.max_block)
                    payload = (lam, rng.randrange(p))
                    argv = ["render", *self._weight_args(lam), f"--cut={payload[1]}"]
                elif command == "borel-translate":
                    tw, w = rand_tuple_weight(lib, p, rng)
                    payload = (tw, w)
                    argv = ["borel-translate", f"--p={p}", "--types=" + ",".join(map(str, tw.shape.types))]
                    argv += ["--part=" + ",".join(map(str, g.entries)) for g in tw.parts]
                    argv.append("--w=" + ",".join(str(x + 1) for x in w))
                else:
                    payload = rand_super_weight(lib, p, rng, self.max_block)
                    argv = [command, *self._weight_args(payload)]
                if as_json:
                    argv.append("--json")
                ops.append(Op("cli", (command, payload, tuple(argv)), self._run))
        return ops

    def _run(self, command, payload, argv):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.lib.cli.main(list(argv))
            return code, buf.getvalue()
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "verlinde_gl.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def check(self, witness, op, result) -> str | None:
        """The output must equal what the library gives, and pass the library's witness."""
        command, payload, argv = op.args
        code, out = result
        if code != 0:
            return f"exit code {code}: {out.strip()[:200]}"
        want_json, want_text = self.expected(command, payload)
        if "--json" in argv:
            env = json.loads(out)
            if env.get("command") != command or env.get("result") != want_json:
                return "JSON result differs from the library"
        elif out != want_text + "\n":
            return "text output differs from the library"
        return self._library_witness(witness, command, payload)

    def _library_witness(self, witness, command, payload) -> str | None:
        lib = self.lib
        if command == "fuse":
            return witness.check("fuse_simples", payload, lib.fuse_simples(*payload))
        if command == "render":
            lam, k = payload
            return witness.check("render_ascii", (lib.encode(lam), k), lib.render_ascii(lib.encode(lam), k))
        if command == "borel-translate":
            return witness.check("borel_translate", payload, lib.borel_translate(*payload))
        if command == "caps":
            d = lib.encode(payload)
            return witness.check("cap_diagram", (d,), lib.cap_diagram(d))
        if command == "pset":
            return witness.check("p_set", (payload,), lib.p_set(payload))
        if command == "hat":
            return witness.check("hat", (payload,), lib.hat(payload))
        lam = payload
        return witness.check("serganova_hat", (lam.mu, lam.nu, lam.shape.p), lib.serganova_hat(lam.mu, lam.nu, lam.shape.p))

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.lib.cli.main(["fuse", "--p=5", "--i=3", "--j=3"])


class Gate:
    """The eight self-check suites at p = 5, in name order: `selfcheck --suite all --p 5`."""

    p = 5

    def __init__(self, lib, smoke: bool) -> None:
        self.lib = lib
        self.smoke = smoke

    def suites(self) -> list[tuple[str, Callable]]:
        s = self.lib.suites
        if not self.smoke:
            return [(name, lambda b=s.SUITE_BUILDERS[name]: b(self.p)) for name in sorted(s.SUITE_BUILDERS)]
        # Tiny windows for the smoke test; serganova has no window and is left out.
        win = (-1, 1)
        return [
            ("equivariance", lambda: s.suite_equivariance(5, win)),
            ("filtration", lambda: s.suite_filtration(5, win)),
            ("golden", s.suite_golden),
            ("kac-moody", lambda: s.suite_kac_moody(5, win)),
            ("odd-reflection", lambda: s.suite_odd_reflection(5, win, trials=20)),
            ("projective-word", lambda: s.suite_projective_word(5, 2, win)),
            ("roundtrip", lambda: s.suite_codec(5, win)),
        ]

    def warm_up(self) -> None:
        self.lib.suites.suite_golden()


WORKLOADS = {"gate": Gate, "query": Query, "atypical": Atypical, "cli": Cli}
