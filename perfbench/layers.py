"""Per-layer measurements that need no tracer: the kernel ladder and CLI cold start.

The ladder is the median per-call latency of each kernel on fixed weights as
p grows.  At each p the weight set is (0^k | 0^k), k = (p - 1) / 2, plus one
typical weight of the same shape; a cell is the median over repetitions of
the mean per-call time over that set.  The ``fig`` column uses the paper's
figure weight at p = 11.

The CLI breakdown runs fresh interpreters and splits a cold call into
interpreter start, the ``verlinde_gl.cli`` import, the marginal cost of its
eager ``suites`` import and the first ``main`` call.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from workloads import figure_weight, zero_weight

LADDER_PRIMES = (5, 7, 11, 13, 17)
# kac_composition at p = 17 takes seconds per call; that cell is skipped.
LADDER_SKIP = {("kac_composition", 17)}


def _kernels(lib):
    """kernel name -> function building the call on a super weight."""

    def borel_call(lam):
        p = lam.shape.p
        shape = lib.GLXShape(p, (lam.shape.m, p - lam.shape.n))
        big, _ = lib.level_rank_D(lib.GLWeight(lam.nu, p))
        tw = lib.TupleWeight(shape, (lib.GLWeight(lam.mu, p), big))
        return lambda: lib.borel_translate(tw, (1, 0))

    def apply_f_call(lam):
        d = lib.encode(lam)
        i = d.symbols.index("x") if "x" in d.symbols else 0
        return lambda: lib.apply_F(i, d)

    return {
        "encode": lambda lam: (lambda: lib.encode(lam)),
        "decode": lambda lam: (lambda d=lib.encode(lam): lib.decode(d)),
        "apply_F": apply_f_call,
        "cap_diagram": lambda lam: (lambda d=lib.encode(lam): lib.cap_diagram(d)),
        "p_set": lambda lam: (lambda: lib.p_set(lam)),
        "hat": lambda lam: (lambda: lib.hat(lam)),
        "projective_word": lambda lam: (lambda: lib.projective_word(lam)),
        "kac_composition": lambda lam: (lambda: lib.kac_composition(lam)),
        "serganova_hat": lambda lam: (lambda: lib.serganova_hat(lam.mu, lam.nu, lam.shape.p)),
        "borel_translate": borel_call,
    }


def _typical(lib, p: int):
    """The first typical weight (0^k | c^k), c = 1, 2, .., of shape (k, k)."""
    k = (p - 1) // 2
    c = 1
    while not lib.is_typical(lib.super_weight(p, (0,) * k, (c,) * k)):
        c += 1
    return lib.super_weight(p, (0,) * k, (c,) * k)


def _cell(calls, clock, reps: int, budget_s: float) -> float:
    """Median over repetitions of the mean per-call microseconds over calls."""
    samples = []
    deadline = perf_counter() + budget_s
    while len(samples) < reps or (perf_counter() < deadline and len(samples) < 200):
        t0 = clock.now()
        for call in calls:
            call()
        samples.append((clock.now() - t0) / len(calls) / 1e3)
    return statistics.median(samples)


def ladder(lib, clock, smoke: bool) -> tuple[dict[str, float], list[str]]:
    """ladder.<kernel>.p<P>_us and ladder.<kernel>.fig_us, plus skipped cells."""
    kernels = _kernels(lib)
    out: dict[str, float] = {}
    skipped = []
    for name, make in kernels.items():
        for p in LADDER_PRIMES:
            if (name, p) in LADDER_SKIP:
                skipped.append(f"ladder.{name}.p{p}_us")
                continue
            calls = [make(zero_weight(lib, p)), make(_typical(lib, p))]
            out[f"ladder.{name}.p{p}_us"] = _cell(calls, clock, 1 if smoke else 3, 0 if smoke else 0.05)
        out[f"ladder.{name}.fig_us"] = _cell([make(figure_weight(lib))], clock, 1 if smoke else 3, 0 if smoke else 0.05)
    return out, skipped


_IMPORT_CLI = """
import sys, time
t0 = time.perf_counter()
import verlinde_gl.cli as cli
t1 = time.perf_counter()
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["fuse", "--p=5", "--i=3", "--j=3"])
t2 = time.perf_counter()
print((t1 - t0) * 1e3, (t2 - t1) * 1e3)
"""

_IMPORT_SUITES = """
import time
import verlinde_gl.alcove, verlinde_gl.borel, verlinde_gl.caps, verlinde_gl.diagrams
import verlinde_gl.enumeration, verlinde_gl.fusion, verlinde_gl.serganova
import verlinde_gl.superweights, verlinde_gl.translation
t0 = time.perf_counter()
import verlinde_gl.suites
print((time.perf_counter() - t0) * 1e3)
"""


def run_child(args: list[str], src: str) -> tuple[float, str]:
    """Run a fresh interpreter; returns (wall milliseconds, stdout)."""
    t0 = perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return (perf_counter_ns() - t0) / 1e6, proc.stdout


def cli_breakdown(src: str, clock, repeats: int) -> dict[str, float]:
    """cli.interpreter_ms, cli.import_ms, cli.import_suites_ms, cli.main_ms.

    `clock` is a ChildClock; every child's times, its wall time or the times
    it measures itself, are scaled by the clock's bracket around that child.
    """
    interp, imports, suites_ms, mains = [], [], [], []
    clock.start()
    for _ in range(repeats):
        interp.append(run_child(["-c", "pass"], src)[0] * clock.close())
        imp, main = map(float, run_child(["-c", _IMPORT_CLI], src)[1].split())
        factor = clock.close()
        imports.append(imp * factor)
        mains.append(main * factor)
        suites_ms.append(float(run_child(["-c", _IMPORT_SUITES], src)[1]) * clock.close())
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports),
        "cli.import_suites_ms": statistics.median(suites_ms),
        "cli.main_ms": statistics.median(mains),
    }
