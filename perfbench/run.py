#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of verlinde-gl, standard library only.

Usage, from the repository root:

    python3 perfbench/run.py --workload {gate,query,atypical,cli} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The library is loaded from ``src/`` next to this directory and driven only
through its public functions and its CLI.  Every timed result is checked
against an independent witness outside the timed interval; a wrong answer
counts as a failed operation.  Human-readable lines (environment stamp,
census, digest, sample counts) come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
reports its per-layer metrics: it runs a fixed number of cycles untraced,
then the same cycles with every public library function wrapped (see
tracer.py), then the kernel ladder and the CLI cold-start breakdown.
End-to-end numbers never come from a traced pass.

``gate`` always measures one full sweep, however long it takes; the other
workloads run whole cycles until ``--seconds`` of wall time have passed.
``--smoke`` shrinks every workload to a tiny size for the smoke test.
Full results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import ChildClock, SpeedMeter
from tracer import LAYERS, LIBRARY_MODULES, Tracer
from witness import Digest, Witness, canon
from workloads import WORKLOADS, Cli, Gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HOT_FUNCTIONS = (
    "diagrams.encode",
    "diagrams.decode",
    "translation.apply_F",
    "translation.apply_E",
    "translation.loop_f",
    "translation.loop_e",
    "caps.cap_diagram",
    "caps.p_set",
    "caps.kac_composition",
    "serganova.serganova_hat",
    "serganova.sh_nonzero",
    "borel.borel_translate",
)
SETUP_REPEATS = 5
PERCENTILES = (50, 90, 99)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or specification)."""


def load_library():
    """Import verlinde_gl from this checkout's src/ and every layer module."""
    pkg_dir = SRC / "verlinde_gl"
    if not (pkg_dir / "__init__.py").is_file():
        raise BenchError(f"library sources not found at {pkg_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("verlinde_gl")
    if Path(lib.__file__).resolve().parent != pkg_dir.resolve():
        raise BenchError(f"verlinde_gl imported from {lib.__file__}, not from {pkg_dir}")
    for layer in LAYERS:
        importlib.import_module(f"verlinde_gl.{layer}")
    return lib


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


_SETUP_CHILD = """
import sys, time
sys.path.insert(0, {here!r})
import run
t0 = time.perf_counter()
run.WORKLOADS[{name!r}](run.load_library(), {smoke!r}).warm_up()
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, smoke: bool, clock: ChildClock) -> list[float]:
    """Import plus warm-up in fresh interpreters; the first, untimed, fills the bytecode cache.

    Each sample is scaled by the child clock's bracket around it.
    """
    code = _SETUP_CHILD.format(here=str(HERE), name=name, smoke=smoke)
    samples = []
    clock.start()
    for k in range(1 + (1 if smoke else SETUP_REPEATS)):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120, cwd=ROOT
        )
        factor = clock.close()
        if k:
            samples.append(float(proc.stdout.split()[-1]) * factor)
    return samples


def env_stamp(seed: int, workload: str, trace: int, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def git_commit() -> str:
    """HEAD of this checkout's own .git, if it has one; never looks above the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Census:
    """Distinct inputs and the atypicality histogram of a workload's inputs."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.seen: set[str] = set()
        self.count = 0
        self.atypicality: Counter = Counter()

    def add(self, args: tuple) -> None:
        """Count one input; its atypicality is that of the first weight or diagram in it."""
        self.count += 1
        self.seen.add(json.dumps(canon(args), sort_keys=True))
        for x in (y for a in args for y in (a if isinstance(a, tuple) else (a,))):
            if isinstance(x, self.lib.SuperWeight):
                self.atypicality[self.lib.atypicality(x)] += 1
                break
            if isinstance(x, self.lib.WeightDiagram):
                self.atypicality[x.cross_count] += 1
                break

    def metrics(self) -> dict[str, float]:
        n = sum(self.atypicality.values())
        mean = sum(k * v for k, v in self.atypicality.items()) / n if n else 0.0
        return {
            "inputs.distinct_frac": len(self.seen) / self.count if self.count else 0.0,
            "inputs.atypicality_mean": mean,
        }

    def summary(self) -> dict:
        return {**self.metrics(), "inputs": self.count, "atypicality_histogram": dict(sorted(self.atypicality.items()))}


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


def _check(wl, witness, op, out, err) -> str | None:
    if err is not None:
        return f"{op.kind} raised {type(err).__name__}: {err}"
    try:
        return wl.check(witness, op, out)
    except Exception as exc:  # a witness that cannot run is a failed check
        return f"{op.kind} witness raised {type(exc).__name__}: {exc}"


def _call(fn, *args):
    return fn(*args)


def cycle_percentiles(latencies: list[float]) -> tuple[int, dict[int, float]]:
    """(sample count, {q: percentile}) of one cycle's latencies."""
    return len(latencies), ({q: percentile(latencies, q) for q in PERCENTILES} if latencies else {})


def run_cycles(wl, seed: int, clock: SpeedMeter | ChildClock, *, seconds: float, min_cycles: int, tally: Tally,
               digest: Digest, census: Census | None = None,
               witness: Witness | None = None, tracer: Tracer | None = None) -> dict:
    """Whole cycles until `seconds` of wall time passed and min_cycles are done.

    Outputs are checked by the witness (when given) after each cycle's timed
    part; inputs and outputs of the first min_cycles cycles, which every run
    completes, feed the digest and the input census.  Only per-cycle
    aggregates are kept, so the run's own memory does not grow with the
    number of operations done.  With a tracer, each operation runs inside an
    ``op.<kind>`` span.  With a ChildClock, each operation's time is scaled
    by the reference child run right after it, outside the timed interval.
    """
    close = getattr(clock, "close", None)
    rng = random.Random(seed)
    op_spans: dict = {}
    cycle_stats: list[tuple[int, dict[int, float]]] = []
    cycle_ns: list[float] = []
    start = time.perf_counter()
    index = 0
    while index < min_cycles or time.perf_counter() - start < seconds:
        ops = wl.cycle(rng, index)
        timed = []
        for op_id, op in enumerate(ops):
            span = _call
            if tracer is not None:
                tracer.op_id = index * len(ops) + op_id
                if op.kind not in op_spans:
                    op_spans[op.kind] = tracer.wrap(f"op.{op.kind}", _call)
                span = op_spans[op.kind]
            err = out = None
            t0 = clock.now()
            try:
                out = span(op.run, *op.args)
            except Exception as exc:  # a failed call is counted, not fatal
                err = exc
            dt = clock.now() - t0
            if close is not None:
                dt *= close()
            timed.append((out, err, dt))
        cycle_ns.append(sum(t for _, _, t in timed))
        latencies = []
        for op, (out, err, dt) in zip(ops, timed):
            if witness is not None:
                reason = _check(wl, witness, op, out, err)
            else:
                reason = None if err is None else f"{op.kind} raised {err!r}"
            tally.record(reason)
            if reason is None:
                latencies.append(dt / 1e6)
            if index < min_cycles:
                digest.add(op.kind, op.args, out if err is None else repr(err))
                if census is not None:
                    census.add(op.args)
        cycle_stats.append(cycle_percentiles(latencies))
        index += 1
    return {"cycle_stats": cycle_stats, "cycle_ns": cycle_ns}


def run_gate(gate: Gate, clock: SpeedMeter, tally: Tally, digest: Digest, tracer: Tracer | None = None) -> dict:
    """One sweep over the suites; with a tracer, also the per-suite call census."""
    times, checks, census = {}, {}, {}
    for index, (name, fn) in enumerate(gate.suites()):
        call = fn
        if tracer is not None:
            tracer.op_id = index
            call = tracer.wrap(f"op.suite.{name}", fn)
            before = tracer.snapshot()
        err = result = None
        t0 = clock.now()
        try:
            result = call()
        except Exception as exc:  # a suite error counts as one failed check
            err = exc
        times[name] = (clock.now() - t0) / 1e9
        if tracer is not None:
            census[name] = tracer.calls_since(before)
        if err is not None:
            tally.record(f"suite {name} raised {type(err).__name__}: {err}")
            digest.add(name, repr(err))
            continue
        checks[name] = result.checked
        digest.add(name, result.line())
        tally.attempted += result.checked
        tally.failed += result.failures
        if result.failures:
            tally.reasons[result.line()] += 1
        elif not result.ok or result.checked == 0:
            tally.record(f"suite {name} reported {result.line()}")
    return {"times": times, "checks": checks, "census": census}


def gate_census(lib, p: int) -> Census:
    census = Census(lib)
    for m, n, mu, nu in lib.enumeration.super_suite(p):
        census.add((lib.SuperWeight(lib.SuperShape(m, n, p), mu, nu),))
    return census


def end_to_end(args, lib, wl, meter: SpeedMeter, children: ChildClock, tally: Tally, digest: Digest,
               report: dict) -> dict[str, float]:
    if isinstance(wl, Gate):
        res = run_gate(wl, meter, tally, digest)
        cycles = [cycle_percentiles([t * 1e3 for t in res["times"].values()])]
        wall = sum(res["times"].values())
        report["suite_seconds"] = res["times"]
        report["suite_checks"] = res["checks"]
        report["census"] = gate_census(lib, wl.p).summary()
        metrics = {"wall_s": wall, "ops_per_s": len(res["times"]) / wall}
    else:
        census = Census(lib)
        clock = meter
        if isinstance(wl, Cli):
            children.start()
            clock = children
        res = run_cycles(wl, args.seed, clock, seconds=args.seconds, min_cycles=wl.digest_cycles, tally=tally,
                         digest=digest, census=census, witness=Witness(lib))
        cycles = res["cycle_stats"]
        timed_s = sum(res["cycle_ns"]) / 1e9
        report["census"] = census.summary()
        metrics = {"wall_s": statistics.median(res["cycle_ns"]) / 1e9, "ops_per_s": tally.attempted / timed_s}
    timed = [cuts for n, cuts in cycles if n]
    if not timed:
        raise BenchError("no successful operation to time")
    # A reported percentile is the median over cycles of each cycle's percentile,
    # which a short stall of the host moves less than a pooled tail does.
    cuts = {q: statistics.median(c[q] for c in timed) for q in PERCENTILES}
    report["samples"] = sum(n for n, _ in cycles)
    report["cycles_timed"] = len(cycles)
    report["percentiles_reported"] = "median over cycles of the per-cycle p50, p90, p99"
    rss_kb = wl.peak_rss_kb if isinstance(wl, Cli) else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics.update(
        latency_p50_ms=cuts[50],
        latency_p90_ms=cuts[90],
        latency_p99_ms=cuts[99],
        ok_frac=1 - tally.failed / max(tally.attempted, 1),
        peak_rss_mb=rss_kb / 1024,
    )
    return metrics


def per_layer(args, lib, wl, meter: SpeedMeter, children: ChildClock, tally: Tally, digest: Digest,
              report: dict) -> dict[str, float]:
    from layers import cli_breakdown, ladder

    metrics: dict[str, float] = {}
    tracer = Tracer(meter.now, max_spans=20_000 if args.smoke else 200_000)
    traced_digest = Digest()
    if isinstance(wl, Gate):
        plain = run_gate(wl, meter, tally, digest)
        tracer.install()
        try:
            traced = run_gate(wl, meter, Tally(), traced_digest, tracer)
        finally:
            tracer.uninstall()
        for name in sorted(lib.suites.SUITE_BUILDERS):
            metrics[f"suites.{name}.wall_s"] = plain["times"].get(name, 0.0)
            metrics[f"suites.{name}.checks"] = plain["checks"].get(name, 0)
        t_plain, t_traced = sum(plain["times"].values()), sum(traced["times"].values())
        report["suite_call_census"] = traced["census"]
        census = gate_census(lib, wl.p)
    else:
        if isinstance(wl, Cli):
            wl = Cli(lib, args.smoke, in_process=True)
        cycles = 1 if args.smoke else wl.trace_cycles
        census = Census(lib)
        plain = run_cycles(wl, args.seed, meter, seconds=0, min_cycles=cycles, tally=tally, digest=digest,
                           census=census, witness=Witness(lib))
        tracer.install()
        try:
            traced = run_cycles(wl, args.seed, meter, seconds=0, min_cycles=cycles, tally=Tally(), digest=traced_digest,
                                tracer=tracer)
        finally:
            tracer.uninstall()
        for name in sorted(lib.suites.SUITE_BUILDERS):
            metrics[f"suites.{name}.wall_s"] = 0.0
            metrics[f"suites.{name}.checks"] = 0
        t_plain, t_traced = sum(plain["cycle_ns"]) / 1e9, sum(traced["cycle_ns"]) / 1e9
    if traced_digest.hexdigest() != digest.hexdigest():
        tally.record("traced outputs differ from untraced outputs")
    for module in LIBRARY_MODULES:
        metrics[f"{module}.calls"], metrics[f"{module}.self_s"] = tracer.module_stats(module)
    for name in HOT_FUNCTIONS:
        metrics[f"{name}.calls"], metrics[f"{name}.self_s"] = tracer.function_stats(name)
    metrics["caps.kac_composition.yield"] = tracer.kac_factors / tracer.kac_cap_calls if tracer.kac_cap_calls else 0.0
    metrics["caps.kac_composition.pset_calls"] = tracer.kac_pset_calls
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1
    metrics.update(census.metrics())
    report["census"] = census.summary()
    OUT.mkdir(exist_ok=True)
    report["spans_written"] = tracer.write(OUT / f"spans-{args.workload}.tsv")
    report["spans_total"] = tracer.next_span
    ladder_metrics, skipped = ladder(lib, meter, args.smoke)
    metrics.update(ladder_metrics)
    report["ladder_skipped"] = skipped
    metrics.update(cli_breakdown(str(SRC), children, 1 if args.smoke else 5))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    pin_to_one_cpu()
    meter = SpeedMeter()
    meter.start()
    try:
        return run(args, meter, nproc)
    finally:
        meter.stop()


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the speed meter samples."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass


def run(args, meter: SpeedMeter, nproc: int) -> int:
    try:
        spec = load_spec()
        lib = load_library()
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        children = ChildClock()
        setup = measure_setup(args.workload, args.smoke, children)
        wl = WORKLOADS[args.workload](lib, args.smoke)
        wl.warm_up()
        tally, digest = Tally(), Digest()
        report: dict = {"env": env_stamp(args.seed, args.workload, args.trace, nproc), "setup_samples_s": setup}
        if args.trace:
            metrics = per_layer(args, lib, wl, meter, children, tally, digest, report)
        else:
            metrics = end_to_end(args, lib, wl, meter, children, tally, digest, report)
            metrics["setup_s"] = statistics.median(setup)
        missing = [name for name in wanted if name not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report.update(speed={**meter.summary(), **children.summary()}, digest=digest.hexdigest(), digest_records=digest.records,
                  attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / max(tally.attempted, 1),
                  failure_reasons=dict(tally.reasons.most_common(10)),
                  metrics={name: metrics[name] for name in wanted},
                  extra_metrics={k: v for k, v in metrics.items() if k not in wanted})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    for key in ("env", "speed", "census", "setup_samples_s", "samples", "cycles_timed", "percentiles_reported",
                "suite_checks", "suite_call_census", "ladder_skipped", "spans_written",
                "spans_total", "digest", "digest_records", "failed_frac", "failure_reasons"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    for name in wanted:
        print(f"{name} = {metrics[name]} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
