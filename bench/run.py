"""Benchmark of `proofplan eval`: throughput and latency on seeded theories.

Usage (from the repository root):

    python3 bench/run.py --workload stub-small --seed 1 --seconds 55 --trace 0

Each run generates its dataset from the seed, then calls `proofplan.cli.main(["eval", ...])`
in-process, pass after pass, until `--seconds` have been measured. Every pass
is checked against the planted gold labels and against the first pass (the
traces file must be byte-identical, the report identical except for
`duration_s`). With `--trace 0` the last line of standard output reports the
end-to-end metrics; with `--trace 1`, traced and untraced passes alternate and
it reports the per-layer metrics and the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import theories as gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
WARMUP_INSTANCES = 5
# Both workloads run the solver stub on one worker: the layers measured are
# the engine's own, and one worker keeps the pass times free of GIL contention.
BACKEND = "solver-stub"
CONCURRENCY = 1


class OracleMismatch(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    instances: int


SMALL = gen.Shape(constants=(3, 6), depth=(0, 5), rules=(6, 14), base_predicates=(2, 4),
                  binary=0.0, fact_share=0.5, negation_free=0.3)
DEEP = gen.Shape(constants=(10, 10), depth=(4, 12), rules=(8, 12), base_predicates=(3, 5),
                 binary=0.3, fact_share=0.3, negation_free=0.2)

# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "stub-small": Workload(SMALL, 150),
    "stub-deep": Workload(DEEP, 100),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "single pass"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4g}..{q3:.4g}"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def write_inputs(directory: Path, theories: list[gen.Theory], prove: bool) -> None:
    directory.mkdir(parents=True)
    gen.write_dataset(directory / "dataset.json", theories)
    gen.write_dataset(directory / "warmup.json", theories[:WARMUP_INSTANCES])
    if prove:
        gen.write_premise_files(directory / "prove", theories)


def cold_import() -> None:
    """Import the package in a fresh interpreter, as each CLI invocation does."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import proofplan.cli"], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)


def eval_argv(seed: int, dataset: str, out: bool) -> list[str]:
    argv = ["eval", dataset, "--backend", BACKEND, "--concurrency", str(CONCURRENCY), "--seed", str(seed)]
    if out:
        argv += ["--out", "report.json", "--traces", "traces.jsonl"]
    return argv


def call_main(argv: list[str]) -> tuple[int, str]:
    from proofplan import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def set_up(workload: Workload, name: str, seed: int, inputs: Path, prove: bool) -> tuple[list[gen.Theory], list[float]]:
    """Generate, write, import and warm up, several times; returns the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        os.chdir(ROOT)
        shutil.rmtree(inputs, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        theories = gen.generate(workload.shape, name, seed, workload.instances)
        write_inputs(inputs, theories, prove)
        cold_import()
        os.chdir(inputs)
        code, _ = call_main(eval_argv(seed, "warmup.json", out=False))
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up eval exited with {code}")
    return theories, times


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    seconds: float
    durations: dict[str, float]  # instance id -> duration_s from the report
    failures: int
    problems: list[str]


class Checker:
    """Gold labels plus the first pass's outputs, which later passes must repeat."""

    def __init__(self, theories: list[gen.Theory]):
        self.gold = {t.id: t.gold for t in theories}
        self.traces_digest: str | None = None
        self.report: dict | None = None

    def check(self, code: int, seconds: float) -> Pass:
        problems = []
        if code != 0:
            problems.append(f"eval exited with {code}")
        traces = Path("traces.jsonl").read_bytes()
        report = json.loads(Path("report.json").read_text(encoding="utf-8"))
        records = report["records"]
        if sorted(r["id"] for r in records) != sorted(self.gold):
            problems.append("report does not hold exactly the dataset's instances")
        failures = sum(1 for r in records if r["predicted"] != self.gold.get(r["id"]))
        durations = {r["id"]: r.pop("duration_s") for r in records}
        digest = hashlib.sha256(traces).hexdigest()
        if self.traces_digest is None:
            self.traces_digest, self.report = digest, report
        else:
            if digest != self.traces_digest:
                problems.append("traces file differs from the first pass")
            if report != self.report:
                problems.append("report differs from the first pass beyond duration_s")
        return Pass(seconds, durations, failures, problems)


def eval_pass(argv: list[str], checker: Checker) -> Pass:
    gc.collect()
    start = time.perf_counter()
    code, _ = call_main(argv)
    seconds = time.perf_counter() - start
    return checker.check(code, seconds)


# ---------------------------------------------------------------------------
# Traced passes
# ---------------------------------------------------------------------------


def traced_pass(tracer, argv: list[str], checker: Checker, theories: list[gen.Theory]) -> tuple[Pass, list[str]]:
    """One traced eval pass, then the `proofplan prove` probe on every instance."""
    gc.collect()
    tracer.install()
    try:
        tracer.phase = "eval"
        start = time.perf_counter()
        code, _ = call_main(argv)
        seconds = time.perf_counter() - start
        tracer.phase = "probe"
        problems = []
        for t in theories:
            with tracer.root("probe", t.id):
                code_p, out = call_main(["prove", f"prove/{t.id}.txt", "--question", gen.statement_text(t.question)])
            if code_p != 0 or out.split() != [t.gold]:
                problems.append(f"prove on {t.id} printed {out.strip()!r}, gold {t.gold}")
    finally:
        tracer.uninstall()
    result = checker.check(code, seconds)
    return result, problems


def oracle_check(tracer, theories: list[gen.Theory]) -> int:
    """brute_force_entails must agree with every planted label it can decide.

    T and F labels must match on every theory within the oracle's atom
    limit; U labels only on negation-free theories, where chaining is
    complete. Returns the number of theories checked; raises on a mismatch.
    """
    from proofplan import fol, solver, structured

    tracer.install()
    tracer.phase = "oracle"
    checked = 0
    try:
        for t in theories:
            with tracer.root("oracle", t.id):
                texts = [gen.statement_text(s) for s in t.statements]
                kb = solver.kb_from_repr(structured.build_repr([(x, x) for x in texts]))
                question = fol.parse_formula(gen.statement_text(t.question))
                try:
                    label = solver.brute_force_entails(kb, question)
                except solver.TooManyAtoms:
                    continue
            if t.gold in "TF" or t.negation_free:
                checked += 1
                if label != t.gold:
                    raise OracleMismatch(f"oracle says {label} on {t.id}, planted gold is {t.gold}")
    finally:
        tracer.uninstall()
    return checked


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))


def run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        theories, setup_times = set_up(workload, args.workload, args.seed, inputs, bool(args.trace))
        argv = eval_argv(args.seed, "dataset.json", out=True)
        checker = Checker(theories)
        n = len(theories)
        untraced: list[Pass] = []
        traced: list[Pass] = []
        problems: list[str] = []
        tracer = None
        pass_counts = []
        if args.trace:
            import spans

            tracer = spans.Tracer()
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline:
            untraced.append(eval_pass(argv, checker))
            if tracer is not None:
                mark = len(tracer.spans)
                result, probe_problems = traced_pass(tracer, argv, checker, theories)
                traced.append(result)
                problems += probe_problems
                recent = tracer.spans[mark:]
                pass_counts.append((spans.counts(recent, "eval"), spans.counts(recent, "probe")))
        checked = oracle_check(tracer, theories) if tracer is not None else 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    passes = untraced + traced
    for p in passes:
        problems += p.problems
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("per-layer counts differ between traced passes")
    attempted = n * len(passes)
    failed = sum(p.failures for p in passes)
    correct = failed == 0 and not problems

    print(f"workload {args.workload}, seed {args.seed}: {n} instances per pass, backend {BACKEND}, "
          f"concurrency {CONCURRENCY}; {len(untraced)} untraced and {len(traced)} traced passes")
    print(f"  failure_rate {failed}/{attempted} = {failed / attempted:.4f} (predicted label vs planted gold)")
    report_digest = hashlib.sha256(json.dumps(checker.report, sort_keys=True).encode()).hexdigest()
    print(f"  traces sha256 {checker.traces_digest}; report without duration_s sha256 {report_digest}")
    for problem in problems[:10]:
        print(f"  problem: {problem}")

    if not args.trace:
        ips = [n / p.seconds for p in untraced]
        p50 = [statistics.median(p.durations.values()) for p in untraced]
        p90 = [percentile(list(p.durations.values()), 0.9) for p in untraced]
        print(f"  throughput_ips: median of {len(ips)} passes, {quartiles(ips)}")
        print(f"  latency_p50_ms / latency_p90_ms: per pass over {n} instances ({n - math.ceil(0.9 * n)} samples "
              f"beyond p90), median of {len(p50)} passes; p50 {quartiles(p50)} s, p90 {quartiles(p90)} s")
        print(f"  setup_s: median of {len(setup_times)} set-ups, {quartiles(setup_times)}")
        metrics = {
            "throughput_ips": (statistics.median(ips), "1/s"),
            "latency_p50_ms": (statistics.median(p50) * 1000.0, "ms"),
            "latency_p90_ms": (statistics.median(p90) * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        emit(correct, attempted, failed, metrics)
        return 0

    if tracer.missing:
        print(f"  not traced (absent from the package): {', '.join(tracer.missing)}")
    print(f"  oracle cross-check: {checked} of {n} theories within the atom limit agree with the gold labels")
    eval_totals = spans.totals(tracer.spans, "eval")
    metrics = spans.layer_metrics(
        eval_totals, n * len(traced),
        spans.totals(tracer.spans, "probe"), n * len(traced),
        spans.totals(tracer.spans, "oracle"), n,
    )
    plain = statistics.median(p.seconds for p in untraced)
    with_spans = statistics.median(p.seconds for p in traced)
    metrics["tracing.overhead"] = (with_spans / plain - 1.0, "ratio")
    metrics["tracing.spans"] = (sum(t.calls for t in eval_totals.values()) / (n * len(traced)), "count")
    counts_digest = hashlib.sha256(repr(pass_counts[0]).encode()).hexdigest()
    print(f"  per-layer counts sha256 {counts_digest}")
    print(f"  tracing overhead: traced pass {with_spans:.3f} s vs untraced {plain:.3f} s (medians)")
    emit(correct, attempted, failed, metrics)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "proofplan" / "__init__.py").is_file():
        print(f"error: no proofplan sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except OracleMismatch as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
