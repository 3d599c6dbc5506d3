#!/usr/bin/env python3
"""weaksim benchmark: one workload per run, measured from outside the library.

Run from the repository root:

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

A run sets the workload up ``SETUP_REPS`` times (``setup_s`` is the median),
then spends half of ``--seconds`` asking library questions in-process and
half running the ``weaksim`` CLI, one child at a time.  Both are closed
loops with one caller that repeat the workload's mix in whole cycles after
one warm-up cycle.  Every answer is checked.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.  The
lines before it give the same figures for people, with sample counts.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 5
# Tails are fixed percentiles, so they stay comparable between commits; the
# minimum sample counts leave at least 10 samples beyond each.
LIB_MIN, LIB_TAIL = 50, 0.8
CLI_MIN, CLI_TAIL = 30, 2 / 3
# A phase stops at this multiple of its budget even below its minimum count,
# so a badly regressed commit still finishes in time.
PHASE_CAP = 4
CLI_TIMEOUT_S = 60
# The speed of the shared machines this runs on swings by a quarter within
# seconds (see README.md, "Machine speed").  Every timed operation is
# therefore bracketed by two runs of a fixed reference, and its time is
# reported in reference-speed seconds: raw seconds times nominal over the
# mean of the two reference times.  A commit cannot change the references,
# so a slower commit still reads slower; a slower machine mostly does not.
LIB_REFERENCE_S = 0.015  # nominal time of reference_task()
CLI_REFERENCE_S = 0.06  # nominal time of a `python -c pass` child

LAYER_FUNCTIONS = {
    "formats": ["load_space", "save_space", "load_table", "morphism_to_json"],
    "spaces": ["new_space", "distance_set", "rank_matrix", "is_metric", "is_ultrametric", "coincreasing"],
    "morphisms": ["find_weak_similarity", "enumerate_weak_similarities", "verify"],
    "transforms": ["snowflake", "apply_function", "check_generalized_subadditivity", "hull_eval"],
    "families": ["random_metric", "random_ultrametric", "derive_partner", "example_2_6", "example_2_6_star"],
}
LAYER_COUNTS = ["morphisms.solutions", "morphisms.no_morphism", "transforms.recursion_failures"]


def reference_task():
    """Fixed Fraction sums and comparisons in the style of the library,
    independent of weaksim; its time tracks the speed of the machine."""
    values = [Fraction(k % 13 + 1, k % 7 + 1) for k in range(48)]
    below = 0
    for _ in range(2):
        for a in values:
            for b in values:
                below += a + b < 3
    return below


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def pass_child(wd, env):
    """Start and wait for a `python -c pass` child; its time tracks how fast
    the machine starts interpreters."""
    return timed(subprocess.run, [sys.executable, "-c", "pass"], cwd=wd, env=env, check=True)


class Bracket:
    """Reference-speed seconds.  The reference runs before and after each
    timed operation, and the operation's seconds are scaled by the nominal
    reference time over the mean of those two runs."""

    def __init__(self, reference, nominal):
        self.reference, self.nominal = reference, nominal
        self.times = [reference()]

    def restart(self):
        """Time a fresh reference after untimed work, such as a garbage
        collection, that must not count as the next operation's 'before'."""
        self.times.append(self.reference())

    def scale(self, seconds):
        """Time the reference once more; return seconds at reference speed."""
        self.times.append(self.reference())
        return seconds * 2 * self.nominal / (self.times[-2] + self.times[-1])

    def speed(self):
        """Nominal over median reference time: above 1 on a faster machine."""
        return self.nominal / statistics.median(self.times)


def percentile(samples, q):
    """Nearest-rank percentile; ``math.inf`` marks a failed operation."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def central_mean(values):
    """Mean of the middle half of the values: it averages over the copies of
    an instance like a mean, and ignores outliers like a median."""
    ordered = sorted(values)
    middle = ordered[len(ordered) // 4 : len(ordered) - len(ordered) // 4]
    return sum(middle) / len(middle)


def typical(pairs):
    """Each (kind, seconds) sample replaced by the central mean of its kind.
    A percentile over these picks the typical time of one kind of operation
    rather than one noisy sample, so it does not jump where the times of two
    kinds meet."""
    kinds: dict = {}
    for kind, seconds in pairs:
        kinds.setdefault(kind, []).append(seconds)
    means = {kind: central_mean(values) for kind, values in kinds.items()}
    return [means[kind] for kind, _ in pairs]


class Tally:
    """Attempts, failures and wrong answers across both phases."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    def record(self, kind, outcome):
        """outcome is None for a correct answer, else (is_wrong, reason)."""
        self.attempted += 1
        if outcome is not None:
            wrong, reason = outcome
            self.failed += 1
            self.wrong += wrong
            self.reasons[f"{kind}: {reason}"] += 1


def setup_phase(workload, seed, wd, tr, bracket):
    """Build the instances SETUP_REPS times; return them, the (scaled, raw)
    times and the file digests, which must agree between repetitions."""
    times, digests = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(wd, ignore_errors=True)
        os.makedirs(wd)
        gc.collect()  # start each set-up with no garbage left by the last
        bracket.restart()
        start = time.perf_counter()
        instances = workload.setup(seed, wd, tr)
        raw = time.perf_counter() - start
        times.append((bracket.scale(raw), raw))
        digests.append(
            {name: _digest(os.path.join(wd, name)) for name in sorted(os.listdir(wd))}
        )
    return instances, times, digests


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def ask(question, tr):
    """Time one question; return (seconds, answer, exception)."""
    start = time.perf_counter()
    try:
        answer = question.ask(tr)
    except Exception as exc:  # a failed question is counted, not fatal
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, answer, None


def judge(question, answer, exc):
    """None for a correct answer, else (is_wrong, reason) as Tally.record takes it."""
    if exc is not None:
        return False, type(exc).__name__
    return None if _holds(question.check, answer) else (True, "wrong answer")


def _holds(check, answer) -> bool:
    """A check that trips over a malformed answer counts as a wrong answer."""
    try:
        return bool(check(answer))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        return False


def library_phase(questions, budget, tally, tracer, null, bracket):
    """Closed loop over whole cycles of the mix.  With a recording tracer,
    even cycles are traced and odd ones not, to measure tracing overhead.
    Returns the (kind, scaled, raw) samples, the scaled seconds of each
    cycle keyed by whether the cycle was traced, and the phase's wall time."""
    for q in questions:  # warm-up cycle: checked, not counted
        outcome = judge(q, *ask(q, null)[1:])
        if outcome and outcome[0]:
            tally.wrong += 1
            tally.reasons[f"{q.kind}: wrong answer in warm-up"] += 1
    # The instances, expected answers and check caches live until the run
    # ends.  Frozen, they are not rescanned by every full collection that
    # falls inside a question, which would charge the library for the
    # benchmark's own heap at points that vary from run to run.
    gc.collect()
    gc.freeze()
    samples, busy = [], {True: [], False: []}
    start = time.perf_counter()
    cycle = 0
    while True:
        tr = tracer if tracer is not null and cycle % 2 == 0 else null
        gc.collect()  # each cycle starts with no garbage left by the last
        bracket.restart()
        cycle_busy = 0.0
        for qi, q in enumerate(questions):
            with tr.question((cycle, qi)):
                seconds, answer, exc = ask(q, tr)
            scaled = bracket.scale(seconds)
            outcome = judge(q, answer, exc)
            cycle_busy += scaled
            tally.record(q.kind, outcome)
            if outcome is not None:
                scaled = seconds = math.inf
            samples.append((q.kind, scaled, seconds))
        busy[tr is not null].append(cycle_busy)
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycle < 2:
            continue
        if (elapsed >= budget and len(samples) >= LIB_MIN) or elapsed >= PHASE_CAP * budget:
            return samples, busy, elapsed


def known_defects(questions, tracer):
    """Ask each question that a known defect makes fail once, untimed and
    outside the attempted count, and say whether it still fails.  The
    recording tracer counts the failure (transforms.recursion_failures)."""
    for q in questions:
        outcome = judge(q, *ask(q, tracer)[1:])
        state = f"still fails ({outcome[1]})" if outcome else "answers correctly now"
        print(f"known defect {q.kind}: {state}")


def cli_phase(runs, budget, wd, tally):
    """Closed loop of CLI children, one at a time, over whole cycles, each
    bracketed by `python -c pass` children.  Returns the (kind, scaled, raw)
    samples, the handler and overhead times, the exit-code mismatches, the
    phase's wall time and the bracket."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "weaksim"]
    subprocess.run(command + ["--version"], cwd=wd, env=env, capture_output=True, check=True)
    bracket = Bracket(lambda: pass_child(wd, env), CLI_REFERENCE_S)
    walls, handlers, overheads = [], [], []
    reports: dict = {}
    exit_mismatch = 0
    start = time.perf_counter()
    while True:
        for run in runs:
            kind = run.kind or " ".join(run.argv)
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    command + run.argv,
                    cwd=wd,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                tally.record(kind, (False, "timeout"))
                walls.append((kind, math.inf, math.inf))
                bracket.restart()
                continue
            wall = time.perf_counter() - t0
            scaled = bracket.scale(wall)
            exit_mismatch += proc.returncode != run.exit_code
            outcome = judge_cli(run, proc, reports)
            tally.record(kind, outcome)
            if outcome is not None:
                scaled = wall = math.inf
            walls.append((kind, scaled, wall))
            if outcome is None:
                handler = json.loads(proc.stdout)["timing"]["seconds"]
                handlers.append(handler)
                overheads.append(wall - handler)
        elapsed = time.perf_counter() - start
        if (elapsed >= budget and len(walls) >= CLI_MIN) or elapsed >= PHASE_CAP * budget:
            return walls, handlers, overheads, exit_mismatch, elapsed, bracket


def judge_cli(run, proc, reports):
    """None for a correct run, else (is_wrong, reason)."""
    if "Traceback (most recent call last)" in proc.stderr:
        return False, f"traceback, exit {proc.returncode}"
    try:
        envelope = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return False, f"no envelope, exit {proc.returncode}"
    if proc.returncode != run.exit_code:
        return True, f"exit {proc.returncode}, expected {run.exit_code}"
    if proc.stderr != run.stderr:
        return True, "unexpected stderr"
    report = json.dumps(envelope["report"], sort_keys=True)
    if reports.setdefault(tuple(run.argv), report) != report:
        return True, "report differs between repeats"
    if not _holds(run.check, envelope["report"].get("result")):
        return True, "wrong answer"
    return None


def peak_rss_mb():
    """Peak RSS of this process and of the largest CLI child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, child


def layer_metrics(tracer, cli_handlers, cli_overheads, exit_mismatch, busy):
    times = tracer.self_times()
    metrics = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            seconds, calls = times.get(f"{module}.{fn}", (0.0, 0))
            metrics[f"{module}.{fn}.busy_s"] = {"value": seconds, "unit": "s"}
            metrics[f"{module}.{fn}.calls"] = {"value": calls, "unit": "count"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    metrics["cli.handler_s"] = {"value": statistics.median(cli_handlers), "unit": "s"}
    metrics["cli.overhead_s"] = {"value": statistics.median(cli_overheads), "unit": "s"}
    metrics["cli.exit_mismatch"] = {"value": exit_mismatch, "unit": "count"}
    overhead = statistics.median(busy[True]) / statistics.median(busy[False]) - 1
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


def report_layers(tracer, busy):
    """Human-readable per-layer table for the question phase, busiest first."""
    question_times = tracer.self_times(questions_only=True)
    by_module = Counter()
    for name, (seconds, _) in question_times.items():
        by_module[name.split(".")[0]] += seconds
    total = sum(by_module.values())
    print(f"traced cycles {len(busy[True])}, untraced cycles {len(busy[False])}")
    print("question-phase self time by function:")
    for name, (seconds, calls) in sorted(question_times.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:48s} {seconds:9.4f} s {seconds / total:6.1%}  calls {calls}")
    module, seconds = by_module.most_common(1)[0]
    top = max(question_times.items(), key=lambda kv: kv[1][0])[0]
    print(f"dominant layer: {module} ({seconds / total:.1%}); dominant function: {top}")


def print_kinds(title, samples):
    """Median reference-speed seconds per question or CLI kind, for reading
    a run's mix."""
    kinds: dict = {}
    for kind, seconds, _ in samples:
        kinds.setdefault(kind, []).append(seconds)
    for kind, values in kinds.items():
        print(
            f"  {title} {kind}: median {statistics.median(values):.4f} s, "
            f"min {min(values):.4f} s, max {max(values):.4f} s, n {len(values)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weaksim", "__init__.py")):
        print(f"perfbench: no weaksim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    null = NullTracer()
    tracer = Tracer() if args.trace else null
    wd = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    tally = Tally()
    try:
        lib = Bracket(lambda: timed(reference_task), LIB_REFERENCE_S)
        instances, setup_times, digests = setup_phase(workload, args.seed, wd, tracer, lib)
        deterministic = all(d == digests[0] for d in digests)
        mix = workload.mix(instances, wd)
        samples, busy, lib_elapsed = library_phase(
            mix.questions, args.seconds / 2, tally, tracer, null, lib
        )
        known_defects(mix.known_defects, tracer)
        walls, handlers, overheads, exit_mismatch, cli_elapsed, cli = cli_phase(
            mix.cli, args.seconds / 2, wd, tally
        )
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    own_rss, child_rss = peak_rss_mb()
    for title, triples in (("question", samples), ("cli", walls)):
        print_kinds(title, triples)
    cycles = busy[True] + busy[False]

    def latency(triples, q, elapsed, column):
        # a percentile that falls on failed operations reads as the phase length
        value = percentile(typical([(t[0], t[column]) for t in triples]), q)
        return elapsed if value == math.inf else value

    print(
        f"workload {args.workload}, seed {args.seed}, python {platform.python_version()}, "
        f"nproc {os.cpu_count()}"
    )
    bundle = hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode()).hexdigest()
    print(f"phases: library {lib_elapsed:.2f} s, CLI {cli_elapsed:.2f} s")
    print(
        f"instances: {len(digests[0])} files, sha256 {bundle[:16]}, "
        f"identical across {SETUP_REPS} set-ups: {deterministic}"
    )
    for reason, n in sorted(tally.reasons.items()):
        print(f"failure x{n}: {reason}")
    correct = tally.wrong == 0 and deterministic

    if args.trace:
        report_layers(tracer, busy)
        metrics = layer_metrics(tracer, handlers, overheads, exit_mismatch, busy)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        # column 1 of a sample is reference-speed seconds, column 2 raw seconds
        values = {
            column: {
                "question_s.p50": latency(samples, 0.5, lib_elapsed, column),
                "question_s.tail": latency(samples, LIB_TAIL, lib_elapsed, column),
                "cli_wall_s.p50": latency(walls, 0.5, cli_elapsed, column),
                "cli_wall_s.tail": latency(walls, CLI_TAIL, cli_elapsed, column),
                "setup_s": statistics.median(t[column - 1] for t in setup_times),
            }
            for column in (1, 2)
        }
        metrics = {
            "questions_per_s": {
                # a typical cycle: each question takes its kind's typical time
                "value": len(samples) / sum(typical([(t[0], t[1]) for t in samples])),
                "unit": "1/s",
            }
        }
        metrics.update({name: {"value": v, "unit": "s"} for name, v in values[1].items()})
        metrics["peak_rss_mb"] = {"value": max(own_rss, child_rss), "unit": "MB"}
        metrics["ok_ratio"] = {"value": 1 - tally.failed / tally.attempted, "unit": "ratio"}
        print(
            f"machine speed over reference: library x{lib.speed():.4f} "
            f"(median of {len(lib.times)} reference tasks), CLI x{cli.speed():.4f} "
            f"(median of {len(cli.times)} `python -c pass` children)"
        )
        counts = {
            "questions_per_s": f"{len(cycles)} cycles of {len(mix.questions)}",
            "question_s.p50": f"n={len(samples)}",
            "question_s.tail": f"p{LIB_TAIL * 100:.0f}, n={len(samples)}",
            "cli_wall_s.p50": f"n={len(walls)}",
            "cli_wall_s.tail": f"p{CLI_TAIL * 100:.0f}, n={len(walls)}",
            "setup_s": f"median of {SETUP_REPS}",
            "peak_rss_mb": f"library process {own_rss:.1f}, largest CLI child {child_rss:.1f}",
            "ok_ratio": f"fail_ratio {tally.failed}/{tally.attempted} = "
            f"{tally.failed / tally.attempted:.4f}",
        }
        for name, raw in values[2].items():
            counts[name] += f", {raw:.6g} before scaling"
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']} ({counts[name]})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
