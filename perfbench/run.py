"""Closed-loop benchmark of the ``qnt`` command line.

    python3 perfbench/run.py --workload ratio-grid|etch-tree|loss-memory \
        --seed N --seconds S --trace 0|1

One client in one thread calls ``qnt.cli.main`` in-process, one grid cell
or one etching sweep per operation; each operation starts when the
previous one has finished.  Inputs (command lines and ``.topo`` files)
come from ``--seed`` alone.  Every operation's CSV is checked, and one
operation is replayed and must match byte for byte apart from
``runtime_ms``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  Only figures are kept per operation, not CSVs, so the benchmark's
own memory does not grow with the program's speed.  ``setup_s`` is the
median over SETUP_REPEATS fresh interpreters (this script with
``--setup-only``), each timed from its start through imports, input
generation and warm-up, so a first-call cost shows in it.  ``--trace 1`` runs the workload's fixed first ``trace_ops``
operations twice, untraced and then traced, and reports the per-layer
metrics, so that their counts repeat exactly for a given seed; the spans
go to ``.perfbench-work/<workload>/trace.tsv``.  ``ratio-grid`` then runs its
degenerate probe, the cells left out of its pool because they may raise
``EstimationError``, and reports how many did.

Only the benchmark's own processes are timed: no cache dropping, no CPU
pinning, no system-wide tracing.  The last line of standard output is the result as
one JSON object; the lines before it repeat every metric with its unit and
sample count, and the environment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from workloads import (DEGENERATE_RISK, WORKLOADS, BenchmarkError, CheckFailure, blank_runtime,
                       check_csv)

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".perfbench-work")  # relative to ROOT, so CSV headers do not name the checkout
SETUP_REPEATS = 5  # fresh interpreters whose median set-up time is setup_s
BLOCK = 100  # consecutive completed operations per block of op_p50_ms and op_tail_ms
TAIL_BEYOND = 10  # samples that must lie above a block's tail percentile
ROADMAP_STAR_CELL_MS = 56.0  # re-anchor baseline: one 1000-trial star cell
SCOPE_NOTE = ("only the benchmark's own processes are timed: no cache dropping, no CPU pinning, "
              "no system-wide tracing; one client, closed loop, one thread, so no layer waits "
              "on another")


def import_qnt():
    """Import ``qnt`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qnt.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qnt from {src}: {exc}")
    if Path(qnt.__file__).resolve().parent != src / "qnt":
        raise SystemExit(f"perfbench: qnt imported from {qnt.__file__}, not from {src}")
    return qnt


@dataclass
class Outcome:
    latency_s: float
    csv: Optional[str] = None  # runtime-blanked CSV of a completed run
    error: Optional[str] = None  # type of the exception the run raised
    check: Optional[str] = None  # the output check it failed

    @property
    def ok(self) -> bool:
        return self.error is None and self.check is None

    def digest_text(self) -> str:
        return self.csv if self.error is None else f"error {self.error}\n"


def run_op(cli, op) -> Outcome:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(list(op.argv))
    except Exception as exc:  # a failing operation is counted, and the loop goes on
        return Outcome(time.perf_counter() - start, error=type(exc).__name__)
    latency = time.perf_counter() - start
    text = buf.getvalue()
    try:
        check_csv(op, text)
    except CheckFailure as exc:
        return Outcome(latency, blank_runtime(text), check=str(exc))
    return Outcome(latency, blank_runtime(text))


def set_up(qnt, workload, seed: int) -> list:
    """Generate the inputs and run the warm-up operations; return the pool."""
    pool = workload.build(random.Random(f"{workload.name}:{seed}"), WORK_DIR / workload.name)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workload.warmup:
            qnt.cli.main(list(argv))
    return pool


def cold_setup_seconds(args) -> list[float]:
    """Wall times of fresh interpreters, each from its start to where its first timed
    operation would begin: start-up, imports, input generation and warm-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()  # CLOCK_MONOTONIC, which the child reads too
        proc = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def blocks(latencies) -> list[list[float]]:
    """``len // BLOCK`` (at least 1) equal blocks of consecutive latencies, each sorted."""
    count = max(1, len(latencies) // BLOCK)
    size = len(latencies) / count
    return [sorted(latencies[round(b * size):round((b + 1) * size)]) for b in range(count)]


def p50(latencies) -> float:
    """The mean over blocks of each block's median.

    The machine switches between a fast and a slow speed for seconds at a time.
    A median over the whole run jumps from one speed to the other with the state
    that held most of the run; the mean of block medians moves in proportion to
    the share of the run spent in each."""
    return statistics.fmean(statistics.median(block) for block in blocks(latencies))


def tail(latencies) -> float:
    """The median over blocks of each block's p90, nearest rank, which has at least
    TAIL_BEYOND samples beyond it (in a block under BLOCK, the value with TAIL_BEYOND
    beyond, or the maximum of a block that short).

    A fixed percentile compares like with like when the program's speed changes the
    sample count, and the median keeps a burst of slowness in one block out of it."""
    values = []
    for block in blocks(latencies):
        n = len(block)
        rank = min(math.ceil(0.9 * n), n - TAIL_BEYOND) if n > TAIL_BEYOND else n
        values.append(block[rank - 1])
    return statistics.median(values)


def output_digest(outcomes: list[Outcome]) -> str:
    sha = hashlib.sha256()
    for outcome in outcomes:
        sha.update(outcome.digest_text().encode("utf-8"))
    return sha.hexdigest()


def git_hash() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "git": git_hash(),
        "scope": SCOPE_NOTE,
    }


@dataclass
class Measurement:
    """What the closed loop keeps: figures per completed operation, not their CSVs,
    so that the benchmark's own memory does not grow with the program's speed."""

    latencies_ms: array  # completed operations, in order
    star_ms: array  # completed star cells
    estimates: int
    attempted: int
    errors: Counter  # exception type, or CheckFailure -> failed operations
    window_s: float
    digest: str
    replay_ok: bool
    checks_ok: bool


def measure(qnt, pool, seconds: float, digest_ops: int) -> Measurement:
    """The closed loop: run operations from the pool until ``seconds`` have passed."""
    latencies, star, errors = array("d"), array("d"), Counter()
    estimates = attempted = 0
    digest = hashlib.sha256()
    first_ok = None  # (op, runtime-blanked CSV) of the first operation that did not raise
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = pool[attempted % len(pool)]
        outcome = run_op(qnt.cli, op)
        if attempted < digest_ops:
            digest.update(outcome.digest_text().encode("utf-8"))
        attempted += 1
        if first_ok is None and outcome.error is None:
            first_ok = (op, outcome.csv)
        if outcome.ok:
            latencies.append(outcome.latency_s * 1e3)
            estimates += op.estimates
            if op.argv[0] == "star":
                star.append(outcome.latency_s * 1e3)
        else:
            errors[outcome.error or "CheckFailure"] += 1
    window = time.perf_counter() - start
    replay_ok = first_ok is None or run_op(qnt.cli, first_ok[0]).csv == first_ok[1]
    return Measurement(latencies, star, estimates, attempted, errors, window, digest.hexdigest(),
                       replay_ok, "CheckFailure" not in errors)


def end_to_end(workload, pool, seconds, qnt, setup_times) -> tuple[dict, list]:
    m = measure(qnt, pool, seconds, workload.trace_ops)
    done = len(m.latencies_ms)
    if not done:
        raise SystemExit(f"perfbench: none of {m.attempted} operations completed")
    block_count = len(blocks(m.latencies_ms))
    failed = m.attempted - done
    setup_s = statistics.median(setup_times)
    metrics = {
        "estimates_per_s": (m.estimates / m.window_s, "1/s"),
        "op_p50_ms": (p50(m.latencies_ms), "ms"),
        "op_tail_ms": (tail(m.latencies_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"estimates_per_s counts {m.estimates} estimates from {done} completed operations "
        f"in a {m.window_s:.3f} s window",
        f"op_p50_ms and op_tail_ms: n={done} completed operations in {block_count} blocks of "
        f"about {done / block_count:.0f} consecutive operations; op_p50_ms is the mean of the "
        f"block medians (median of all {statistics.median(m.latencies_ms):.4f} ms), op_tail_ms "
        f"the median of the block p90s, each with at least {TAIL_BEYOND} samples beyond it in "
        f"its block",
        f"failed_op_frac {failed / m.attempted:.6f} frac ({failed} of {m.attempted} attempted; "
        f"errors {dict(sorted(m.errors.items()))})",
        f"setup_s is the median of {len(setup_times)} fresh interpreters, each timed from its "
        f"start through imports, input generation and warm-up: "
        + ", ".join(f"{t:.4f}" for t in setup_times) + " s",
        f"replay of the first completed operation identical: {m.replay_ok}",
        f"output_digest {m.digest} (first {min(m.attempted, workload.trace_ops)} operations, "
        f"runtime_ms blanked; information only)",
    ]
    if m.star_ms:
        notes.append(f"star cell p50 {statistics.median(m.star_ms):.1f} ms over {len(m.star_ms)} "
                     f"cells (re-anchor baseline {ROADMAP_STAR_CELL_MS:.0f} ms)")
    return ({"correct": m.replay_ok and m.checks_ok, "attempted": m.attempted, "failed": failed,
             "metrics": metrics}, notes)


ESTIMATORS = ("protocols.estimate_q_mergecast", "protocols.estimate_s", "protocols.estimate_m")
PIPELINE = ("protocols.unicast_prob", "protocols.mergecast_prob", "protocols.bypass_unicast_prob",
            "protocols.spam_s_protocol_prob", "protocols.spam_m_protocol_probs",
            "protocols.spam_ms_bypass_prob")


def degenerate_probe(workload, seed: int, qnt) -> tuple[int, int, bool]:
    """Run the workload's probe cells untraced: (cells, cells aborted by EstimationError,
    whether every other cell completed and passed its check)."""
    if workload.probe is None:
        return 0, 0, True
    outcomes = [run_op(qnt.cli, op)
                for op in workload.probe(random.Random(f"{workload.name}:{seed}:probe"))]
    aborted = sum(o.error == "EstimationError" for o in outcomes)
    return len(outcomes), aborted, aborted + sum(o.ok for o in outcomes) == len(outcomes)


def per_layer(workload, pool, seed: int, qnt) -> tuple[dict, list]:
    from tracing import Tracer

    ops = [pool[i % len(pool)] for i in range(workload.trace_ops)]
    start = time.perf_counter()
    plain = [run_op(qnt.cli, op) for op in ops]
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = []
        for op in ops:
            tracer.begin_op()
            traced.append(run_op(qnt.cli, op))
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    trace_path = WORK_DIR / workload.name / "trace.tsv"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    probe_cells, degenerate, probe_ok = degenerate_probe(workload, seed, qnt)

    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    pauli = [n for n in totals if n.startswith("pauli.")]
    merged = sum(m for m, _ in tracer.loss_counts)
    received = sum(r for _, r in tracer.loss_counts)
    estimates = sum(op.estimates for op, o in zip(ops, plain) if o.ok)
    estimates_traced = sum(op.estimates for op, o in zip(ops, traced) if o.ok)
    failed = sum(not o.ok for o in traced)
    if not estimates_traced:
        raise SystemExit(f"perfbench: none of {len(ops)} traced operations completed")
    metrics = {
        "stats.substream.calls": (calls("stats.substream"), "count"),
        "stats.substream.self_s": (self_s("stats.substream"), "s"),
        "protocols.sample_protocol.calls": (calls("protocols.sample_protocol"), "count"),
        "protocols.sample_protocol.self_s": (self_s("protocols.sample_protocol"), "s"),
        "protocols.estimate.calls": (calls(*ESTIMATORS), "count"),
        "protocols.estimate.self_s": (self_s(*ESTIMATORS), "s"),
        "protocols.estimate.degenerate": (degenerate, "count"),
        "protocols.pipeline.calls": (calls(*PIPELINE), "count"),
        "protocols.pipeline.self_s": (self_s(*PIPELINE), "s"),
        "protocols.run_progressive_etching.self_s": (
            self_s("protocols.run_progressive_etching"), "s"),
        "network.select_mergecast_branches.calls": (
            calls("network.select_mergecast_branches"), "count"),
        "network.select_mergecast_branches.self_s": (
            self_s("network.select_mergecast_branches"), "s"),
        "network.monitor_chain.calls": (calls("network.monitor_chain"), "count"),
        "network.monitor_chain.self_s": (self_s("network.monitor_chain"), "s"),
        "network.peripheral_edges.calls": (calls("network.peripheral_edges"), "count"),
        "network.peripheral_edges.self_s": (self_s("network.peripheral_edges"), "s"),
        "network.natural_key.calls": (calls("network.natural_key"), "count"),
        "network.natural_key.self_s": (self_s("network.natural_key"), "s"),
        "network.simplify_degree2.self_s": (self_s("network.simplify_degree2"), "s"),
        "topo_io.load_topology.self_s": (self_s("topo_io.load_topology"), "s"),
        "pauli.calls": (calls(*pauli), "count"),
        "pauli.self_s": (self_s(*pauli), "s"),
        "lossy.run_loss_experiment.self_s": (self_s("lossy.run_loss_experiment"), "s"),
        "lossy.decohere.calls": (calls("lossy.decohere"), "count"),
        "lossy.decohere.self_s": (self_s("lossy.decohere"), "s"),
        "lossy.decohere.distinct_dt": (sum(len(s) for s in tracer.decohere_dt), "count"),
        "lossy.merged": (merged, "count"),
        "lossy.received": (received, "count"),
        "lossy.received_per_merge": (received / merged if merged else 0.0, "frac"),
        "experiments.run_experiment.self_s": (self_s("experiments.run_experiment"), "s"),
        "experiments.rows_to_csv.self_s": (self_s("experiments.rows_to_csv"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "failed_op_frac": (failed / len(traced), "frac"),
        "trace_overhead_frac": ((estimates / plain_s) / (estimates_traced / traced_s) - 1.0,
                                "frac"),
    }
    same_output = [o.digest_text() for o in plain] == [o.digest_text() for o in traced]
    correct = same_output and probe_ok and all(o.check is None for o in plain + traced)
    notes = [
        f"traced the first {len(ops)} operations: untraced pass {plain_s:.3f} s, "
        f"traced pass {traced_s:.3f} s; {len(tracer.spans)} spans written to {trace_path}",
        f"traced outputs identical to untraced: {same_output}",
        f"protocols.estimate.degenerate: {degenerate} of {probe_cells} probe cells (N where a "
        f"zero denominator has a chance of at least {DEGENERATE_RISK:g} per cell; run untraced "
        f"after the traced pass, not counted as operations) raised EstimationError; the others "
        f"completed and passed their checks: {probe_ok}",
        f"output_digest {output_digest(plain)} (first {len(plain)} operations, runtime_ms blanked; "
        f"information only)",
        "self time per function (calls, s): " + json.dumps(
            {n: [c, round(s, 6)] for n, (c, s) in sorted(totals.items())}),
        "no wait time is recorded: every layer runs in the caller's thread with no queue",
    ]
    return ({"correct": correct, "attempted": len(plain) + len(traced),
             "failed": sum(not o.ok for o in plain) + failed, "metrics": metrics}, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the monotonic clock and exit (one setup_s sample)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(ROOT)
    qnt = import_qnt()
    import numpy

    workload = WORKLOADS[args.workload]
    try:
        pool = set_up(qnt, workload, args.seed)
    except BenchmarkError as exc:
        raise SystemExit(f"perfbench: {exc}")
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    if args.trace:
        result, notes = per_layer(workload, pool, args.seed, qnt)
    else:
        result, notes = end_to_end(workload, pool, args.seconds, qnt, cold_setup_seconds(args))

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"why: {workload.why}")
    print("env " + json.dumps(environment(numpy.__version__), sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for note in notes:
        print(note)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
