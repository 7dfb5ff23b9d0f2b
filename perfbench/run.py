"""End-to-end benchmark of ``repro.run()`` on the paper's workloads.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload qft16-sz --seed 1 --seconds 20 --trace 0

A closed loop: one caller, one ``repro.run()`` call at a time, from this
process.  ``--trace 0`` times untraced iterations and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and prints
the per-layer split, writing every span to ``perfbench/results/``.  Every
iteration's output is checked against the dense backend.  The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: run_s rests on repeated calls: single calls vary up to 10-20% on the
#: 2-CPU VM the bounds were set on.
MIN_ITERATIONS = 3
#: Set-up is measured this many times (this process plus fresh interpreters).
#: Single samples of qft16-sz-ranked2, whose warm-up call starts the rank
#: workers, ranged over 2x on the 2-CPU VM; a median of 7 damps that.
SETUP_SAMPLES = 7
#: Share by which a layer's span seconds may differ from the report's own
#: bucket for the same calls.  The report's timers also enclose some glue
#: (7-17% of the kernel bucket); the spans also see statevector reads.
BUCKET_TOLERANCE = 0.3
#: Stop starting iterations past this point, whatever MIN_ITERATIONS says.
HARD_LIMIT_S = 120.0


def timed_setup(name: str, seed: int):
    """Cold ``import repro``, input generation and one warm-up call.

    Must run before anything in this interpreter imports ``repro``.  The
    warm-up call is the same workload at a small register size: it loads
    every lazily imported module and code path the timed calls use.
    """

    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, seed)
    workloads.call(workloads.generate(workload, seed, warmup=True))
    return time.perf_counter() - start, workload, inputs


def probe_setup(name: str, seed: int) -> float:
    """:func:`timed_setup` in a fresh interpreter; returns its seconds.

    The probe runs in a process group of its own, so a probe that times
    out is killed together with any rank workers it started.
    """

    probe = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = probe.communicate(timeout=120)
    finally:
        if probe.poll() is None:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.wait()
    if probe.returncode:
        raise subprocess.CalledProcessError(probe.returncode, probe.args, stdout)
    return json.loads(stdout.strip().splitlines()[-1])["setup_s"]


def stop_helpers() -> None:
    """Stop the helper process ``multiprocessing`` started, and wait for it.

    The rank workers' shared memory starts a resource tracker process.  It
    would otherwise outlive this interpreter for a moment, until it reads
    end-of-file on its pipe; ``_stop`` closes that pipe and reaps it.
    """

    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _vm_hwm(pid: str) -> int:
    """Peak resident set size of *pid* in bytes (``VmHWM``), 0 if gone."""

    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


class PeakRss:
    """Peak RSS of this process plus its child processes, read from /proc.

    A thread polls the ``VmHWM`` of every live child (the rank workers)
    while the ``with`` block runs and keeps the largest sum seen; this
    process's own ``VmHWM`` is read at the end.  Shared pages count once
    per process that maps them.
    """

    INTERVAL_S = 0.5

    def __init__(self) -> None:
        self._children_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _children_hwm(self) -> int:
        me = str(os.getpid())
        total = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    ppid = stat.read().rsplit(")", 1)[1].split()[1]
            except (FileNotFoundError, ProcessLookupError, IndexError):
                continue
            if ppid == me:
                total += _vm_hwm(pid)
        return total

    def _poll(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._children_peak = max(self._children_peak, self._children_hwm())

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def bytes(self) -> int:
        return _vm_hwm("self") + self._children_peak


class Iteration:
    """One timed ``repro.run()`` call and the check of its output."""

    def __init__(self, seconds: float, results=None, outcome=None, root=None, error=None):
        self.seconds = seconds
        self.results = results
        self.outcome = outcome
        self.problems = [error] if error else list(outcome.problems)
        #: Index of the traced iteration's root span.
        self.root: int | None = root

    @property
    def ok(self) -> bool:
        return not self.problems


def iterate(workload, inputs, dense, recorder=None) -> Iteration:
    """Run and check one iteration; traced when a recorder is given."""

    import spans
    import workloads

    root = None
    start = time.perf_counter()
    try:
        if recorder is None:
            results = workloads.call(inputs)
            seconds = time.perf_counter() - start
        else:
            with spans.instrument(recorder):
                root = len(recorder.spans)
                begin = time.perf_counter()
                with recorder.span("run"):
                    results = workloads.call(inputs)
                seconds = time.perf_counter() - begin
        outcome = workloads.check(workload, inputs, results, dense)
    except Exception as exc:  # a failed call is a failed iteration, not a crash
        return Iteration(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    # Only traced iterations keep their results (for the report buckets);
    # holding every untraced call's statevectors would inflate peak_rss_mb.
    return Iteration(seconds, results if recorder else None, outcome, root)


def loop(seconds: float, step, min_steps: int) -> None:
    """Call *step* until *seconds* have passed and it ran *min_steps* times."""

    start = time.perf_counter()
    done = 0
    while True:
        step_start = time.perf_counter()
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_steps and elapsed >= seconds:
            return
        if elapsed + (time.perf_counter() - step_start) > HARD_LIMIT_S:
            return


def tail_percentile(samples: int) -> float | None:
    """Highest of p99.9/p99/p95/p90/p75 with >= 10 samples beyond it."""

    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        if samples * (1 - percentile / 100) >= 10:
            return percentile
    return None


def end_to_end(iterations, setup_samples, gates, peak_rss_bytes) -> dict:
    good = [it for it in iterations if it.ok]
    run_s = statistics.median(it.seconds for it in good)
    return {
        "run_s": (run_s, "s"),
        "gates_per_s": (gates / run_s, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_bytes / 1e6, "MB"),
        "state_bytes_peak": (max(it.outcome.state_bytes_peak for it in good), "B"),
        "compression_ratio_min": (min(it.outcome.compression_ratio_min for it in good), "ratio"),
        "fidelity": (min(it.outcome.fidelity for it in good), "1"),
        "fidelity_bound": (min(it.outcome.fidelity_bound for it in good), "1"),
    }


def _report_sum(results, field: str) -> float:
    return sum(result.report[field] or 0 for result in results)


def reconcile(totals: dict, results: list, in_workers: bool) -> list[str]:
    """Where one traced iteration's spans disagree with its reports.

    The spans are attached from outside the program, by rebinding functions
    and methods; a layer reached some other way (a dispatch table, a default
    argument, a closure) would silently read 0.  The report counts the same
    work from inside, so each layer the report shows working must have
    spans, and in the benchmark process the codec and kernel spans must
    match the report's calls and buckets.
    """

    def count(name):
        return totals.get(name, {}).get("count", 0)

    def seconds(name):
        return totals.get(name, {}).get("total_s", 0.0)

    report = {field: _report_sum(results, field) for field in (
        "fusion_gates_in", "tasks_executed", "cache_hits", "cache_misses",
        "compress_calls", "decompress_calls",
        "compression_seconds", "decompression_seconds", "computation_seconds",
    )}
    lookups = report["cache_hits"] + report["cache_misses"]
    # (span, work the report shows for it); statevector and sampling
    # decompress in the parent on every tier.
    expected = [
        ("session", len(results)),
        ("fusion", report["fusion_gates_in"]),
        ("plan", report["tasks_executed"]),
        ("apply", report["tasks_executed"]),
        ("sample", len(results)),
        ("decompress", len(results)),
    ]
    if not in_workers:
        expected += [
            ("cache", lookups),
            ("compress", report["compress_calls"]),
            ("kernel", report["computation_seconds"]),
        ]
    problems = [
        f"no {name} span, but the report shows {work:g} of its work"
        for name, work in expected
        if work and not count(name)
    ]
    if in_workers:
        return problems
    # Every task the cache does not answer runs one kernel call.
    for name, calls in (("cache", lookups), ("compress", report["compress_calls"]),
                        ("decompress", report["decompress_calls"]),
                        ("kernel", report["tasks_executed"] - report["cache_hits"])):
        if count(name) < calls:
            problems.append(f"{count(name)} {name} spans, fewer than the report's {calls} calls")
    for name, bucket in (("compress", "compression_seconds"),
                         ("decompress", "decompression_seconds"),
                         ("kernel", "computation_seconds")):
        if abs(seconds(name) - report[bucket]) > BUCKET_TOLERANCE * report[bucket]:
            problems.append(f"{name} spans {seconds(name):.4f} s, report {bucket} {report[bucket]:.4f} s")
    stages = sum(entry["total_s"] for name, entry in totals.items() if name.startswith("codec."))
    if report["compress_calls"] and not stages:
        problems.append("no codec stage span, but the report shows compress calls")
    return problems


def per_layer(iteration: Iteration, spans_list, untraced_s: float, in_workers: bool):
    """Per-layer metrics of one traced iteration: ``name -> (value, unit, source)``.

    Also returns the span totals and the summed duration of the top-level
    spans.

    *in_workers* marks a run whose block round trips happen in rank worker
    processes: spans cannot see inside them, so codec and kernel time comes
    from the report's buckets there.
    """

    import spans

    totals, root_s, top_level_s = spans.layer_totals(spans_list, iteration.root)
    results = iteration.results

    def span(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    report = {field: _report_sum(results, field) for field in (
        "fusion_gates_in", "fusion_gates_out", "cache_hits", "cache_misses",
        "compress_calls", "decompress_calls", "tasks_executed",
        "compression_seconds", "decompression_seconds", "computation_seconds",
    )}
    ranks = results[0].report["num_ranks"]
    block_bytes = results[0].report["block_amplitudes"] * 16
    rank_comm = [entry for result in results for entry in result.report["rank_comm"] or []]
    lookups = report["cache_hits"] + report["cache_misses"]
    worker_busy = (
        report["compression_seconds"] + report["decompression_seconds"] + report["computation_seconds"]
    ) / ranks

    if in_workers:
        codec = {
            "compress.s": (report["compression_seconds"], "s", "report (summed over ranks)"),
            "compress.mb_s": (
                report["compress_calls"] * block_bytes / 1e6 / report["compression_seconds"],
                "MB/s", "computed (report calls x block bytes / report seconds)"),
            "compress.bytes_out": (0, "B", "unavailable (rank workers)"),
            "decompress.s": (report["decompression_seconds"], "s", "report (summed over ranks)"),
            "decompress.mb_s": (
                report["decompress_calls"] * block_bytes / 1e6 / report["decompression_seconds"],
                "MB/s", "computed (report calls x block bytes / report seconds)"),
            "kernel.s": (report["computation_seconds"], "s", "report (summed over ranks)"),
            "kernel.calls": (report["tasks_executed"], "count", "report (block tasks)"),
            "kernel.bytes": (2 * report["decompress_calls"] * block_bytes, "B",
                             "computed (decompressed buffers read + written)"),
        }
    else:
        def mb_s(name, key):
            seconds = span(name)
            return span(name, key) / 1e6 / seconds if seconds else 0.0

        codec = {
            "compress.s": (span("compress"), "s", "span"),
            "compress.mb_s": (mb_s("compress", "bytes_in"), "MB/s", "computed (span bytes in / span seconds)"),
            "compress.bytes_out": (span("compress", "bytes_out"), "B", "span"),
            "decompress.s": (span("decompress"), "s", "span"),
            "decompress.mb_s": (mb_s("decompress", "bytes_out"), "MB/s", "computed (span bytes out / span seconds)"),
            "kernel.s": (span("kernel"), "s", "span"),
            "kernel.calls": (span("kernel", "count"), "count", "span"),
            "kernel.bytes": (span("kernel", "bytes_in") + span("kernel", "bytes_out"), "B",
                             "computed (buffer sizes, read + written)"),
        }

    metrics = {
        "fusion.s": (span("fusion"), "s", "span"),
        "fusion.gates_in": (report["fusion_gates_in"], "count", "report"),
        "fusion.gates_out": (report["fusion_gates_out"], "count", "report"),
        "plan.s": (span("plan"), "s", "span"),
        "plan.calls": (span("plan", "count"), "count", "span"),
        "plan.tasks": (span("plan", "bytes_out"), "count", "span (tasks in returned plans)"),
        "cache.s": (span("cache"), "s", "span (parent process)"),
        "cache.hits": (report["cache_hits"], "count", "report"),
        "cache.misses": (report["cache_misses"], "count", "report"),
        "cache.hit_ratio": (report["cache_hits"] / lookups if lookups else 0.0, "ratio", "computed"),
        "compress.self_s": (span("compress", "self_s"), "s", "span (parent process)"),
        "compress.calls": (report["compress_calls"], "count", "report"),
        "decompress.calls": (report["decompress_calls"], "count", "report"),
        **codec,
        "codec.lossless_s": (span("codec.lossless"), "s", "span (parent process)"),
        "codec.unlossless_s": (span("codec.unlossless"), "s", "span (parent process)"),
        "codec.quantize_s": (span("codec.quantize"), "s", "span (parent process)"),
        "codec.huffman_encode_s": (span("codec.huffman_encode"), "s", "span (parent process)"),
        "codec.huffman_decode_s": (span("codec.huffman_decode"), "s", "span (parent process)"),
        "codec.bitpack_s": (span("codec.bitpack"), "s", "span (parent process)"),
        "codec.xor_pack_s": (span("codec.xor_pack"), "s", "span (parent process)"),
        "codec.xor_unpack_s": (span("codec.xor_unpack"), "s", "span (parent process)"),
        # Each rank counts a pairwise exchange at its end: halve the sum.
        "exchange.count": (sum(e["exchanges"] for e in rank_comm) // 2, "count", "report (rank_comm, summed / 2)"),
        "exchange.bytes": (sum(e["bytes_sent"] for e in rank_comm), "B", "report (rank_comm, summed)"),
        "exchange.s": (sum(e["exchange_seconds"] for e in rank_comm), "s", "report (rank_comm, summed)"),
        "tier.worker_busy_s": (worker_busy, "s", "computed (report codec + kernel seconds / ranks)"),
        "tier.overhead_s": (span("apply") - worker_busy, "s", "computed (apply span - tier.worker_busy_s)"),
        "session.s": (span("session"), "s", "span"),
        "observables.s": (span("observables"), "s", "span"),
        "sample.s": (span("sample"), "s", "span"),
        "report.unaccounted_s": (root_s - top_level_s, "s", "computed (run span - top-level spans)"),
        "trace.overhead": (iteration.seconds / untraced_s - 1.0, "ratio", "computed (traced / untraced run_s - 1)"),
    }
    return metrics, totals, top_level_s


def write_trace(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def settle_allocator() -> None:
    """Raise glibc's mmap threshold the way a process's first call does.

    glibc serves large blocks with mmap until the first large free raises
    its threshold.  Until then each block-sized temporary is mapped and
    unmapped again: a process's first full-size call takes ~600k minor
    faults and ~15% longer on qft16-sz, and no later call does.  Freeing
    one 30 MiB buffer (under glibc's 32 MiB cap) puts the allocator in the
    state every later call sees; forked rank workers inherit it.
    """

    import numpy as np

    buffer = np.empty(4_000_000)
    del buffer


def run_trace(args, workload, inputs, dense) -> tuple[list, dict, bool]:
    """Alternate untraced and traced calls; per-layer metrics of the traced ones."""

    import spans

    recorder = spans.Recorder()
    untraced: list[Iteration] = []
    traced: list[Iteration] = []

    def pair():
        # Alternate which call of a pair goes first, so drift cancels.
        if len(traced) % 2:
            traced.append(iterate(workload, inputs, dense, recorder))
        untraced.append(iterate(workload, inputs, dense))
        if len(traced) < len(untraced):
            traced.append(iterate(workload, inputs, dense, recorder))

    loop(args.seconds, pair, min_steps=1)
    good_untraced = [it.seconds for it in untraced if it.ok]
    good_traced = [it for it in traced if it.ok]
    if not good_untraced or not good_traced:
        return untraced + traced, {}, False

    correct = True
    in_workers = inputs.config.comm == "process"
    per_iteration = []
    for it in good_traced:
        layer, totals, top_level_s = per_layer(
            it, recorder.spans, statistics.median(good_untraced), in_workers
        )
        # run_s is timed outside the root span, so this can only hold if
        # the recorder's root closes around the whole call.
        unaccounted = layer["report.unaccounted_s"][0]
        problems = reconcile(totals, it.results, in_workers)
        if abs(top_level_s + unaccounted - it.seconds) > 1e-3:
            problems.append(f"top-level {top_level_s} + unaccounted {unaccounted} != run_s {it.seconds}")
        for problem in problems:
            print(f"trace check failed: {problem}")
        correct = correct and not problems
        per_iteration.append((layer, totals))
    layers = {
        name: (statistics.median(layer[name][0] for layer, _ in per_iteration), unit, source)
        for name, (_, unit, source) in per_iteration[0][0].items()
    }
    for name, (value, unit, source) in layers.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} [{source}]")
    origin = recorder.spans[0][1]
    write_trace(
        RESULTS / f"trace-{workload.name}-seed{args.seed}.json",
        {
            "workload": workload.name,
            "seed": args.seed,
            "untraced_run_s": [it.seconds for it in untraced],
            "traced_run_s": [it.seconds for it in traced],
            "metrics": {n: {"value": v, "unit": u, "source": s} for n, (v, u, s) in layers.items()},
            "layers_per_iteration": [totals for _, totals in per_iteration],
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p, _, _ in recorder.spans],
        },
    )
    return untraced + traced, {n: (v, u) for n, (v, u, _) in layers.items()}, correct


def run_timed(args, workload, inputs, dense, setup_s) -> tuple[list, dict, bool]:
    """Untraced calls under the peak-RSS sampler; the end-to-end metrics."""

    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    iterations: list[Iteration] = []
    with PeakRss() as rss:
        loop(
            args.seconds,
            lambda: iterations.append(iterate(workload, inputs, dense)),
            min_steps=MIN_ITERATIONS,
        )
    good = [it.seconds for it in iterations if it.ok]
    if not good:
        return iterations, {}, False
    percentile = tail_percentile(len(good))
    tail = (
        f"p{percentile:g} {statistics.quantiles(good, n=1000)[int(percentile * 10) - 1]:.4f} s"
        if percentile else "no percentile has 10 samples beyond it"
    )
    print(f"run_s: median {statistics.median(good):.4f} s over {len(good)} calls; {tail}; "
          f"calls: {', '.join(f'{it.seconds:.3f}' for it in iterations)}")
    metrics = end_to_end(iterations, setup_samples, inputs.gates, rss.bytes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:>16.8g} {unit}")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    return iterations, metrics, True


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[0]}))
        return 0

    setup_s, workload, inputs = timed_setup(args.workload, args.seed)
    import workloads

    dense = workloads.reference(inputs)
    settle_allocator()
    if args.trace:
        iterations, metrics, correct = run_trace(args, workload, inputs, dense)
    else:
        iterations, metrics, correct = run_timed(args, workload, inputs, dense, setup_s)

    failed = [it for it in iterations if not it.ok]
    for it in failed:
        print(f"FAILED iteration ({it.seconds:.3f} s): {'; '.join(it.problems)}")
    print(f"workload {workload.name}, seed {args.seed}: {len(iterations)} iterations, "
          f"{len(failed)} failed, error_rate {len(failed) / len(iterations):.4f}")
    correct = correct and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(iterations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_helpers()


if __name__ == "__main__":
    sys.exit(main())
