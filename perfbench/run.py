"""Benchmark of the reproduction, end to end (``--trace 0``) and per layer (``--trace 1``).

Run from the repository root::

    python3 perfbench/run.py --workload noisy-sweep --seed 1 --seconds 30 --trace 0

Workloads: ``noisy-sweep``, ``strategy-search``, ``long-path`` (see
``RATIONALE.md``).  One client runs ops in closed loop, one op in flight at a
time, for ``--seconds`` seconds of timed ops (at least ``MIN_TIMED_OPS``).  Each op's output is checked; an op that raises or fails
its check is counted in ``failed``, never raised.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate run
that wraps each layer's public entry points and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the host description and the seed's
role, is also written to ``perfbench/out/``; a traced run writes its spans
there too.

The checkout's ``src/`` must hold the program: without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: One BLAS/OpenMP thread unless the caller pinned another count: one op in
#: flight on one core, so a busy sibling core on the shared host does not
#: stall a multi-threaded kernel.  Set before numpy is imported; inherited
#: by every child process; recorded in the host description.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The seed used while writing a change, and the held-out seed its claim is
#: re-checked on.
DEV_SEED = 1
HELDOUT_SEED = 7919

#: Fewest timed ops per run, so that ``op_tail_s`` has ten samples beyond it.
MIN_TIMED_OPS = 20
#: Set-ups measured per run, one after each equal slice of the timed
#: seconds, so that they sample the host over the whole run as the timed
#: ops do; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Fresh-interpreter imports timed per traced run; ``import.s`` is their median.
IMPORT_PROBES = 5
#: Traced ops whose spans give the per-layer metrics and exact counts.
TRACE_OPS = 16
#: End-to-end metrics printed but left out of the result line (and so out
#: of ``BENCHMARK.json``): on a host whose speed switches between two levels
#: over tens of seconds, the median and the mean follow the share of each
#: level in a run, which varies more between runs than a bound may allow
#: (see RATIONALE.md).
UNGATED = ("op_p50_s", "results_per_s")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up once, print 'ready' and exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def seed_role(seed: int) -> str:
    return {DEV_SEED: "development", HELDOUT_SEED: "held-out"}.get(seed, "other")


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def tail(times: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest (nearest
    rank), at percentile ``100 (n - 10) / n``; returns ``(value, percentile)``.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------


class Loop:
    """Closed-loop op runner: times ``run`` + check, counts failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.index = 0
        self.times: List[float] = []
        self.failed = 0
        self.first_error: Optional[str] = None

    def step(self) -> None:
        inputs = self.workload.inputs(self.seed, self.index)
        start = time.perf_counter()
        try:
            _, ok = self.workload.run(inputs)
        except Exception:  # counted as a failed op, never raised
            ok = False
            self.first_error = self.first_error or traceback.format_exc()
        self.times.append(time.perf_counter() - start)
        if not ok:
            self.failed += 1
        self.index += 1

    def run_for(self, seconds: float, min_ops: int) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.times) < min_ops or time.perf_counter() < deadline:
            self.step()


def warm_up(workload, seed: int):
    """The untimed warm-up op: fills the operator, einsum-path and
    ``lru_cache`` caches.  Returns its output for the parity check."""
    from workloads import WARMUP_INDEX

    return workload.run(workload.inputs(seed, WARMUP_INDEX))


def parity_check(workload, output, seed: int) -> Tuple[bool, str]:
    """A seeded sample of warm-up points against the dense reference
    engine, within the dtype's parity tolerance (untimed)."""
    from repro.engine import Engine
    from repro.engine.array_ops import parity_tolerance
    from workloads import op_rng

    deviation = workload.parity(output, op_rng(seed, 2**31 - 2), Engine(backend="dense"))
    tolerance = parity_tolerance()
    return deviation <= tolerance, f"max |batched - dense| = {deviation:.3g} (tolerance {tolerance:g})"


def measure_setup(workload_name: str, seed: int, env: Dict[str, str]) -> float:
    """Wall time from spawning a fresh benchmark process to its first
    timed op: ``import repro``, input building and the warm-up op."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload_name,
        "--seed", str(seed), "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, errors = probe.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            probe.kill()
            _, errors = probe.communicate()
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {errors.decode(errors='replace')}")
    return elapsed


def measure_imports(env: Dict[str, str]) -> List[float]:
    """``import repro`` timed in fresh interpreters, before anything else
    (numpy included) is imported."""
    code = (
        "import time; start = time.perf_counter(); import repro; "
        "print(time.perf_counter() - start)"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        completed = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        samples.append(float(completed.stdout))
    return samples


def setup_probe(workload_cls, seed: int) -> int:
    import repro  # noqa: F401  (part of the measured set-up)

    workload = workload_cls(ROOT)
    _, ok = warm_up(workload, seed)
    if not ok:
        return 1
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# The two runs
# --------------------------------------------------------------------------


def timed_run(workload, args, env) -> dict:
    warm_output, warm_ok = warm_up(workload, args.seed)
    loop = Loop(workload, args.seed)
    setups = []
    for _ in range(SETUP_PROBES):
        loop.run_for(args.seconds / SETUP_PROBES, 0)
        setups.append(measure_setup(workload.name, args.seed, env))
    loop.run_for(0.0, MIN_TIMED_OPS)
    parity_ok, parity_note = parity_check(workload, warm_output, args.seed)
    rss = peak_rss_mb()

    times = loop.times
    ok_ops = len(times) - loop.failed
    tail_value, tail_percentile = tail(times)
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "results_per_s": (workload.values_per_op * ok_ops / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": len(times),
        "failed": loop.failed,
        "correct": bool(warm_ok and loop.failed == 0 and parity_ok),
        "notes": {
            "op_p50_s": "printed, not gated",
            "results_per_s": f"printed, not gated; {workload.values_per_op} values per op",
            "op_tail_s": f"p{tail_percentile:.1f} of {len(times)} ops",
            "setup_s": f"median of {len(setups)} set-ups: "
            + ", ".join(f"{s:.3f}" for s in setups),
            "fail_ratio": f"{loop.failed / len(times):g} ratio ({loop.failed} of {len(times)} ops failed)",
            "parity": parity_note,
        },
        "first_error": loop.first_error,
        "op_times_s": times,
    }


def traced_run(workload, args, env) -> dict:
    """Traced ops interleaved with untraced ones, so the tracing overhead is
    measured under the same conditions; counts cover the first
    ``TRACE_OPS`` traced ops, whose cache state is fixed by the seed."""
    import tracing

    recorder = tracing.Recorder()
    cache: Dict[str, int] = {}
    tracing.install(recorder)
    warm_output, warm_ok = warm_up(workload, args.seed)

    loop = Loop(workload, args.seed)
    traced_times: List[float] = []
    untraced_times: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(traced_times) < TRACE_OPS or time.perf_counter() < deadline:
        recorder.op = len(traced_times)
        before = tracing.cache_counters()
        recorder.armed = True
        loop.step()
        recorder.armed = False
        if recorder.op < TRACE_OPS:
            delta = tracing.counter_delta(before, tracing.cache_counters())
            for name, value in delta.items():
                cache[name] = cache.get(name, 0) + value
        traced_times.append(loop.times[-1])
        loop.step()
        untraced_times.append(loop.times[-1])
    overhead = statistics.median(traced_times) - statistics.median(untraced_times)
    parity_ok, parity_note = parity_check(workload, warm_output, args.seed)
    imports = measure_imports(env)

    spans_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    spans_file.write_text(
        json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
                    "spans": recorder.spans}),
        encoding="utf-8",
    )
    values = tracing.layer_metrics(
        recorder.spans, range(TRACE_OPS), cache, statistics.median(imports), overhead
    )
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER_METRICS.items()}
    return {
        "metrics": metrics,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "correct": bool(warm_ok and loop.failed == 0 and parity_ok),
        "notes": {
            "import.s": f"median of {len(imports)} fresh-interpreter imports",
            "counts": f"per op, over the first {TRACE_OPS} traced ops",
            "self_s": f"median over the first {TRACE_OPS} traced ops",
            "trace.overhead_s": f"traced p50 minus untraced p50, {len(traced_times)} "
            "interleaved ops each",
            "parity": parity_note,
            "spans": str(spans_file.relative_to(ROOT)),
        },
        "first_error": loop.first_error,
    }


def print_result(workload, args, result: dict, host: dict) -> None:
    print(f"perfbench {workload.name}: seed {args.seed} ({seed_role(args.seed)} seed), "
          f"trace {args.trace}, {args.seconds:g} s")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:42s} {value:14.6g} {unit:6s} {note}")
    for name in ("fail_ratio", "parity", "counts", "self_s", "spans"):
        if name in result["notes"]:
            print(f"  {name:42s} {result['notes'][name]}")
    print(f"  host: {host['cpu_model']}, nproc {host['nproc']}, affinity "
          f"{host['sched_getaffinity']}, python {host['python']}, numpy {host['numpy']}, "
          f"networkx {host['networkx']}, threads {host['thread_env']}, "
          f"commit {host['git_commit']}")
    if result["first_error"]:
        sys.stderr.write(result["first_error"])


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload_cls, args.seed)

    # Byte-compile once up front, so no timed op or set-up pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    python_path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (
        os.pathsep + python_path if python_path else ""))

    workload = workload_cls(ROOT)
    if args.trace:
        result = traced_run(workload, args, env)
    else:
        result = timed_run(workload, args, env)

    from hostspec import host_spec

    host = host_spec(ROOT)
    print_result(workload, args, result, host)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_role": seed_role(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        **{key: result[key] for key in ("correct", "attempted", "failed", "notes")},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()},
    }
    if "op_times_s" in result:
        record["op_times_s"] = result["op_times_s"]
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: value for name, value in record["metrics"].items() if name not in UNGATED
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
