#!/usr/bin/env python3
"""labcoupling benchmark: seeded closed-loop workloads against the library API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload transport --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload in turn

One client runs one operation at a time.  Each operation gets fresh inputs
built outside the timed region from (seed, operation index), and its outputs
are checked against the theory.  Times are reported at a reference machine
speed (see ``SpeedProbe``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced pairs of operations and reports
per-layer shares and work counts.  Every result line is printed
before the last line, which is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Full results and the span
trace go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One client, one operation at a time: keep BLAS to one thread so it never
# exceeds the cores and small-matrix calls do not pay thread hand-offs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("transport", "roundtrip", "verdicts", "axioms")
BLOCK = 2             # operations run in pairs: verdicts alternates its two classes
MIN_BLOCKS = 2        # at least four timed operations, whatever --seconds says
RESIDUAL_OPS = 4      # residual.max covers the first four operations: fixed per seed
SETUP_REPEATS = 3     # setup_s is the median of this many set-ups
TAIL_BEYOND = 10      # op_s.tail: highest percentile with this many samples beyond it
REFERENCE_PROBE_S = 0.02  # SpeedProbe time that defines reference speed
RESIDUAL_FLOOR = 1e-17    # residual.digits of a residual that is exactly 0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import labcoupling; "
    "print(time.perf_counter() - t)"
)


class SetupError(RuntimeError):
    pass


def locate_library():
    """Import labcoupling from this checkout's src/, never from elsewhere."""
    if not (SRC / "labcoupling" / "__init__.py").is_file():
        raise SetupError(f"no labcoupling sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import labcoupling

    if Path(labcoupling.__file__).resolve().parent != SRC / "labcoupling":
        raise SetupError(f"imported labcoupling from {labcoupling.__file__}, not {SRC}")
    return labcoupling


def time_import() -> float:
    """Seconds to import labcoupling in a fresh interpreter (numpy and scipy
    included), timed by the child itself."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def tail(samples: list) -> tuple:
    """Highest order statistic with TAIL_BEYOND samples above it: (value,
    percentile, beyond).  With too few samples, the minimum and its count."""
    ordered = sorted(samples)
    pos = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[pos], 100.0 * pos / len(ordered), len(ordered) - pos - 1


class SpeedProbe:
    """A fixed loop timed before and after every measured interval.

    The host is shared: the same operation runs up to 1.6x slower from one
    minute to the next, and the probe slows in step with it.  An interval of
    t wall seconds measured while the probe takes p seconds is reported as
    t * REFERENCE_PROBE_S / p, i.e. in seconds at the machine speed at which
    the probe takes REFERENCE_PROBE_S.  The loop mixes the three kinds of
    work the workloads do: interpreter-bound Python, a NumPy fancy-index
    gather and 3x3 LAPACK calls.  It uses no labcoupling code, so a change to
    the library cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1)
        self.values = rng.standard_normal((65 * 65, 18))
        self.index = rng.integers(0, 65 * 65, 20000)
        self.mats = rng.standard_normal((200, 3, 3)) + 3.0 * np.eye(3)
        self.inv = np.linalg.inv

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(30):
            acc += float(self.values[self.index].sum())
        for m in self.mats:
            acc += float(self.inv(m)[0, 0])
        return time.perf_counter() - t0

    @staticmethod
    def scale(wall_s: float, before: float, after: float) -> float:
        return wall_s * REFERENCE_PROBE_S / (0.5 * (before + after))


@dataclass
class Op:
    """One operation: wall and reference-speed seconds (None if it raised),
    input build wall seconds, outcome, input grid nodes."""

    wall_s: float | None
    ref_s: float | None
    build_s: float
    outcome: object
    nodes: int


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result record (see module docstring)."""
    import numpy as np

    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    probe = SpeedProbe()
    recorder = spans.SpanRecorder() if trace else None
    failures = []

    def one(stream: int, k: int, traced: bool) -> Op:
        """Build, time and check operation k of a stream (0: set-up, 1: timed)."""
        rng = np.random.default_rng([seed, stream, k])
        before = probe.seconds()
        t0 = time.perf_counter()
        inp = wl.make(rng, k, OUT)
        built = time.perf_counter() - t0
        gc.collect()
        wall = ref = outcome = None
        try:
            with recorder.operation(k) if traced else nullcontext():
                t0 = time.perf_counter()
                out = wl.run(inp)
                wall = time.perf_counter() - t0
            after = probe.seconds()
            ref = probe.scale(wall, before, after)
            outcome = wl.check(inp, out)
            if not outcome.ok:
                failures.append(f"op {stream}/{k}: {outcome.reason}")
        except Exception:  # a raising operation is a failed operation, not a crash
            failures.append(f"op {stream}/{k}: {traceback.format_exc(limit=3)}")
            wall = ref = outcome = None
        finally:
            wl.cleanup(inp)
        return Op(wall, ref, built, outcome, inp["nodes"])

    ops = []
    setups, setups_wall = [], []
    for rep in range(SETUP_REPEATS):
        # one CLI-like set-up: fresh import, input build, warm-up operation
        before = probe.seconds()
        import_s = time_import()
        op = one(0, rep, False)
        ops.append(op)
        wall = import_s + op.build_s + (op.wall_s or 0.0)
        setups_wall.append(wall)
        setups.append(probe.scale(wall, before, probe.seconds()))

    timed, first_counts = [], None
    start = time.perf_counter()
    block = 0
    while block < MIN_BLOCKS or time.perf_counter() - start < seconds:
        traced = trace and block % 2 == 1
        for j in range(BLOCK):
            op = one(1, block * BLOCK + j, traced)
            ops.append(op)
            timed.append((traced, op))
        if traced and first_counts is None:
            first_counts = dict(recorder.counts)
        block += 1

    attempted = len(ops)
    failed = sum(1 for op in ops if op.outcome is None or not op.outcome.ok)
    untraced = [op for t, op in timed if not t and op.ref_s is not None]
    traced_ops = [op for t, op in timed if t and op.ref_s is not None]
    residuals = [op.outcome.residual if op.outcome else None for _, op in timed[:RESIDUAL_OPS]]
    residual_max = max(residuals) if None not in residuals else math.inf
    ref = [op.ref_s for op in untraced]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "reference_probe_s": REFERENCE_PROBE_S,
        "wall": {
            "setup_s": statistics.median(setups_wall),
            "op_s.p50": statistics.median(op.wall_s for op in untraced) if untraced else None,
        },
        "op_ref_s": ref,
        "op_wall_s": [op.wall_s for op in untraced],
    }
    if ref:
        tail_s, tail_pct, beyond = tail(ref)
        ok_rates = [op.nodes / op.ref_s for op in untraced if op.outcome.ok]
        record["end_to_end"] = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s.p50": (statistics.median(ref), "s"),
            "op_s.tail": (tail_s, "s"),
            "nodes_per_s": (statistics.median(ok_rates) if ok_rates else 0.0, "1/s"),
            "fail_ratio": (failed / attempted, "ratio"),
            "residual.max": (residual_max, "1"),
            "residual.digits": (-math.log10(max(residual_max, RESIDUAL_FLOOR)), "digits"),
            "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["samples"] = {"ops": len(ref), "tail_percentile": tail_pct, "tail_beyond": beyond}
    if trace:
        record["per_layer"], record["self_s_per_traced_op"] = per_layer(
            recorder, first_counts or {}, ref, [op.ref_s for op in traced_ops]
        )
        spans_path = OUT / f"spans-{workload}-s{seed}.jsonl"
        recorder.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


SHARES = {
    # name in the output: (kind, span or layer name)
    "manifolds.interpolate.self_share": ("self", "manifolds.interpolate"),
    "manifolds.grid_derivative.self_share": ("self", "manifolds.grid_derivative"),
    "manifolds.partition_of_unity.self_share": ("self", "manifolds.partition_of_unity"),
    "manifolds.self_share": ("layer", "manifolds"),
    "correspondence.f_map.share": ("incl", "correspondence.f_map"),
    "correspondence.g_map.share": ("incl", "correspondence.g_map"),
    "correspondence.verify_inverse.share": ("incl", "correspondence.verify_inverse"),
    "correspondence.self_share": ("layer", "correspondence"),
    "algebra.is_inner.self_share": ("self", "algebra.is_inner"),
    "algebra.principal_log.self_share": ("self", "algebra.principal_log"),
    "algebra.inner_log_residuals.self_share": ("self", "algebra.inner_log_residuals"),
    "algebra.automorphism_residuals.self_share": ("self", "algebra.automorphism_residuals"),
    "algebra.derivation_residuals.self_share": ("self", "algebra.derivation_residuals"),
    "algebra.bracket.self_share": ("self", "algebra.bracket"),
    "algebra.self_share": ("layer", "algebra"),
    "bundles.validate_lab.share": ("incl", "bundles.validate_lab"),
    "bundles.check_delta_continuity.share": ("incl", "bundles.check_delta_continuity"),
    "bundles.trivializations_equivalent.share": ("incl", "bundles.trivializations_equivalent"),
    "bundles.self_share": ("layer", "bundles"),
    "connections.accordance.share": ("incl", "connections.accordance"),
    "connections.curvature.share": ("incl", "connections.curvature"),
    "connections.coupling_equivalent.share": ("incl", "connections.coupling_equivalent"),
    "connections.apply_connection.self_share": ("self", "connections.apply_connection"),
    "connections.self_share": ("layer", "connections"),
    "algebroid.axiom_report.share": ("incl", "algebroid.axiom_report"),
    "algebroid.self_share": ("layer", "algebroid"),
    "fileio.load_connection.share": ("incl", "fileio.load_connection"),
    "fileio.self_share": ("layer", "fileio"),
    "bench.self_share": ("layer", "bench"),
}

COUNTS = (
    "manifolds.interpolate.calls",
    "manifolds.interpolate.points",
    "manifolds.interpolate.bytes_gathered",
    "manifolds.grid_derivative.calls",
    "correspondence.rk4_node_steps",
    "algebra.is_inner.calls",
    "algebra.is_inner.inner",
    "algebra.is_inner.outer",
    "algebra.is_inner.undecided",
    "algebra.principal_log.calls",
    "algebra.principal_log.none",
    "algebra.inner_log_residuals.rows",
    "bundles.transition_grid.calls",
    "algebroid.algebroid_bracket.calls",
    "fileio.bytes_read",
)


def per_layer(recorder, counts: dict, untraced: list, traced: list) -> tuple:
    """Shares of traced operation time (self or inclusive), work counts per
    operation over the first traced pair, and the tracing overhead from the
    reference-speed seconds of the untraced and traced operations; plus self
    wall seconds per traced operation for every span name."""
    summary = recorder.summary()
    total = summary["total_s"]
    table = {"self": summary["self_s"], "incl": summary["inclusive_s"], "layer": summary["layer_self_s"]}
    out = {}
    for name, (kind, key) in SHARES.items():
        out[name] = (table[kind].get(key, 0.0) / total if total else 0.0, "share")
    for name in COUNTS:
        unit = "B" if name.endswith("bytes_gathered") or name.endswith("bytes_read") else "count"
        out[name] = (counts.get(name, 0) / BLOCK, unit)
    rows = counts.get("algebra.inner_log_residuals.rows", 0)
    series = counts.get("algebra.inner_log_residuals.series_rows", 0)
    out["algebra.inner_log_residuals.series_ratio"] = (series / rows if rows else 0.0, "ratio")
    p50_traced = statistics.median(traced) if traced else 0.0
    overhead = p50_traced / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
    out["trace.op_s.p50"] = (p50_traced, "s")  # reference-speed seconds
    out["trace.overhead_ratio"] = (overhead, "ratio")
    self_per_op = {k: v / max(len(traced), 1) for k, v in sorted(summary["self_s"].items())}
    return out, self_per_op


def report_lines(record: dict) -> list:
    env = record["env"]
    lines = [
        f"workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} attempted={record['attempted']} failed={record['failed']}",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for name, (value, unit) in record.get("end_to_end", {}).items():
        note = ""
        if name == "op_s.tail":
            smp = record["samples"]
            note = f"  (p{smp['tail_percentile']:.0f} of n={smp['ops']}, {smp['tail_beyond']} beyond)"
        elif name == "op_s.p50":
            note = f"  (n={record['samples']['ops']})"
        lines.append(f"  {name:<14} {value:.6g} {unit}{note}")
    for name, (value, unit) in record.get("per_layer", {}).items():
        lines.append(f"  {name:<44} {value:.6g} {unit}")
    lines.extend(f"  FAILED {f}" for f in record["failures"])
    return lines


def result_line(records: list, names: list) -> dict:
    """The last stdout line: the metrics named in BENCHMARK.json for the run's
    mode, prefixed by the workload when several workloads ran."""
    metrics = {}
    for rec in records:
        table = rec.get("per_layer") if rec["trace"] else rec.get("end_to_end")
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for name in names:
            value, unit = table[name]
            if not math.isfinite(value):  # only on failed runs; JSON has no inf
                value = sys.float_info.max
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        locate_library()
    except (OSError, ValueError, SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    chosen = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for workload in chosen:
        rec = measure(workload, args.seed, args.seconds, bool(args.trace))
        (OUT / f"result-{workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(rec, indent=1, default=str)
        )
        print("\n".join(report_lines(rec)), flush=True)
        records.append(rec)
    print(json.dumps(result_line(records, names), allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
