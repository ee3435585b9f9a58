"""skillbench benchmark: one closed-loop workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pickplace --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout; nothing needs
installing.  With ``--trace 0`` the run measures for ``--seconds`` and
reports the end-to-end metrics; host times are scaled to a reference host
speed (see ``hostspeed.py``).  With ``--trace 1`` the first half of the
time is an untraced run and the second half a traced one (see
``tracing.py``); it reports the per-layer metrics, the tracing overhead, and
checks that the traced replay of the leading samples reproduces the
untraced simulated values and trace digests.  Every run checks each
sample's output, writes a stamped result and a fingerprint of the seed's
simulated values to ``perfbench/out/``, and prints one JSON object as its
last line.  Exit codes: 0 done (outputs may still be incorrect, see
``correct``), 2 the package or its sources are missing, 3 usage error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from hostspeed import probe, scale
from tracing import Tracer
from workloads import WORKLOADS, Sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("core", "wire", "trajectory", "planner", "plc_trigger", "robot_executor", "fieldbus_sim", "bench")
SETUP_REPEATS = 7
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


def load_skillbench() -> SimpleNamespace:
    """Import skillbench afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "skillbench" or m.startswith("skillbench.")]:
        del sys.modules[name]
    pkg = importlib.import_module("skillbench")
    if Path(pkg.__file__).resolve().parent != (SRC / "skillbench").resolve():
        raise ImportError(f"skillbench imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"skillbench.{m}") for m in MODULES})


def set_up(name: str, seed: int):
    """Import plus the workload's input generation and planning, repeated;
    returns the last set-up and the median set-up time."""
    times, before = [], probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sb = load_skillbench()
        wl = WORKLOADS[name](sb, seed)
        wl.prepare()
        host_s = time.perf_counter() - t0
        after = probe()
        times.append(scale(host_s, before, after, 1.0))
        before = after
    return sb, wl, median(times)


def measure(wl, until: float, tracer: Tracer | None = None):
    """Run samples 0, 1, ... until ``until`` has passed, at least the
    fingerprint samples were run, and the last round is complete."""
    samples, oracle_s, k = [], 0.0, 0
    execute = wl.execute if tracer is None else tracer.wrap("sample", wl.execute)
    while k < wl.fingerprint_samples or k % wl.round_size or time.perf_counter() < until:
        inp = wl.make_input(k)
        t0 = time.perf_counter()
        expected = wl.oracle(inp)
        oracle_s += time.perf_counter() - t0
        sample, out = Sample(k=k, host_s=0.0), None
        if tracer is not None:
            tracer.recording = k == 0
        before = probe()
        with nullcontext() if tracer is None else tracer.installed():
            t0 = time.perf_counter()
            try:
                out = execute(inp)
            except Exception as e:  # a run that raises is a failed sample, not a failed benchmark
                sample.error = f"{type(e).__name__}: {e}"
                traceback.print_exc()
            sample.host_s = time.perf_counter() - t0
        sample.scaled_s = scale(sample.host_s, before, probe(), wl.probe_exponent)
        if out is not None:
            wl.observe(sample, inp, expected, out)
        samples.append(sample)
        k += 1
    if tracer is not None:
        tracer.recording = False
    wl.check_all(samples)
    return samples, oracle_s


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int, wanted: float) -> float:
    """``wanted`` if at least TAIL_BEYOND of ``n`` samples lie beyond it,
    else the next lower rung of TAIL_LADDER that has them."""
    for p in TAIL_LADDER:
        if p <= wanted and n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return TAIL_LADDER[-1]


def fingerprint(wl, samples) -> dict:
    lead = samples[: wl.fingerprint_samples]
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "model": {k: v for k, (v, _unit) in wl.model_metrics(lead).items()},
        "samples": [{"k": s.k, "model": s.model, "digest": s.digest, "error": s.error} for s in lead],
    }


def end_to_end(wl, samples, setup_s: float) -> tuple[dict, dict]:
    host = [s.scaled_s for s in samples]
    done = [s for s in samples if s.error is None]
    p = tail_percentile(len(host), wl.tail_percentile)
    metrics = {
        "run_ms_p50": (median(host) * 1e3, "ms"),
        "run_ms_tail": (percentile(host, p) * 1e3, "ms"),
        "sim_s_per_host_s": (
            sum(s.sim_ms for s in done) / 1e3 / sum(s.scaled_s for s in done) if done else 0.0,
            "s/s",
        ),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (len(done) / len(samples), "runs/runs"),
    }
    raw = {
        "run_ms_p50": median(s.host_s for s in samples) * 1e3,
        "sim_s_per_host_s": sum(s.sim_ms for s in done) / 1e3 / sum(s.host_s for s in done)
        if done
        else 0.0,
    }
    return metrics, {"tail_percentile": p, "unscaled": raw}


def per_layer(wl, tracer: Tracer, traced, untraced) -> dict:
    n = len(traced)
    stats = tracer.stats
    ms = 1e-6 / n

    def st(name):
        return stats.get(name) or SimpleNamespace(calls=0, total_ns=0, self_ns=0, changed=0)

    metrics = {
        "fieldbus_sim.run.self_ms": (st("fieldbus_sim.run").self_ns * ms, "ms"),
        "fieldbus_sim.run.trace_events": (tracer.trace_events / n, "count"),
    }
    for name in (
        "plc_trigger.plc_tick",
        "robot_executor.RobotExecutor.tick",
        "robot_executor.NativeExecutor.tick",
    ):
        s = st(name)
        metrics[f"{name}.calls"] = (s.calls / n, "count")
        metrics[f"{name}.self_ms"] = (s.self_ns * ms, "ms")
        metrics[f"{name}.changed_ratio"] = (s.changed / s.calls if s.calls else 0.0, "ratio")
    for op in ("encode", "decode"):
        for obj in ("record", "command_frame", "feedback_frame"):
            s = st(f"wire.{op}_{obj}")
            metrics[f"wire.{op}_{obj}.calls"] = (s.calls / n, "count")
            metrics[f"wire.{op}_{obj}.us_per_call"] = (
                s.total_ns / s.calls / 1e3 if s.calls else 0.0,
                "us",
            )
    metrics["wire.explode_plan.self_ms"] = (st("wire.explode_plan").self_ns * ms, "ms")
    metrics["planner.plan.self_ms"] = (st("planner.plan").self_ns * ms, "ms")
    for fn in ("segment_time", "blend_geometry", "ptp_time"):
        s = st(f"trajectory.{fn}")
        metrics[f"trajectory.{fn}.calls"] = (s.calls / n, "count")
        metrics[f"trajectory.{fn}.self_ms"] = (s.self_ns * ms, "ms")
    total = st("sample").total_ns
    layers = tracer.layer_self_ns()
    for layer in ("wire", "trajectory", "planner", "plc_trigger", "robot_executor", "fieldbus_sim", "bench"):
        metrics[f"share.{layer}"] = (layers.get(layer, 0) / total, "ratio")
    metrics["share.unattributed"] = (layers.get("sample", 0) / total, "ratio")
    metrics["trace.overhead_ratio"] = (
        median(s.scaled_s for s in traced) / median(s.scaled_s for s in untraced),
        "ratio",
    )
    return metrics


def replay_mismatch(wl, untraced, traced) -> str | None:
    """The traced run's leading samples must reproduce the untraced ones."""
    for a, b in zip(untraced[: wl.fingerprint_samples], traced[: wl.fingerprint_samples]):
        if (a.model, a.digest) != (b.model, b.digest):
            return f"sample {a.k}: untraced {a.model} {a.digest}, traced {b.model} {b.digest}"
    return None


def stamp(wl, trace: int, samples: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "skillbench").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": trace,
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code else 0
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 3

    if not (SRC / "skillbench" / "__init__.py").is_file():
        print(f"no skillbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        sb, wl, setup_s = set_up(args.workload, args.seed)
    except ImportError as e:
        print(f"cannot import skillbench: {e}", file=sys.stderr)
        return 2

    gc.collect()
    start = time.perf_counter()
    extra = {}
    if args.trace:
        untraced, oracle_a = measure(wl, start + args.seconds / 2)
        tracer = Tracer(sb)
        traced, oracle_b = measure(wl, start + args.seconds, tracer)
        samples = untraced + traced
        metrics = per_layer(wl, tracer, traced, untraced)
        metrics.update(wl.model_metrics(traced[: wl.fingerprint_samples]))
        fp = fingerprint(wl, traced)
        mismatch = replay_mismatch(wl, untraced, traced)
        if not tracer.is_clean():
            mismatch = "tracing wrappers left installed"
        extra = {"replay_mismatch": mismatch, "untraced_samples": len(untraced), "traced_samples": len(traced)}
        OUT.mkdir(exist_ok=True)
        (OUT / f"{wl.name}-seed{wl.seed}.spans.json").write_text(
            json.dumps(tracer.span_records()) + "\n"
        )
        oracle_s = oracle_a + oracle_b
    else:
        samples, oracle_s = measure(wl, start + args.seconds)
        metrics, extra = end_to_end(wl, samples, setup_s)
        fp = fingerprint(wl, samples)
        mismatch = None

    failed = sum(1 for s in samples if s.error is not None)
    result = {
        "correct": failed == 0 and mismatch is None,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else 0.0, "unit": u} for k, (v, u) in metrics.items()
        },
    }
    info = stamp(wl, args.trace, {"attempted": len(samples), **extra})
    info["oracle_s"] = oracle_s
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{wl.seed}.fingerprint.json").write_text(json.dumps(fp, indent=1) + "\n")
    (OUT / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, "result": result}, indent=1) + "\n"
    )
    for s in samples:
        if s.error is not None:
            print(f"FAILED sample {s.k}: {s.error}", file=sys.stderr)
    if mismatch is not None:
        print(f"FAILED replay: {mismatch}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{k:<45} {m['value']:>14.6g} {m['unit']}")
    print("stamp " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
