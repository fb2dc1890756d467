"""Layered benchmark of lcmlat: end-to-end metrics, or per-layer ones when traced.

Run from the repository root:

    python3 perfbench/run.py --workload audit-stream --seed 1 --seconds 32 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 each pass is run untraced and then traced,
the metrics are the per-layer ones, and the spans are written under
.perfbench-out/. The lines before it give provenance, sample counts and
the figures that are printed but not gated. The exit code is 1 when any op
failed, 2 when the checkout holds no src/lcmlat.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("audit-stream", "boolean-matching", "random-ideals")
OUT_DIR = ".perfbench-out"
# Set-ups for setup_s: as many as take about SETUP_SECONDS, judged by the
# first, but at least SETUP_MIN and at most SETUP_MAX, spread evenly over
# the run between passes. A set-up takes 0.03 s to 1.5 s, and a shared
# machine's speed swings by tens of percent from one few-second window to
# the next; set-ups spread over the same window as the passes see the same
# average speed.
SETUP_SECONDS = 6.0
SETUP_MIN = 5
SETUP_MAX = 40
# A fresh interpreter's start is mostly Python's and numpy's, and swings by
# up to 2x between minutes on a shared machine, so it is printed, not gated.
INTERPRETER_STARTS = 5
TRACE_MIN_PAIRS = 2


def import_seconds() -> float:
    """Time to import `lcmlat.cli` afresh in this process.

    Every lcmlat module runs again; numpy and the standard library stay
    imported. The modules the workloads hold are put back afterwards.
    """
    def ours():
        return {k: m for k, m in sys.modules.items() if k == "lcmlat" or k.startswith("lcmlat.")}

    saved = ours()
    for name in saved:
        del sys.modules[name]
    try:
        start = perf_counter()
        importlib.import_module("lcmlat.cli")
        return perf_counter() - start
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def interpreter_start_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that imports `lcmlat.cli` and exits,
    as each `lcmlat` command pays before its first op."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import lcmlat.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, timeout=120,
                   check=True)
    return perf_counter() - start


def percentile(values, q: int) -> tuple:
    """(q-th percentile, samples beyond it)."""
    value = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return value, sum(v > value for v in values)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run closed-loop passes for `seconds`, check the outputs.

    A set-up is a fresh import of the lcmlat modules, input generation and
    one warm-up op. One runs before the first pass. Untraced runs plan as
    many as take about SETUP_SECONDS and run them between passes, in step
    with the share of the run gone; setup_s is their median. Passes are
    whole: the loop starts another while one more median round (a pass,
    its check and, when tracing, its traced twin) fits in the seconds
    left, or while fewer than the workload's minimum have run.
    """
    setups = []

    def set_up():
        imported = import_seconds()
        start = perf_counter()
        workload.setup(seed, workdir)
        workload.warm_up()
        setups.append(imported + perf_counter() - start)
        gc.collect()  # free the replaced modules now, not during a pass

    set_up()
    planned = 1 if trace else min(SETUP_MAX, max(SETUP_MIN, round(SETUP_SECONDS / setups[0])))

    def set_up_until(share):
        while len(setups) < math.ceil(planned * share):
            set_up()

    if trace:
        from tracer import Tracer
        tracer = Tracer()
    latencies, pass_s, traced_pass_s, rounds = [], [], [], []
    attempted = failed = 0
    min_passes = TRACE_MIN_PAIRS if trace else workload.min_passes
    i = 0
    while i < min_passes or sum(rounds) + statistics.median(rounds) <= seconds:
        round_start = began = perf_counter()
        lat, outputs = workload.run_pass(i)
        pass_s.append(perf_counter() - began)
        latencies.extend(lat)
        tried, bad = workload.verify(i, outputs)
        del outputs  # so that peak_rss_mb does not hold two passes' outputs
        attempted, failed = attempted + tried, failed + bad
        if trace:
            tracer.pass_index = i
            tracer.install()
            try:
                began = perf_counter()
                _, outputs = workload.run_pass(i)
                traced_pass_s.append(perf_counter() - began)
            finally:
                tracer.uninstall()
            tried, bad = workload.verify(i, outputs)
            del outputs
            attempted, failed = attempted + tried, failed + bad
        rounds.append(perf_counter() - round_start)
        i += 1
        set_up_until(min(1.0, sum(rounds) / seconds) if seconds > 0 else 1.0)
    set_up_until(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed += workload.finish()

    result = {"attempted": attempted, "failed": failed,
              "notes": [f"failed_op_share {failed / attempted:.6f} ({failed} of {attempted} ops)"]}
    if not trace:
        p50, beyond50 = percentile(latencies, 50)
        p90, beyond90 = percentile(latencies, 90)
        p99, beyond99 = percentile(latencies, 99)
        n = len(latencies)
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
            "ops_per_s": (n / sum(pass_s), "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["notes"] += [
            f"setup_s median of {len(setups)} set-ups: {[round(s, 4) for s in setups]}",
            f"pass_s median of {i} passes: {[round(s, 3) for s in pass_s]}",
            f"op_p50_ms over {n} ops, {beyond50} beyond",
            f"op_p90_ms over {n} ops, {beyond90} beyond",
            f"op_p99_ms {p99 * 1e3:.4f} ms over {n} ops, {beyond99} beyond (not gated)",
        ]
    else:
        diffs = [t - u for t, u in zip(traced_pass_s, pass_s)]
        metrics = tracer.layer_metrics(len(traced_pass_s))
        metrics["trace.untraced_pass_s"] = (statistics.median(pass_s), "s")
        metrics["trace.traced_pass_s"] = (statistics.median(traced_pass_s), "s")
        metrics["trace.overhead_s"] = (statistics.median(diffs), "s")
        result["metrics"] = metrics
        result["notes"] += [
            f"{len(traced_pass_s)} untraced/traced pass pairs, {len(tracer.spans)} spans",
            f"trace overhead {statistics.median(diffs):.4f} s per pass "
            f"({statistics.median(diffs) / statistics.median(pass_s):+.1%} of untraced pass_s)",
        ] + [f"{name} {value:.6f} s per traced pass (not a metric)"
             for name, value in tracer.workload_specific_self_times(len(traced_pass_s)).items()]
        result["tracer"] = tracer
    return result


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "lcmlat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or None


def provenance(root: Path, src: Path, args) -> dict:
    import numpy
    from lcmlat import kernels
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_use_numba": bool(kernels.USE_NUMBA),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(src),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "lcmlat" / "__init__.py").is_file():
        print(f"perfbench: {src}/lcmlat not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lcmlat
    if Path(lcmlat.__file__).resolve().parent != (src / "lcmlat").resolve():
        print(f"perfbench: imported lcmlat from {lcmlat.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](reference[args.workload])
    info = provenance(root, src, args)
    print("provenance " + json.dumps(info, sort_keys=True))

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        starts = [interpreter_start_seconds(src) for _ in range(INTERPRETER_STARTS)]
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)

    print(f"interpreter_start_s {statistics.median(starts):.4f} s, median of {len(starts)} "
          "fresh interpreters importing lcmlat.cli (not gated)")
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value:.6g} {unit}")
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        header = dict(info, metrics={k: v for k, (v, _) in result["metrics"].items()})
        result["tracer"].write(spans, header)
        print(f"spans written to {spans.relative_to(root)}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
