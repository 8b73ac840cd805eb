"""dcra benchmark: one seeded workload per call, end-to-end or traced.

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Run from a source checkout; the program is imported from its `src/`.  The
load is closed-loop and batch: one process, one caller, passes of the
workload back to back until the next one would overrun --seconds (at least
one pass).  Every pass is checked; a failed check or a raising operation
counts as a failed operation.

--trace 0 prints the end-to-end metrics: median wall seconds per pass,
set-up seconds (median over fresh processes) and peak RSS.  --trace 1
alternates an untraced and a traced pass and prints the per-layer metrics
of tracer.PER_LAYER.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  A manifest with the raw samples is
written under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("sweep", "bound", "congestion")
END_TO_END = [("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower")]
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Imports plus config build, timed inside a fresh interpreter.  The clock
# starts before the first import, so interpreter start-up is left out.
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].prepare({seed!r})
print(time.perf_counter() - t0)
"""
IMPORT_CHILD = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import dcra.cli
print(time.perf_counter() - t0)
"""


def pin_threads() -> dict[str, str]:
    """Pin BLAS/OpenMP pools to one thread, before numpy is first imported.

    One is within any nproc, and with it the simplex pivot sequence (which
    a threaded BLAS reorders) and its timing stop depending on the
    scheduler.  Child processes inherit the setting.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def fresh_process_seconds(script: str, samples: int) -> list[float]:
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree of its own, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/dcra/*.py, names and bytes, so a run names its code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dcra").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(args, threads: dict[str, str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no mode argument or other layout
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": sys.version, "numpy": np.__version__, "blas": blas,
        "thread_env": threads, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "started_unix": time.time(),
    }


class Ledger:
    """Operations attempted and failed, and every check's outcome."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.log: list[dict] = []

    def record_pass(self, workload, pass_index: int, result, error: str | None) -> None:
        ops = workload.ops_per_pass()
        self.attempted += ops
        if error is not None:
            self.failed += ops
            self.log.append({"pass": pass_index, "check": "pass_completed", "ok": False,
                             "detail": error})
            return
        for check in result.checks:
            self.check(pass_index, check.name, check.ok, check.detail)

    def check(self, pass_index: int, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.log.append({"pass": pass_index, "check": name, "ok": ok, "detail": detail})


def run_one_pass(workload, inputs, csv_path: str, tracer=None):
    """(wall seconds, Pass or None, error text or None) of one pass."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run_pass(inputs, csv_path)
        else:
            with tracer:
                result = workload.run_pass(inputs, csv_path)
    except Exception:  # a failing operation is reported, not fatal
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, result, None


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run the workload for about `seconds`; return metrics, samples and checks."""
    import tracer as tracing

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = str(out_dir / f"{workload.name}.csv")
    ledger = Ledger()
    samples: dict = {"pass_wall_s": [], "device_slots_per_pass": 0, "bound_s": {}}
    inputs = workload.prepare(seed)

    if trace:
        samples["cli_import_s"] = fresh_process_seconds(
            IMPORT_CHILD.format(src=str(SRC)), setup_samples)
        samples.update(traced_wall_s=[], layer_times=[], layer_counts=None, spans=None)
    else:
        samples["setup_s"] = fresh_process_seconds(SETUP_CHILD.format(
            src=str(SRC), bench=str(BENCH_DIR), name=workload.name, seed=seed), setup_samples)

    fingerprint = None
    start = time.perf_counter()
    while True:
        index = len(samples["pass_wall_s"])
        wall, result, error = run_one_pass(workload, inputs, csv_path)
        ledger.record_pass(workload, index, result, error)
        samples["pass_wall_s"].append(wall)
        cost = wall
        if result is not None:
            samples["device_slots_per_pass"] = result.device_slots
            for d, xs in result.bound_s.items():
                samples["bound_s"].setdefault(f"D{d}", []).extend(xs)
            if fingerprint is None:
                fingerprint = result.fingerprint
            else:
                ledger.check(index, "repeats_first_pass", result.fingerprint == fingerprint,
                             "outputs of this pass equal those of the first")
        if trace and error is None:
            tr = tracing.Tracer()
            t_wall, t_result, t_error = run_one_pass(workload, inputs, csv_path, tr)
            ledger.record_pass(workload, index, t_result, t_error)
            cost += t_wall
            if t_error is None:
                ledger.check(index, "traced_pass_repeats", t_result.fingerprint == fingerprint,
                             "tracing left the outputs unchanged")
                counts, times = tracing.layer_metrics(tr)
                if samples["layer_counts"] is None:
                    samples["layer_counts"] = counts
                    samples["spans"] = [s.as_dict() for s in tr.spans]
                else:
                    ledger.check(index, "layer_counts_repeat", counts == samples["layer_counts"],
                                 "per-layer counts equal those of the first traced pass")
                samples["traced_wall_s"].append(t_wall)
                samples["layer_times"].append(times)
            else:
                error = t_error
        elapsed = time.perf_counter() - start
        if error is not None or elapsed + cost > seconds:
            break

    walls = samples["pass_wall_s"]
    if trace:
        metrics = traced_metrics(samples)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    extra = {}
    if samples["device_slots_per_pass"]:
        extra["device_slots_per_s"] = samples["device_slots_per_pass"] / statistics.median(walls)
    for key, xs in samples["bound_s"].items():
        extra[f"bound_s.{key}"] = statistics.median(xs)
    extra["failed_ops_frac"] = ledger.failed / ledger.attempted
    return {"metrics": metrics, "extra": extra, "samples": samples, "ledger": ledger}


def traced_metrics(samples: dict) -> dict[str, float]:
    """Per-layer metrics in tracer.PER_LAYER order; all 0 if no traced pass ran."""
    import tracer as tracing

    metrics = dict.fromkeys((name for name, _, _ in tracing.PER_LAYER), 0.0)
    metrics["cli.import_s"] = statistics.median(samples["cli_import_s"])
    traced = samples["traced_wall_s"]
    if traced:
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(samples["pass_wall_s"]))
        metrics.update(samples["layer_counts"])
        times = samples["layer_times"]
        for name in times[0]:
            metrics[name] = statistics.median(t[name] for t in times)
    return metrics


def report(workload_name: str, args, result: dict, units: dict[str, str],
           out_dir: Path, man: dict) -> dict:
    """Print the human-readable block and return the final JSON object."""
    ledger = result["ledger"]
    samples = result["samples"]
    walls = samples["pass_wall_s"]
    print(f"dcra benchmark: workload={workload_name} seed={args.seed} "
          f"trace={args.trace} passes={len(walls)}")
    shown = set()
    for entry in ledger.log:
        if not entry["ok"] or entry["check"] not in shown:
            shown.add(entry["check"])
            status = "ok" if entry["ok"] else "FAILED"
            print(f"  check {entry['check']} (pass {entry['pass']}): {status}: {entry['detail']}")
    spreads = {"pass wall": (walls, "s"), "setup": (samples.get("setup_s"), "s"),
               "traced pass wall": (samples.get("traced_wall_s"), "s"),
               "cli import": (samples.get("cli_import_s"), "s")}
    for label, (xs, unit) in spreads.items():
        if xs:
            q1, med, q3 = quartiles(xs)
            print(f"  {label}: median {med:.4f} {unit}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(xs)}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value!r} {units[name]}")
    extra_units = {"device_slots_per_s": "1/s", "failed_ops_frac": "ratio"}
    for name, value in result["extra"].items():
        print(f"  [{workload_name}] {name} = {value!r} {extra_units.get(name, 's')}")
    print(f"  operations: {ledger.failed} failed of {ledger.attempted} attempted")

    final = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    record = {"manifest": man, "result": final, "extra": result["extra"],
              "checks": ledger.log, "samples": samples}
    path = out_dir / f"{workload_name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  manifest and samples: {path.relative_to(ROOT)}")
    return final


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="dcra benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcra" / "__init__.py").is_file():
        print(f"error: no dcra sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import dcra
    import tracer as tracing
    import workloads

    if Path(dcra.__file__).resolve().parent != SRC / "dcra":
        print(f"error: imported dcra from {dcra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    man = manifest(args, threads)
    workload = workloads.WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    table = tracing.PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in table}
    final = report(args.workload, args, result, units, OUT_DIR, man)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
