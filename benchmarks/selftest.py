"""Self-test of the benchmark harness at tiny sizes, in a few seconds.

    python3 benchmarks/selftest.py

Checks that BENCHMARK.json declares exactly the metrics the harness
prints; that every workload, traced and untraced, prints each of them
with its unit and passes its gate; that tracing puts every wrapped entry
point back; that a corrupted digest trips the gate; that a raising pass
fails all its operations; and that the benchmark refuses to run without
the dcra sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import subprocess
import sys

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

from dcra import agents, core, env, experiments, mdp, simplex  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = run.OUT_DIR / "selftest"
TINY = [
    workloads.Sweep(groups=1, lifetimes=(1, 2), agents=("r-tiny", "r-full", "blind"),
                    slots=2_000, window=500, pinned_sha256=None),
    workloads.Bound(lifetimes=(1, 2), sampled_points=1),
    workloads.Congestion(agent_counts=(3,), lifetime=4, slots=2_000, window=500,
                         pinned_sha256=None),
]


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def declared() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_declaration(spec: dict) -> None:
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracer.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if got != list(table):
            fail(f"BENCHMARK.json {key} differs from the harness: {got} vs {table}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOAD_NAMES):
        fail("BENCHMARK.json workloads differ from the harness")


def measure(workload, seed: int, trace: int) -> tuple[dict, str]:
    """Run the harness in-process for one pass; (final JSON, printed text)."""
    args = argparse.Namespace(workload=workload.name, seed=seed, seconds=0.0, trace=trace)
    table = tracer.PER_LAYER if trace else run.END_TO_END
    units = {name: unit for name, unit, _ in table}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.measure(workload, seed, 0.0, bool(trace), OUT, setup_samples=1)
        final = run.report(workload.name, args, result, units, OUT, {"selftest": True})
        print(json.dumps(final))
    text = buf.getvalue()
    last = json.loads(text.strip().splitlines()[-1])
    if last != json.loads(json.dumps(final)):
        fail("the last line of stdout is not the result object")
    return last, text


def check_output(workload, trace: int, spec: dict) -> None:
    last, text = measure(workload, 1, trace)
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(last)}")
    table = spec["per_layer" if trace else "end_to_end"]
    if list(last["metrics"]) != [m["name"] for m in table]:
        fail(f"{workload.name} trace={trace} metrics {list(last['metrics'])}")
    for m in table:
        got = last["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{workload.name} {m['name']} printed as {got}")
        if f"{m['name']} = {got['value']!r} {m['unit']}" not in text:
            fail(f"{workload.name} {m['name']} missing from the readable block")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        fail(f"{workload.name} trace={trace} gate: {last}\n{text}")


def check_restored() -> None:
    saved = {(owner, attr): owner.__dict__[attr] for owner, attr in (
        (env.UniformStream, "random"), (agents.TabularLearner, "select"),
        (agents.TabularLearner, "update"), (core.LeadTimeQueue, "advance"),
        (env, "run"), (experiments, "run"), (experiments, "run_sweep"),
        (mdp, "build_mdp"), (mdp, "bound_program"), (mdp, "upper_bound"),
        (mdp, "solve_lp"), (simplex, "solve_lp"))}
    with tracer.Tracer():
        if env.__dict__["run"] is saved[env, "run"]:
            fail("tracer did not wrap env.run")
    for (owner, attr), original in saved.items():
        if owner.__dict__[attr] is not original:
            fail(f"tracer left {attr} wrapped")


def check_digest_gate() -> None:
    good, _ = measure(TINY[0], workloads.DEFAULT_SEED, 0)
    record = json.loads((OUT / f"sweep-seed{workloads.DEFAULT_SEED}-trace0.json").read_text())
    if not good["correct"]:
        fail("tiny sweep failed at the default seed")
    digest = hashlib.sha256((OUT / "sweep.csv").read_bytes()).hexdigest()
    if any(c["check"] == "csv_sha256" for c in record["checks"]):
        fail("unpinned workload ran a digest check")
    pinned = dataclasses.replace(TINY[0], pinned_sha256=digest)
    ok, _ = measure(pinned, workloads.DEFAULT_SEED, 0)
    if not ok["correct"]:
        fail("the true digest did not pass the gate")
    corrupt = dataclasses.replace(TINY[0], pinned_sha256="0" * 64)
    bad, text = measure(corrupt, workloads.DEFAULT_SEED, 0)
    if bad["correct"] or bad["failed"] != 1 or "check csv_sha256 (pass 0): FAILED" not in text:
        fail(f"a corrupted digest did not trip the gate: {bad}")


class Raising(workloads.Sweep):
    """A sweep whose pass raises: all its operations must count as failed."""

    def run_pass(self, inputs, out_path):
        raise RuntimeError("injected failure")


def check_raising_pass() -> None:
    workload = Raising(**dataclasses.asdict(TINY[0]))
    last, text = measure(workload, 1, 0)
    if last["correct"] or not last["failed"] == last["attempted"] == workload.ops_per_pass():
        fail(f"a raising pass was not counted as failed operations: {last}")
    if "injected failure" not in text:
        fail("the raising pass's traceback was not reported")


def check_refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = declared()
    check_declaration(spec)
    for workload in TINY:
        for trace in (0, 1):
            check_output(workload, trace, spec)
    check_restored()
    check_digest_gate()
    check_raising_pass()
    check_refuses_without_sources()
    shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
