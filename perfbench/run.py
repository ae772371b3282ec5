"""Benchmark of the dqeval CLI on synthetic PTB-XL-shaped workloads.

    python3 perfbench/run.py --workload evaluate-meta --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from anywhere inside a checkout of the repository; inputs and outputs go
to ``.bench_work/`` at its root and are removed afterwards. For each workload
the runner writes the seeded inputs, times the CLI import in fresh
interpreters, runs the operations in one child process (perfbench/child.py),
checks the outputs, and prints one summary line per workload and, last, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` its per-layer ones. Exit code 2 means the benchmark could not
run (for instance, no ``src/dqeval`` beside it); no result is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SETUP_PROBES = 6  # fresh-interpreter imports besides the workload child's own
CHILD_TIMEOUT_S = 160.0


class BenchError(RuntimeError):
    """The benchmark itself could not run: nothing is reported."""


def _run_child(args: list[str], timeout: float) -> float:
    """Run a child to its end; return the seconds from spawn until it printed "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"child did not start: {line!r}")
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return ready


def run_workload(wl, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    """Prepare, measure and check one workload; return its counts and metrics.

    ``units`` maps each metric to report (end-to-end, or per-layer when
    tracing) to its unit, as BENCHMARK.json lists them.
    """
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = wl.prepare(work, seed)
        plan.update(seconds=seconds, trace=trace, result=os.path.join(work, "result.json"))
        with open(os.path.join(work, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        setup = [] if trace else [_run_child(["--probe"], 30.0) for _ in range(SETUP_PROBES)]
        setup.append(_run_child([os.path.join(work, "plan.json")], CHILD_TIMEOUT_S))
        with open(plan["result"], "r", encoding="utf-8") as fh:
            res = json.load(fh)
        try:
            problems = wl.check(work, res["stdout"], res["stderr"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))

    ops = [res["warmup"], *res["measured"]]
    reference = res["warmup"]["digest"]
    failed = sum(1 for op in ops if op["code"] != 0 or op["digest"] != reference)
    if problems:
        failed += sum(1 for op in ops if op["code"] == 0 and op["digest"] == reference)
    plain = [op for op in res["measured"] if not op["traced"]]
    call_s = statistics.median(op["wall_s"] for op in plain)
    out = {"attempted": len(ops), "failed": failed, "problems": problems, "n_calls": len(plain),
           "stderr": res["stderr"]}
    if not trace:
        out["n_setup"] = len(setup)
        values = {
            "setup_s": statistics.median(setup),
            "call_s": call_s,
            "cpu_s": statistics.median(op["cpu_s"] for op in plain),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        out["metrics"] = {name: (values[name], unit) for name, unit in units.items()}
        return out
    traced = [op for op in res["measured"] if op["traced"]]
    out["n_traced"] = len(traced)
    values = dict(res["trace"]["metrics"])
    values["trace.overhead_s"] = statistics.median(op["wall_s"] for op in traced) - call_s
    spans = res["trace"]["spans"]
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = (values[name], unit)
        elif any(name.startswith(span + ".") for span in spans):
            metrics[name] = (0.0, unit)
        else:
            print(f"{wl.name}: {name} absent (its target is not in this tree)", file=sys.stderr)
    out["metrics"] = metrics
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup that stops the child


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dqeval", "cli.py")):
        print(f"error: no dqeval sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), units)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        for problem in res["problems"]:
            print(f"{name}: output check failed: {problem}", file=sys.stderr)
        if res["problems"]:
            print(f"{name}: stderr of the last operation:\n{res['stderr'][-2000:]}", file=sys.stderr)
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["correct"] = total["correct"] and res["failed"] == 0
        traced = f" traced_ops={res['n_traced']}" if args.trace else ""
        print(f"{name}: attempted={res['attempted']} failed={res['failed']}{traced}", flush=True)
        for metric, (value, unit) in res["metrics"].items():
            total["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = {"value": value, "unit": unit}
            n = {"call_s": res["n_calls"], "cpu_s": res["n_calls"], "setup_s": res.get("n_setup")}.get(metric)
            if value or not args.trace:
                print(f"  {metric} = {value:.6g} {unit}" + (f" (n={n})" if n else ""), flush=True)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
