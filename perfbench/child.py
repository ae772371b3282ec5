"""One measured process: import the CLI, say "ready", run operations back to back.

    python3 perfbench/child.py PLAN.json   # run the plan, write its result file
    python3 perfbench/child.py --probe     # import the CLI, say "ready", exit

The parent times set-up from spawn to the "ready" line, so nothing but the
CLI import may run before it. One operation is one ``dqeval.cli.main(argv)``
call. The first is a warm-up; the measured ones follow in a closed loop until
the plan's seconds have passed. In a traced plan, traced and untraced
operations alternate so that their difference is the tracing overhead.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import dqeval.cli  # noqa: E402  (this import is the set-up being timed)

if __name__ == "__main__":
    print("ready", flush=True)

MIN_MEASURED = 3
DEADLINE_S = 120.0  # stop starting operations after this, so the run ends in time


def _digest(plan: dict, stdout: str) -> str:
    """Hash of what one operation wrote, with the plan's volatile JSON keys removed."""
    import hashlib
    import json

    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in plan["outputs"]:
        h.update(path.encode("utf-8"))
        if not os.path.isfile(path):
            h.update(b"\0missing")
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if plan["volatile"] and path.endswith(".json"):
            doc = json.loads(data)
            for keys in plan["volatile"]:
                node = doc
                for key in keys[:-1]:
                    node = node.get(key, {}) if isinstance(node, dict) else {}
                if isinstance(node, dict):
                    node.pop(keys[-1], None)
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        h.update(data)
    return h.hexdigest()


def run(plan: dict) -> dict:
    import contextlib
    import io
    import resource
    import time
    import traceback

    started = time.perf_counter()
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls: list[dict] = []
    last = {}

    def operation(traced: bool) -> None:
        for path in plan["outputs"]:
            if os.path.isfile(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        if traced:
            tracer.on()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    code = dqeval.cli.main(list(plan["argv"]))
                except Exception:  # a bug in the program: record it as a failed operation
                    traceback.print_exc()
                    code = -1
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.off()
        calls.append({"wall_s": wall, "cpu_s": cpu, "code": code, "traced": traced,
                      "digest": _digest(plan, out.getvalue())})
        last.update(stdout=out.getvalue(), stderr=err.getvalue())

    operation(False)
    measure_from = time.perf_counter()
    minimum = 2 * MIN_MEASURED if tracer else MIN_MEASURED
    k = 0
    while True:
        operation(tracer is not None and k % 2 == 1)
        k += 1
        now = time.perf_counter()
        if (now - measure_from >= plan["seconds"] and k >= minimum) or now - started > DEADLINE_S:
            break
    result = {
        "warmup": calls[0],
        "measured": calls[1:],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **last,
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(sum(c["traced"] for c in calls)),
            "spans": tracer.spans,
        }
    return result


if __name__ == "__main__" and sys.argv[1:] != ["--probe"]:
    import json

    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
