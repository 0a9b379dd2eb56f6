"""Run one repetition of one workload in this (fresh) process.

    python3 perfbench/worker.py QLAB_ROOT INPUTS_JSON OUT_DIR [--trace]

QLAB_ROOT is the directory that holds the ``qlab`` package to exercise:
``src`` for the program under test, ``perfbench/reference`` for the frozen
seed-commit copy that supplies reference outputs.  The workload writes its
report or tables under OUT_DIR; the result (timings, per-operation
latencies, outputs for the correctness check, peak RSS and, with --trace,
the span metrics) goes to OUT_DIR/result.json.

Each repetition is its own process so that qlab's process-wide caches start
empty, as they do for a user running ``qlab``, and so that peak RSS is the
workload's own.  A ``speed.SpeedProbe`` samples the machine's speed while
the workload runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import sys
import time

from spans import Tracer
from speed import SpeedProbe

def _run_verify(inputs: dict, out_dir: str) -> dict:
    import qlab
    from qlab import SuiteConfig, VerificationReport, run_suite

    cfgs = [SuiteConfig(suite=s, q_values=tuple(inputs["q_values"]),
                        alpha_values=tuple(inputs["alpha_values"]),
                        n_max=inputs["n_max"], dim=inputs["dim"])
            for s in inputs["suites"]]
    t0 = time.perf_counter()
    reports = [run_suite(cfg, tool_version=qlab.__version__) for cfg in cfgs]
    if len(reports) == 1:
        report = reports[0]
    else:
        report = VerificationReport(tool_version=qlab.__version__,
                                    config={**cfgs[0].to_dict(),
                                            "suite": list(inputs["suites"])})
        for r in reports:
            for result in r.results:
                report.add(result)
    t1 = time.perf_counter()
    payload = report.to_json() if inputs["format"] == "json" else report.to_csv()
    with open(os.path.join(out_dir, "report." + inputs["format"]), "w") as fh:
        fh.write(payload)
    t2 = time.perf_counter()

    kind_s: dict[str, float] = {}
    for r in report.results:
        kind_s[r.name] = kind_s.get(r.name, 0.0) + r.runtime_ms / 1e3
    checks_s = sum(kind_s.values())
    # checks run in report order; place each one's end in time by the
    # running sum of runtimes, spreading the time between checks evenly
    op_end, done = [], 0.0
    stretch = (t1 - t0) / checks_s if checks_s > 0 else 0.0
    for r in report.results:
        done += r.runtime_ms / 1e3
        op_end.append(t0 + done * stretch)
    return {
        "wall_s": t2 - t0,
        "op_ms": [r.runtime_ms for r in report.results],
        "op_end": op_end,
        "outputs": [[r.name, r.params, bool(r.passed),
                     r.error.split(":", 1)[0] if r.error else None]
                    for r in report.results],
        "kind_s": kind_s,
        "check_overhead_s": (t1 - t0) - checks_s,
        "serialize_s": t2 - t1,
        "report_bytes": len(payload.encode()),
    }


def _read_table(path: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(value) for _, value in rows[1:]]


def _run_tables(inputs: dict, out_dir: str) -> dict:
    from qlab.cli import main

    table_dir = os.path.join(out_dir, "tables")
    os.makedirs(table_dir)
    op_ms, op_end, status = [], [], []
    # qlab prints one line per failed table on stderr; keep the run's own
    # stderr readable
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        for i, table in enumerate(inputs["tables"]):
            argv = ["table", table["function"], "--sweep",
                    f"{table['sweep']}={table['lo']!r}:{table['hi']!r}:{table['count']}",
                    "--out", os.path.join(table_dir, f"{i}.csv")]
            argv += [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in table["params"].items()]
            start = time.perf_counter()
            try:
                rc = main(argv)
                status.append("ok" if rc == 0 else f"exit{rc}")
            except Exception as exc:  # a raw exception is a measured outcome
                status.append(type(exc).__name__)
            op_end.append(time.perf_counter())
            op_ms.append((op_end[-1] - start) * 1e3)
        wall = time.perf_counter() - t0
    outputs = [[s, _read_table(os.path.join(table_dir, f"{i}.csv")) if s == "ok" else None]
               for i, s in enumerate(status)]
    return {"wall_s": wall, "op_ms": op_ms, "op_end": op_end, "outputs": outputs,
            "table_s": sum(op_ms) / 1e3}


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--trace"):
        print(__doc__, file=sys.stderr)
        return 2
    root, inputs_path, out_dir = (os.path.abspath(a) for a in argv[:3])
    traced = len(argv) == 4
    sys.path.insert(0, root)
    import qlab
    if not os.path.abspath(qlab.__file__).startswith(root + os.sep):
        print(f"qlab was imported from {qlab.__file__}, not from {root}", file=sys.stderr)
        return 2
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    run = _run_verify if inputs["kind"] == "verify" else _run_tables
    with SpeedProbe() as probe:
        result = run(inputs, out_dir)
    # the probe's own time is part of the measured wall time; take it out
    result["wall_s"] -= probe.inside_s
    result["probe"] = [probe.starts, probe.durations]
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.metrics()
        result["call_tree"] = tracer.call_tree()
        if "table_s" in result:
            result["table_overhead_s"] = result["table_s"] - tracer.registered_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
