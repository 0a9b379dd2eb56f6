"""qlab benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify_default, verify_series_grid, eval_sweep, or ``all``
(every workload in turn, then one combined result line).  Run it from any
directory; it works on the checkout it lives in and writes only under
``.bench_out/`` and ``.bench_cache/`` there.

With --trace 0 the run measures, with tracing off:

* setup_s      median time from starting a fresh interpreter to the end of
               ``import qlab``, over interpreters started between the
               repetitions, apart from the workload;
* wall_s       median wall time of one repetition of the workload's fixed
               work; repetitions run one after another (a closed loop with
               one caller), each in a fresh single-threaded process, as
               many as fill S seconds at REP_SECONDS per repetition, so
               that the operations attempted, and those failed, depend on
               the seed and S alone, never on the machine's speed;
* op_p50_ms,   median and 99th percentile latency of one operation (one
  op_p99_ms    check, from ``CheckResult.runtime_ms``, or one ``qlab table``
               call), pooled over the repetitions;
* ok_share     1 - failed / attempted operations, where a failed operation
               is a failing or erroring check, a raised exception, or an
               output that disagrees with the seed-commit reference;
* peak_rss_mb  median peak resident set size of the workload's process.

Every time is scaled to a nominal machine speed measured while it runs
(see ``speed.py``); the unscaled times are printed on a ``# unscaled:``
line.

With --trace 1 the run makes one untraced and one traced repetition and
reports the per-layer metrics (see ``spans.py`` and README.md).

Every output is checked against the frozen seed-commit copy of qlab in
``perfbench/reference``, run on the same inputs outside the timed region
and cached per input set in ``.bench_cache/``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import span_metric_names  # noqa: E402
from speed import NOMINAL_PROBE_S  # noqa: E402
from workloads import SCALES, WORKLOADS, make_inputs  # noqa: E402

SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"

SETUP_SAMPLES = 6
SETUP_PER_REP = 2
#: seconds one full-size repetition takes, with its set-up samples, on a
#: 2-vCPU KVM guest (rounded up); --seconds S runs floor(S / this) of them
REP_SECONDS = {"verify_default": 24.0, "verify_series_grid": 9.0, "eval_sweep": 7.0}
WORKER_TIMEOUT_S = 150
#: scale-normalized |a - b| / (1 + |a| + |b|) within which an output value
#: agrees with the reference; the suites' own quadrature tolerance
VALUE_TOL = 1e-6

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p99_ms", "ms"), ("ok_share", "share"), ("peak_rss_mb", "MB"))
#: the check kinds that dominate verify_default's time
HEAVY_KINDS = ("h_selfadjointness", "continuous_offdiagonal", "repeated_raising",
               "continuous_diagonal_consistency", "discrete_orthogonality",
               "monomial_delta_rule", "hermite_relation_generating",
               "hermite_relation_rodrigues", "poisson_kernel_at_one")
PER_LAYER = tuple(span_metric_names()) + tuple(
    (f"suites.kind.{k}.s", "s") for k in HEAVY_KINDS) + (
    ("suites.check_overhead_s", "s"), ("report.serialize_s", "s"),
    ("report.bytes", "B"), ("cli.table_overhead_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"))

#: an operation's time is scaled by the machine's speed within this many
#: seconds of its end (see speed.py)
SCALE_WINDOW_S = 0.1


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to qlab failing)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def environment() -> dict:
    """Versions, commit, core count and src/ size of this run."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or commit
        except OSError:  # no git program
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "commit": commit,
            "nproc": os.cpu_count(), "src_lines": src_lines}


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to the end of ``import qlab``,
    scaled to the nominal speed."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "speed.py"), str(SRC)],
                          capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"import qlab failed:\n{proc.stderr}")
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    end, probe_s, inside_s = map(float, proc.stdout.split())
    return (end - t0 - inside_s) * NOMINAL_PROBE_S / probe_s


def run_worker(qlab_root: Path, inputs_path: Path, out_dir: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(qlab_root), str(inputs_path),
           str(out_dir)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


def reference_outputs(workload: str, inputs: dict, inputs_path: Path) -> list:
    """Seed-commit outputs for these inputs, computed once and cached."""
    key = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:20]
    path = CACHE / f"{workload}-{key}.json"
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    outputs = run_worker(REFERENCE, inputs_path, OUT / f"{workload}-reference",
                         traced=False)["outputs"]
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(outputs, fh)
    tmp.replace(path)
    return outputs


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) / (1.0 + abs(a) + abs(b)) <= VALUE_TOL
    return a == b


def _same_params(p: dict, r: dict) -> bool:
    return p.keys() == r.keys() and all(_close(p[k], r[k]) for k in p)


def compare(kind: str, outputs: list, reference: list) -> tuple[int, int]:
    """(failed, mismatched) operations of one repetition.

    A check is failed when it fails, errors, or is not the reference's
    check at that position; it is mismatched (a wrong answer) when it is
    not the reference's check or the reference passed it and it did not.
    A table is failed when it raises or its values disagree with the
    reference's; a table the reference could not compute is not checked.
    """
    failed = mismatched = abs(len(outputs) - len(reference))
    for out, ref in zip(outputs, reference):
        if kind == "verify":
            name, params, passed, _ = out
            structural = name != ref[0] or not _same_params(params, ref[1])
            failed += structural or not passed
            mismatched += structural or (ref[2] and not passed)
            continue
        status, values = out
        if status != "ok":
            failed += 1
            mismatched += ref[0] == "ok"
        elif ref[0] == "ok":
            wrong = len(values) != len(ref[1]) or not all(
                _close(a, b) for a, b in zip(values, ref[1]))
            failed += wrong
            mismatched += wrong
    return failed, mismatched


def _speed_scales(rep: dict) -> tuple[float, list[float]]:
    """Scale factors to the nominal speed, from the ratios NOMINAL_PROBE_S /
    probe duration.

    The whole repetition's factor is their mean: probes are evenly spaced
    in time, so the mean weighs each moment of the work by how fast the
    machine ran then, and one probe slowed by preemption barely moves it.
    An operation's factor is the median over the probes within
    SCALE_WINDOW_S of its end (the whole one if there are none), which is
    steadier over the few probes of a short window.
    """
    starts, durations = rep["probe"]
    ratios = [NOMINAL_PROBE_S / d for d in durations]
    whole = statistics.fmean(ratios)
    per_op = []
    for end in rep["op_end"]:
        window = ratios[bisect.bisect_left(starts, end - SCALE_WINDOW_S):
                        bisect.bisect_right(starts, end + SCALE_WINDOW_S)]
        per_op.append(statistics.median(window) if window else whole)
    return whole, per_op


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def _end_to_end(reps: list[dict], setup: list[float], failed: int, attempted: int) -> dict:
    scales = [_speed_scales(rep) for rep in reps]
    op_ms = sorted(ms * scale for rep, (_, per_op) in zip(reps, scales)
                   for ms, scale in zip(rep["op_ms"], per_op))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rep["wall_s"] * whole
                                    for rep, (whole, _) in zip(reps, scales)),
        "op_p50_ms": _percentile(op_ms, 0.50),
        "op_p99_ms": _percentile(op_ms, 0.99),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def _per_layer(plain: dict, traced: dict) -> dict:
    """Span metrics from the traced repetition; the values qlab records
    itself (check runtimes, report size) from the untraced one."""
    scale_plain, scale_traced = _speed_scales(plain)[0], _speed_scales(traced)[0]
    metrics = {name: value * scale_traced if _is_time(name) else value
               for name, value in traced["spans"].items()}
    kind_s = plain.get("kind_s", {})
    metrics.update({f"suites.kind.{k}.s": kind_s.get(k, 0.0) * scale_plain
                    for k in HEAVY_KINDS})
    metrics["suites.check_overhead_s"] = plain.get("check_overhead_s", 0.0) * scale_plain
    metrics["report.serialize_s"] = plain.get("serialize_s", 0.0) * scale_plain
    metrics["report.bytes"] = plain.get("report_bytes", 0)
    metrics["cli.table_overhead_s"] = traced.get("table_overhead_s", 0.0) * scale_traced
    metrics["trace.wall_s"] = traced["wall_s"] * scale_traced
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / (plain["wall_s"] * scale_plain)
    return metrics


def repetitions(workload: str, seconds: float) -> int:
    """How many untraced repetitions fill ``seconds``: a fixed count, not a
    timed loop, so that a slower or faster machine attempts the same
    operations and meets the same failures."""
    return max(1, math.floor(seconds / REP_SECONDS[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    inputs = make_inputs(workload, seed, scale)
    OUT.mkdir(exist_ok=True)
    inputs_path = OUT / f"{workload}-inputs.json"
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)
    reference = reference_outputs(workload, inputs, inputs_path)

    rep_dir = OUT / f"{workload}-run"
    reps, setup = [], []
    if trace:
        reps = [run_worker(SRC, inputs_path, rep_dir, traced=False),
                run_worker(SRC, inputs_path, rep_dir, traced=True)]
    else:
        # the first interpreter only fills the bytecode caches; set-up is
        # then sampled between repetitions, so that its median spans the
        # whole run rather than one moment of the machine's load
        setup_sample()
        for _ in range(repetitions(workload, seconds)):
            setup += [setup_sample() for _ in range(SETUP_PER_REP)]
            reps.append(run_worker(SRC, inputs_path, rep_dir, traced=False))
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())

    attempted = failed = mismatched = 0
    for rep in reps:
        f, m = compare(inputs["kind"], rep["outputs"], reference)
        attempted += len(rep["outputs"])
        failed += f
        mismatched += m

    if trace:
        metrics, units = _per_layer(*reps), dict(PER_LAYER)
        with open(OUT / f"trace-{workload}-{seed}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed, "environment": environment(),
                       "metrics": metrics, "call_tree": reps[1]["call_tree"]}, fh, indent=1)
    else:
        metrics, units = _end_to_end(reps, setup, failed, attempted), dict(END_TO_END)
    unscaled = {"wall_s": [rep["wall_s"] for rep in reps],
                "probe_us": [statistics.median(rep["probe"][1]) * 1e6 for rep in reps]}
    return {"correct": mismatched == 0, "attempted": attempted, "failed": failed,
            "reps": len(reps), "unscaled": unscaled,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _print_result(workload: str, seed: int, result: dict) -> None:
    print(f"# {workload} seed={seed} repetitions={result['reps']} "
          f"operations={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print(f"# unscaled: {json.dumps(result['unscaled'])}")
    for name, m in result["metrics"].items():
        print(f"{workload}.{name} {m['value']!r} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "qlab" / "__init__.py").is_file():
        print(f"error: no qlab sources at {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), file=sys.stderr)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), args.scale)
            _print_result(workload, args.seed, results[workload])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
