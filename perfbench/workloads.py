"""Seeded inputs for the three benchmark workloads.

This module imports nothing from qlab: the orchestrator builds inputs here
and hands them to worker processes as JSON, so qlab only ever sees the
generated inputs, never the seed.

Why these workloads:

* ``verify_default`` is exactly ``qlab verify`` (``run_suite(SuiteConfig())``
  plus the JSON report), the headline number of the roadmap.  Almost all of
  its time is quadrature (``qhermite``) and ladder operators
  (``qoscillator``), and its 9 (q, alpha) contexts reuse the float-keyed
  caches heavily.  Its inputs are fixed, so the seed does not change them.
* ``verify_series_grid`` runs the suites that use no quadrature and no
  oscillator code on a seeded 8 x 8 (q, alpha) grid and writes a CSV report.
  Its time goes to the series loops and ``hermite_h``; 64 distinct contexts
  get little cache reuse.
* ``eval_sweep`` calls ``qlab table`` in-process over a seeded mix of
  64-point sweeps: the scalar per-call path with almost no cache reuse,
  where per-call set-up costs and CLI/CSV overhead show.

Draws are stratified (one jittered draw per equal-width stratum, then
shuffled) so that every seed covers the whole parameter range evenly and
the amount of work varies little from seed to seed, while each value is
still uniform on its range.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_default", "verify_series_grid", "eval_sweep")
SCALES = ("full", "tiny")

Q_RANGE = (0.2, 0.9)
ALPHA_RANGE = (-0.9, 2.5)
SERIES_SUITES = ("qcalculus", "special_functions", "hermite_identities", "kernels")
TABLE_POINTS = 64
TABLE_FUNCTIONS = ("hermite_h", "weight", "phi", "qbessel",
                   "relation_residual", "eigen_residual")
BESSEL_KINDS = ("second_jackson", "hahn_exton", "modified")
RELATION_KINDS = ("generating", "inversion", "forward_shift", "backward_shift",
                  "qdiff", "rodrigues")

# full / tiny sizes: grid side, n_max, number of tables
_SIZES = {
    "full": {"grid": 8, "n_max": 12, "tables": 1000},
    "tiny": {"grid": 2, "n_max": 3, "tables": 12},
}


def _shuffle(rng: random.Random, items: list) -> list:
    # Fisher-Yates on rng.random() alone, whose stream is fixed across
    # Python versions for a given integer seed
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return _shuffle(rng, [lo + (i + rng.random()) * width for i in range(count)])


def _cycled(rng: random.Random, values: list, count: int) -> list:
    """count items cycling through values (each as often as possible), shuffled."""
    return _shuffle(rng, [values[i % len(values)] for i in range(count)])


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """The JSON-serializable inputs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    size = _SIZES[scale]
    rng = random.Random(seed)
    if workload == "verify_default":
        if scale == "full":
            # the SuiteConfig defaults, spelled out so that the report
            # records them; this is what `qlab verify` runs
            return {"kind": "verify", "suites": ["all"], "format": "json",
                    "q_values": [0.3, 0.5, 0.8], "alpha_values": [-0.5, 0.25, 1.3],
                    "n_max": 8, "dim": 12}
        return {"kind": "verify", "suites": ["all"], "format": "json",
                "q_values": [0.5], "alpha_values": [-0.5], "n_max": 2, "dim": 4}
    if workload == "verify_series_grid":
        side = size["grid"]
        return {"kind": "verify", "suites": list(SERIES_SUITES), "format": "csv",
                "q_values": _stratified(rng, *Q_RANGE, side),
                "alpha_values": _stratified(rng, *ALPHA_RANGE, side),
                "n_max": size["n_max"], "dim": 12}
    return {"kind": "table", "tables": _table_mix(rng, size["tables"])}


#: the variants each table function cycles through; an even share of each
#: keeps the amount of work nearly the same for every seed
_VARIANTS = {
    "hermite_h": [{"n": n} for n in range(41)],
    "weight": [{}],
    "phi": [{"n": n} for n in range(13)],
    "qbessel": [{"kind": k} for k in BESSEL_KINDS],
    "relation_residual": [{"kind": k, "n": n} for k in RELATION_KINDS for n in range(9)],
    "eigen_residual": [{"n": n} for n in range(9)],
}


def _table_mix(rng: random.Random, count: int) -> list[dict]:
    """An even mix of the table functions and their variants, with (q, alpha)
    stratified within each function and kind."""
    funcs = _cycled(rng, list(TABLE_FUNCTIONS), count)
    params: dict[str, list[dict]] = {}
    for func in TABLE_FUNCTIONS:
        variants = [dict(v) for v in _cycled(rng, _VARIANTS[func], funcs.count(func))]
        # dict.fromkeys, not a set: the order must not depend on string hashing
        for kind in dict.fromkeys(v.get("kind") for v in variants):
            group = [v for v in variants if v.get("kind") == kind]
            for v, q, alpha in zip(group, _stratified(rng, *Q_RANGE, len(group)),
                                   _stratified(rng, *ALPHA_RANGE, len(group))):
                v.update(q=q, alpha=alpha)
        params[func] = variants
    tables = []
    for func in funcs:
        p = params[func].pop()
        lo, hi = -0.5 - 2.5 * rng.random(), 0.5 + 2.5 * rng.random()
        if func == "qbessel":
            p["order"] = -0.9 + 3.9 * rng.random()
            if p["kind"] != "modified":
                # the prefactored kinds are defined for x > 0 only
                lo = 0.05 + 0.45 * rng.random()
        tables.append({"function": func, "sweep": "x", "lo": lo, "hi": hi,
                       "count": TABLE_POINTS, "params": p})
    return tables
