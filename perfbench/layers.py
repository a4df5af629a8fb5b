"""Per-layer metrics derived from a traced run.

Every traced run reports every name in :data:`PER_LAYER` (the list in
``BENCHMARK.json``).  A layer a workload does not exercise reports 0 —
the prediction for it is "no change" (see ``perfbench/README.md``).
"""

from __future__ import annotations

import common
from common import metric
from tracer import total

DATASETS = common.LEARN_DATASETS
PATHS = ("json.unary", "json.stream", "wire.unary", "wire.stream")
E2E = (
    ("p50_ms", "ms"), ("tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
)


def _per_dataset(name: str, unit: str) -> list:
    return [(name, unit)] + [(f"{name}.{d}", unit) for d in DATASETS]


#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    _per_dataset("logic.engine_ops", "count")
    + [
        ("logic.memo_hit_ratio", "ratio"),
        ("logic.prove_s", "s"),
        ("logic.parse_s", "s"),
        ("logic.self_s", "s"),
    ]
    + _per_dataset("ilp.coverage_calls", "count")
    + [("ilp.coverage_s", "s")]
    + _per_dataset("ilp.search_nodes", "count")
    + [
        ("ilp.search_s", "s"),
        ("ilp.saturate_s", "s"),
        ("ilp.store_hit_ratio", "ratio"),
        ("ilp.inherited_evals", "count"),
        ("ilp.theory_eval_s", "s"),
        ("ilp.self_s", "s"),
        ("parallel.messages", "count"),
        ("parallel.bytes", "count"),
        ("parallel.encode_s", "s"),
        ("parallel.decode_s", "s"),
        ("parallel.self_s", "s"),
        ("backend.startup_s", "s"),
        ("backend.worker_idle_frac", "ratio"),
        ("service.wait_ms", "ms"),
        ("service.prepared_hit_ratio", "ratio"),
        ("service.requests_counted_ratio", "ratio"),
    ]
    + [(f"service.requests_counted_ratio.{p}", "ratio") for p in PATHS]
    + [("service.self_s", "s")]
    + [(f"obs.trace_overhead.{m}", "ratio") for m, _ in E2E]
)
UNITS = dict(PER_LAYER)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def common_layers(merged: dict) -> dict:
    """Metrics every workload derives the same way from its trace."""
    incl, calls, selfs, ctr = (
        merged["incl_s"], merged["calls"], merged["layer_self_s"], merged["counters"]
    )
    out = {
        "logic.engine_ops": total(ctr, "engine_ops"),
        "logic.memo_hit_ratio": _ratio(
            total(ctr, "memo_hits"),
            total(ctr, "memo_hits") + total(ctr, "memo_misses"),
        ),
        "logic.prove_s": total(incl, "prove"),
        "logic.parse_s": total(incl, "parse_term"),
        "ilp.coverage_calls": total(calls, "coverage_eval"),
        "ilp.coverage_s": total(incl, "store_evaluate"),
        "ilp.search_nodes": total(ctr, "search_nodes"),
        "ilp.search_s": total(incl, "learn_rule"),
        "ilp.saturate_s": total(incl, "saturate"),
        "ilp.store_hit_ratio": _ratio(
            total(ctr, "store_hits"),
            total(ctr, "store_hits") + total(ctr, "store_misses"),
        ),
        "ilp.inherited_evals": total(ctr, "inherited_evals"),
        "ilp.theory_eval_s": total(incl, "theory_eval"),
        "parallel.encode_s": total(incl, "wire_encode"),
        "parallel.decode_s": total(incl, "wire_decode"),
    }
    for layer in ("logic", "ilp", "parallel", "service"):
        out[f"{layer}.self_s"] = total(selfs, layer)
    return out


def learn_layers(merged: dict, runs) -> dict:
    """Per-layer metrics of one traced pass of the learn workload."""
    out = common_layers(merged)
    ctr, calls = merged["counters"], merged["calls"]
    for d in DATASETS:
        labels = (f"seq.{d}", f"p2.{d}")
        out[f"logic.engine_ops.{d}"] = total(ctr, "engine_ops", labels)
        out[f"ilp.coverage_calls.{d}"] = total(calls, "coverage_eval", labels)
        out[f"ilp.search_nodes.{d}"] = total(ctr, "search_nodes", labels)
    results = [runs.p2_results[d] for d in runs.order]
    out["parallel.messages"] = sum(r.comm.messages for r in results)
    out["parallel.bytes"] = sum(r.comm.bytes_total for r in results)
    out["backend.startup_s"] = sum(
        runs.wall("p2", d) - runs.p2_results[d].seconds for d in runs.order)
    busy = sum(iv.end - iv.start for r in results for iv in r.trace if iv.rank >= 1)
    makespan = sum(r.seconds for r in results)
    out["backend.worker_idle_frac"] = 1.0 - _ratio(busy, 2 * makespan)
    return {k: metric(v, UNITS[k]) for k, v in out.items()}


def learn_exact_counts(merged: dict, runs) -> dict:
    """Deterministic counters of one traced pass, per label."""
    out = {}
    ctr, calls = merged["counters"], merged["calls"]
    for label in sorted(set(ctr) | set(calls)):
        if not label:
            continue
        out[f"{label}.engine_ops"] = ctr.get(label, {}).get("engine_ops", 0)
        out[f"{label}.search_nodes"] = ctr.get(label, {}).get("search_nodes", 0)
        out[f"{label}.coverage_calls"] = calls.get(label, {}).get("coverage_eval", 0)
    for key, v in runs.counts.items():
        if key.endswith((".messages", ".bytes")):
            out[key] = v
    return out


def overhead(traced: dict, untraced: dict) -> dict:
    """``obs.trace_overhead.<m>``: traced ÷ untraced − 1 per end-to-end metric."""
    return {
        f"obs.trace_overhead.{m}": metric(
            _ratio(traced[m]["value"], untraced[m]["value"]) - 1.0
            if untraced[m]["value"] else 0.0,
            "ratio",
        )
        for m, _ in E2E
    }


def fill_missing(metrics: dict) -> None:
    """Report 0 for every per-layer metric the workload does not exercise."""
    for name, unit in PER_LAYER:
        metrics.setdefault(name, metric(0.0, unit))
