"""The ``learn`` workload: paper-scale learns, sequential and P²-MDIE at p=2.

Carcinogenesis, krki and mesh are learned at paper scale with
:func:`repro.ilp.mdie.mdie` (what ``repro learn --p 1`` runs) and with
:func:`repro.parallel.p2mdie.run_p2mdie` on the local backend at p=2
(real processes), dataset by dataset, each sequentially and then at p=2.
The learns repeat in that order until the measuring time is spent; the
first pass over all six always completes.  Each reported wall time is a
sum over datasets of the fastest learn of that dataset and mode: on a
shared host the repeated learns do identical work at whatever speed the
neighbours leave, and the fastest is the one they disturbed least.

The datasets are the canonical paper-scale instances (generator seed 0),
learned in a fixed order, whatever ``--seed`` says.  The amount of work
per instance differs by up to 30% between generator seeds, which no
bound could absorb, and the peak RSS of the process depends on the order
the datasets are learned in (68.6 against 72.7 MiB).
"""

from __future__ import annotations

import os
import tempfile
import time

import common
from common import metric

P = 2
MODES = ("seq", "p2")


def _datasets():
    from repro.datasets import make_dataset

    return {
        name: make_dataset(name, seed=common.PAPER_SEED, scale="paper")
        for name in common.LEARN_DATASETS
    }


def _warm_up() -> None:
    """One small-scale carcinogenesis learn in each mode, not timed.

    The first learn in a process pays one-time costs the repeated learns
    do not (paper-scale carcinogenesis: 1.7-2.3 s first, 1.2-1.5 s after),
    so without this the first pass would rarely give a mode's fastest
    learn.
    """
    from repro.datasets import make_dataset
    from repro.ilp.mdie import mdie
    from repro.parallel.p2mdie import run_p2mdie

    ds = make_dataset("carcinogenesis", seed=common.PAPER_SEED, scale="small")
    mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=common.PAPER_SEED)
    run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=P, seed=common.PAPER_SEED,
               backend="local")


def _setup(repeats: int):
    """Generate the datasets ``repeats`` times; (median seconds, datasets)."""
    times = []
    data = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        data = _datasets()
        times.append(time.perf_counter() - t0)
    return common.median(times), data


class _Learns:
    """Learns run back to back, each checked against its golden theory."""

    def __init__(self, data, order, record_trace: bool = False, tracer=None):
        self.data = data
        self.order = order
        self.record_trace = record_trace
        self.tracer = tracer
        #: (mode, dataset) -> wall seconds of each learn.
        self.walls: dict = {(m, d): [] for d in order for m in MODES}
        self.elapsed = 0.0
        self.attempted = 0
        self.errors: list[str] = []
        #: exact counts of the first learn of each (mode, dataset).
        self.counts: dict = {}
        self.count_errors: list[str] = []
        #: dataset -> P2Result of its last p=2 learn.
        self.p2_results: dict = {}

    def run(self, budget_s: float) -> "_Learns":
        """One pass over every (dataset, mode), then more until ``budget_s``."""
        plan = [(m, d) for d in self.order for m in MODES]
        t0 = time.perf_counter()
        i = 0
        while i < len(plan) or time.perf_counter() - t0 < budget_s:
            self._learn(*plan[i % len(plan)])
            i += 1
        self.elapsed = time.perf_counter() - t0
        self._label("")
        return self

    def _learn(self, mode: str, name: str) -> None:
        from repro.ilp.mdie import mdie
        from repro.parallel.p2mdie import run_p2mdie

        ds = self.data[name]
        self._label(f"{mode}.{name}")
        t0 = time.perf_counter()
        if mode == "seq":
            res = mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=common.PAPER_SEED)
        else:
            res = run_p2mdie(
                ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=P,
                seed=common.PAPER_SEED, backend="local", record_trace=self.record_trace,
            )
        self.walls[(mode, name)].append(time.perf_counter() - t0)
        self._check(name, mode, res.theory)
        counts = {"store_evals": res.cache_hits + res.cache_misses}
        if mode == "seq":
            counts["engine_ops"] = res.ops
        else:
            self.p2_results[name] = res
            counts["messages"] = res.comm.messages
            counts["bytes"] = res.comm.bytes_total
        for k, v in counts.items():
            key = f"{mode}.{name}.{k}"
            first = self.counts.setdefault(key, v)
            if v != first:
                self.count_errors.append(
                    f"exact count {key}: a repeated learn gave {v}, the first {first}")

    def _label(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.label = label

    def _check(self, name: str, mode: str, theory) -> None:
        self.attempted += 1
        algo = "mdie" if mode == "seq" else "p2"
        want = common.golden_text(name, "paper", common.PAPER_SEED, algo)
        if common.theory_text(theory) != want:
            what = "sequential" if mode == "seq" else "p=2 local (golden is the p=2 sim theory)"
            self.errors.append(f"{name}: {what} theory differs from golden {algo}")

    def wall(self, mode: str, name: str) -> float:
        """The fastest of the repeated learns: they do identical work (the
        exact counts check it), so any excess over it is interference."""
        return min(self.walls[(mode, name)])

    def total(self, mode: str) -> float:
        """Σ over datasets of the fastest learn time in ``mode``."""
        return sum(self.wall(mode, d) for d in self.order)

    def learns(self) -> int:
        return sum(len(v) for v in self.walls.values())


def _e2e(runs: _Learns, setup_s: float, rss: float) -> dict:
    return {
        "p50_ms": metric(1000.0 * runs.total("seq"), "ms"),
        "tail_ms": metric(1000.0 * runs.total("p2"), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


def _details(runs: _Learns) -> dict:
    out = {
        "learn_s": metric(runs.total("seq"), "s"),
        "learn_p2_s": metric(runs.total("p2"), "s"),
        "learns": metric(runs.learns(), "count"),
        "measured_s": metric(runs.elapsed, "s"),
    }
    for (mode, name) in runs.walls:
        out[f"{mode}_s.{name}"] = metric(runs.wall(mode, name), "s")
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    del seed  # the learn inputs are fixed; see the module docstring
    order = list(common.LEARN_DATASETS)
    # Generation takes ~0.4 s, so the median of seven keeps it steady; a
    # traced run compares one set-up with one set-up.
    setup_s, data = _setup(1 if trace else 7)
    _warm_up()
    runs = _Learns(data, order).run(seconds / 2 if trace else seconds)
    rss = common.peak_rss_mib_self()
    count_errors = runs.count_errors + common.check_exact_counts("learn.untraced", runs.counts)
    errors = runs.errors + count_errors
    # Operations: every learn (its theory checked) and the exact-count check.
    attempted = runs.attempted + 1
    failed = len(runs.errors) + (1 if count_errors else 0)
    result = {
        "metrics": _e2e(runs, setup_s, rss),
        "details": _details(runs),
    }
    layer_source = "none"
    if trace:
        layers, learn_errors, count_errors, traced_attempted, source = _traced(
            order, result["metrics"])
        errors += learn_errors + count_errors
        attempted += traced_attempted + 1
        failed += len(learn_errors) + (1 if count_errors else 0)
        result["metrics"] = layers
        layer_source = source
    result.update(
        errors=errors,
        correct=not errors,
        attempted=attempted,
        failed=failed,
        meta=common.provenance(trace, layer_source),
    )
    return result


# -- traced run -----------------------------------------------------------------


def _traced(order, untraced: dict):
    """One traced pass plus a traced set-up; per-layer metrics."""
    import json

    import layers as L
    from tracer import Tracer, merge_records

    tracer = Tracer()
    common.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="spans-", dir=str(common.OUT)) as child_dir:
        tracer.install(child_dir=child_dir)
        try:
            t_setup, data_t = _setup(repeats=1)
            tracer.reset()
            runs = _Learns(data_t, order, record_trace=True, tracer=tracer).run(0.0)
            parent = tracer.snapshot()
        finally:
            tracer.uninstall()
        children = []
        for fname in sorted(os.listdir(child_dir)):
            with open(os.path.join(child_dir, fname)) as fh:
                children.append(json.load(fh))
    rss = common.peak_rss_mib_self()
    merged = merge_records([parent] + children)
    traced_e2e = _e2e(runs, t_setup, rss)
    count_errors = runs.count_errors + common.check_exact_counts(
        "learn.traced", L.learn_exact_counts(merged, runs))
    metrics = L.learn_layers(merged, runs)
    metrics.update(L.overhead(traced_e2e, untraced))
    L.fill_missing(metrics)
    spans_file = common.OUT / "learn-spans.json"
    spans_file.write_text(json.dumps(merged["spans"]))
    source = (
        f"spans: parent process + {len(children)} forked worker records"
        if children
        else "spans: parent process only (no worker records came back)"
    )
    return metrics, list(runs.errors), count_errors, runs.attempted, source
