"""Layer tracing from outside the program: wrap public functions, record spans.

:func:`install` replaces a fixed set of the program's functions and
methods with timing wrappers, in every loaded ``repro`` module that holds
a reference to them.  Each wrapper pushes a frame on a per-thread stack,
so on exit it knows its parent and how much of its interval its
children covered:

* every wrapped call adds its duration to its function's inclusive time
  (outermost occurrence only, so recursion is not counted twice) and its
  self time (duration minus children) to its layer;
* coarse functions (a learn, a search, a query, a shard) also keep one
  span ``(name, start, end, parent, thread, label)`` in memory; hot
  leaves called up to millions of times (a proof, a parse, a codec call)
  only aggregate ``(calls, seconds)`` so tracing stays affordable.

Engines and example stores created while tracing are tracked so their
work counters (engine ops, memo hits, cache hits) can be summed exactly.

Forked local-backend workers inherit the wrappers.  The wrapper around
the backend's child entry point resets the inherited state when the
child starts and writes the child's record to a file when it ends, so
worker spans come home too.  Everything is written out only at the end.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Optional

#: (qualified target, span name, layer, keep spans).  Targets are
#: "module:attr" or "module:Class.method"; targets sharing a span name
#: count as one function (the outermost call is timed).
TARGETS = (
    ("repro.logic.engine:Engine.prove_body", "prove", "logic", False),
    ("repro.logic.parser:parse_term", "parse_term", "logic", False),
    ("repro.ilp.coverage:coverage_eval", "coverage_eval", "ilp", False),
    ("repro.ilp.store:ExampleStore.evaluate", "store_evaluate", "ilp", False),
    ("repro.ilp.coverage:theory_covered_bits", "theory_eval", "ilp", False),
    ("repro.ilp.search:learn_rule", "learn_rule", "ilp", True),
    ("repro.ilp.bottom:build_bottom", "saturate", "ilp", True),
    ("repro.ilp.bottom:build_bottom_cached", "saturate", "ilp", True),
    ("repro.ilp.mdie:mdie", "mdie", "ilp", True),
    ("repro.parallel.wire:encode_always", "wire_encode", "parallel", False),
    ("repro.parallel.wire:decode", "wire_decode", "parallel", False),
    ("repro.parallel.p2mdie:run_p2mdie", "run_p2mdie", "parallel", True),
    ("repro.backend.local:LocalProcessBackend.run", "local_backend_run", "backend", True),
    ("repro.service.server:Service._op_query", "query_request", "service", True),
    ("repro.service.server:Service.open_query_stream", "query_stream_request", "service", True),
    ("repro.service.query:QueryEngine.query", "query", "service", True),
    ("repro.service.query:QueryEngine.query_stream", "query_stream_open", "service", True),
    ("repro.service.query:QueryStream._run_shard", "query_shard", "service", True),
)

#: modules imported before patching, so every by-name import is visible.
MODULES = (
    "repro.logic.engine", "repro.logic.parser", "repro.logic.io",
    "repro.ilp.coverage", "repro.ilp.store", "repro.ilp.search",
    "repro.ilp.bottom", "repro.ilp.mdie", "repro.ilp.theory",
    "repro.parallel.wire", "repro.parallel.p2mdie", "repro.parallel.worker",
    "repro.parallel.master", "repro.backend.local",
    "repro.service.query", "repro.service.server", "repro.service.wiremsg", "repro.service.registry",
)


class _ThreadState:
    __slots__ = ("stack", "incl", "calls", "layer_self", "spans", "tid")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list = []
        self.incl: dict = {}
        self.calls: dict = {}
        self.layer_self: dict = {}
        self.spans: list = []


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.label = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.engines: list = []
        self.stores: list = []
        self.search_nodes: dict = {}
        self._baseline: dict = {}
        self.rank: Optional[int] = None
        self._originals: list = []

    # -- recording --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, layer: str, fn, keep_span: bool):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0 = frame[1]
                dur = t1 - t0
                key = (name, tracer.label)
                st.calls[key] = st.calls.get(key, 0) + 1
                if not any(f[0] == name for f in stack):
                    st.incl[key] = st.incl.get(key, 0.0) + dur
                lkey = (layer, tracer.label)
                st.layer_self[lkey] = st.layer_self.get(lkey, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if keep_span:
                    parent = stack[-1][0] if stack else None
                    st.spans.append((name, t0, t1, parent, st.tid, tracer.label))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- aggregation ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data record of everything recorded so far in this process."""
        incl: dict = {}
        calls: dict = {}
        layer_self: dict = {}
        spans: list = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for (name, label), v in list(st.incl.items()):
                incl.setdefault(label, {})[name] = incl.get(label, {}).get(name, 0.0) + v
            for (name, label), v in list(st.calls.items()):
                calls.setdefault(label, {})[name] = calls.get(label, {}).get(name, 0) + v
            for (layer, label), v in list(st.layer_self.items()):
                layer_self.setdefault(label, {})[layer] = (
                    layer_self.get(label, {}).get(layer, 0.0) + v
                )
            spans.extend(st.spans)
        return {
            "pid": os.getpid(),
            "rank": self.rank,
            "incl_s": incl,
            "calls": calls,
            "layer_self_s": layer_self,
            "spans": spans,
            "counters": self.counters(),
        }

    def counters(self) -> dict:
        """Work counters of tracked engines and stores, by label."""
        out: dict = {}
        for label, eng in self.engines:
            base = self._baseline.get(id(eng), (0, 0, 0))
            c = out.setdefault(label, _zero_counters())
            c["engine_ops"] += eng.total_ops - base[0]
            c["memo_hits"] += eng.memo_hits - base[1]
            c["memo_misses"] += eng.memo_misses - base[2]
        for label, store in self.stores:
            base = self._baseline.get(id(store), (0, 0, 0))
            c = out.setdefault(label, _zero_counters())
            c["store_hits"] += store.cache_hits() - base[0]
            c["store_misses"] += store.cache_misses() - base[1]
            c["inherited_evals"] += store.inherited_evals() - base[2]
        for label, n in self.search_nodes.items():
            out.setdefault(label, _zero_counters())["search_nodes"] += n
        return out

    def reset(self) -> None:
        """Forget everything recorded (engines and stores stay referenced
        only through the returned snapshot's numbers)."""
        with self._lock:
            self._states = []
        self._local = threading.local()
        self.engines = []
        self.stores = []
        self.search_nodes = {}
        self._baseline = {}

    def start_child(self, rank: int) -> None:
        """Called first thing in a forked worker: drop the parent's record,
        keep counting the engines and stores the child inherited from where
        they stand now."""
        inherited_e = [e for _, e in self.engines]
        inherited_s = [s for _, s in self.stores]
        self.reset()
        self.rank = rank
        for eng in inherited_e:
            self._baseline[id(eng)] = (eng.total_ops, eng.memo_hits, eng.memo_misses)
            self.engines.append((self.label, eng))
        for store in inherited_s:
            self._baseline[id(store)] = (
                store.cache_hits(), store.cache_misses(), store.inherited_evals()
            )
            self.stores.append((self.label, store))

    # -- patching ---------------------------------------------------------------

    def install(self, child_dir: Optional[str] = None) -> None:
        """Wrap every target in every loaded ``repro`` module."""
        import importlib
        import sys

        for mod in MODULES:
            importlib.import_module(mod)
        for target, name, layer, keep in TARGETS:
            modname, attr = target.split(":")
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, layer, orig, keep))
                self._originals.append((cls, meth, orig))
            else:
                orig = getattr(module, attr)
                self._replace_everywhere(orig, self.wrap(name, layer, orig, keep))
        self._track_instances()
        self._wrap_search_nodes()
        if child_dir is not None:
            self._wrap_child_main(child_dir)

    def _replace_everywhere(self, orig, wrapped) -> None:
        import sys

        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapped)
                    self._originals.append((module, attr, orig))

    def _track_instances(self) -> None:
        from repro.ilp.store import ExampleStore
        from repro.logic.engine import Engine

        tracer = self

        def tracking(orig, bucket: str):
            def init(obj, *args, **kwargs):
                orig(obj, *args, **kwargs)
                getattr(tracer, bucket).append((tracer.label, obj))

            return init

        for cls, bucket in ((Engine, "engines"), (ExampleStore, "stores")):
            orig = cls.__dict__["__init__"]
            cls.__init__ = tracking(orig, bucket)
            self._originals.append((cls, "__init__", orig))

    def _wrap_search_nodes(self) -> None:
        """Count ``SearchResult.nodes_generated`` of every search, by label."""
        import sys

        tracer = self
        search = sys.modules["repro.ilp.search"]
        inner = search.learn_rule  # already the timing wrapper

        def learn_rule(*args, **kwargs):
            result = inner(*args, **kwargs)
            tracer.search_nodes[tracer.label] = (
                tracer.search_nodes.get(tracer.label, 0) + result.nodes_generated
            )
            return result

        learn_rule.__wrapped__ = inner
        self._replace_everywhere(inner, learn_rule)

    def _wrap_child_main(self, child_dir: str) -> None:
        import repro.backend.local as local

        tracer = self
        orig = local._child_main

        def child_main(proc, *args, **kwargs):
            tracer.start_child(proc.rank)
            try:
                return orig(proc, *args, **kwargs)
            finally:
                path = os.path.join(child_dir, f"child-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(tracer.snapshot(), fh)

        local._child_main = child_main
        self._originals.append((local, "_child_main", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals = []


def _zero_counters() -> dict:
    return {
        "engine_ops": 0, "memo_hits": 0, "memo_misses": 0,
        "store_hits": 0, "store_misses": 0, "inherited_evals": 0,
        "search_nodes": 0,
    }


def merge_records(records: list) -> dict:
    """Sum several process records into one (per label)."""
    incl: dict = {}
    calls: dict = {}
    layer_self: dict = {}
    counters: dict = {}
    spans: list = []
    for rec in records:
        for label, d in rec["incl_s"].items():
            tgt = incl.setdefault(label, {})
            for k, v in d.items():
                tgt[k] = tgt.get(k, 0.0) + v
        for label, d in rec["calls"].items():
            tgt = calls.setdefault(label, {})
            for k, v in d.items():
                tgt[k] = tgt.get(k, 0) + v
        for label, d in rec["layer_self_s"].items():
            tgt = layer_self.setdefault(label, {})
            for k, v in d.items():
                tgt[k] = tgt.get(k, 0.0) + v
        for label, d in rec["counters"].items():
            tgt = counters.setdefault(label, _zero_counters())
            for k, v in d.items():
                tgt[k] = tgt.get(k, 0) + v
        spans.extend(tuple(s) for s in rec["spans"])
    return {
        "incl_s": incl, "calls": calls, "layer_self_s": layer_self,
        "counters": counters, "spans": spans,
    }


def total(by_label: dict, key: str, labels=None):
    """Sum ``key`` over labels (all when ``labels`` is None)."""
    return sum(
        d.get(key, 0) for label, d in by_label.items() if labels is None or label in labels
    )
