"""The ``serve-read`` workload: open-loop queries against a live
``python -m repro serve`` subprocess.

Set-up publishes the golden sequential carcinogenesis and mesh theories
(paper scale) to a fresh registry, starts the server and waits for the
first answered query on each theory.  It is repeated three times; the
last server is warmed up (one query per pooled batch and request path,
not timed) and measured.

The load generator is this process: one thread per connection, at most
``nproc`` of each (a JSON-lines connection and a wire connection when
``nproc`` >= 2).  Each request is a batch of :data:`BATCH` examples drawn
from a per-theory pool of :data:`POOL` batches; theory, batch and unary
vs streamed (``shards=2``) are drawn per request from ``--seed``.
Requests are sent on a uniform schedule, and latency runs from each
request's scheduled send time, so a stall also delays what comes after.

The window holds a base rate, then a staircase of rates.  After it
every response is checked against an in-process
:class:`~repro.service.query.QueryEngine` reference for the same theory
and batch.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import common
from common import metric

BATCH = 100
#: batches per theory: enough that the tail samples the batch cost
#: distribution instead of the few costliest batches one seed drew
#: (with 16, the base p95 split into seed clusters 20% apart).
POOL = 64
SHARDS = 2
#: the base rate, then a staircase of rates taking the last
#: READ_STAIR_S seconds of the window.  (Interleaving short staircases
#: with the base rate was tried: their backlog leaked into the base.)
READ_BASE_RPS = 25.0
READ_STAIR_S = 10.0
READ_STEPS_RPS = (40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0)
#: latency limit on each staircase step's p90 (a step holds 50-137
#: samples, so its p90 has 5-13 beyond it).
READ_LIMIT_MS = 50.0
STEP_Q = 90
#: a step whose generator lateness grows by more than this has a backlog.
LATE_GROWTH_MS = 25.0
#: the gated tail percentile at the base rate.
TAIL_Q = 90
#: samples the base rate needs for its p99 to have ten beyond it.
MIN_SAMPLES = 1000
#: the base phase is cut into slices of this many samples (two seconds
#: of the base rate).
SLICE = 50
#: how long a server may take to announce its port.
START_TIMEOUT_S = 60.0


@dataclass
class Phase:
    """One stretch of the window at a fixed rate; phase 0 is the base rate."""

    rate: float
    start: float
    dur: float


@dataclass
class Req:
    at: float
    phase: int
    theory: str
    stream: bool
    batch: int


@dataclass
class Sample:
    req: Req
    transport: str
    sched: float
    sent: float
    done: float
    ok: bool
    covered: Optional[int] = None
    frames_covered: Optional[int] = None
    error: str = ""


# -- inputs ---------------------------------------------------------------------


def _datasets():
    from repro.datasets import make_dataset

    return {
        name: make_dataset(name, seed=common.PAPER_SEED, scale="paper")
        for name in common.SERVED_DATASETS
    }


def _pools(data, seed: int) -> dict:
    """Per theory, :data:`POOL` batches of :data:`BATCH` example strings."""
    from repro.logic.parser import term_to_str

    rng = random.Random(f"perfbench-pool-{seed}")
    pools = {}
    for name in sorted(data):
        ds = data[name]
        examples = list(ds.pos) + list(ds.neg)
        pools[name] = [
            [term_to_str(e) for e in rng.sample(examples, BATCH)] for _ in range(POOL)
        ]
    return pools


def _phases(window: float) -> list:
    """The phases of the window, in time order."""
    stair = min(READ_STAIR_S, window / 2)
    base = window - stair
    step = stair / len(READ_STEPS_RPS)
    return [Phase(READ_BASE_RPS, 0.0, base)] + [
        Phase(rate, base + i * step, step) for i, rate in enumerate(READ_STEPS_RPS)
    ]


def _schedule(rng: random.Random, phases, n_conn: int, theories) -> list:
    """Per connection, its requests in send order (uniform arrivals).

    The mix is balanced in every stretch of the window, so each phase
    costs the same whatever the seed: every block of consecutive
    requests holds each (theory, unary/stream) pair once, in a seeded
    order, and each theory walks through a seeded permutation of its
    batch pool.
    """
    per_conn: list = [[] for _ in range(n_conn)]
    combos = [(t, stream) for t in theories for stream in (False, True)]
    block: list = []
    walks = {t: [] for t in theories}

    def next_batch(theory: str) -> int:
        if not walks[theory]:
            walks[theory] = rng.sample(range(POOL), POOL)
        return walks[theory].pop()

    n = 0
    for idx, ph in enumerate(phases):
        rate, start, dur = ph.rate, ph.start, ph.dur
        k = 0
        while start + k / rate < start + dur:
            if not block:
                block = rng.sample(combos, len(combos))
            theory, stream = block.pop()
            per_conn[n % n_conn].append(
                Req(at=start + k / rate, phase=idx, theory=theory, stream=stream,
                    batch=next_batch(theory))
            )
            k += 1
            n += 1
    return per_conn


# -- the server -----------------------------------------------------------------


class Server:
    """One server subprocess on an ephemeral port, with its own registry."""

    def __init__(self, root: str, traced: bool):
        self.root = root
        self.traced = traced
        self.registry_dir = os.path.join(root, "registry")
        self.state_dir = os.path.join(root, "state")
        self.spans_out = os.path.join(root, "server-spans.json")
        self.log_path = os.path.join(root, "server.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> None:
        opts = [
            "--port", "0",
            "--registry-dir", self.registry_dir, "--state-dir", self.state_dir,
        ]
        if self.traced:
            cmd = [sys.executable, str(common.HERE / "launch_server.py"),
                   "--spans-out", self.spans_out, *opts]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *opts]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=common.child_env(), cwd=str(common.ROOT),
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                for line in fh:
                    if line.startswith("% serving on "):
                        self.port = int(line.split()[3].rsplit(":", 1)[1])
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        raise common.BenchError(f"server did not come up; log:\n{self.log()}")

    def log(self) -> str:
        try:
            with open(self.log_path) as fh:
                return fh.read()[-4000:]
        except OSError:
            return ""

    def client(self, transport: str = "json"):
        from repro.service.server import ServiceClient

        return ServiceClient(port=self.port, transport=transport, timeout=10.0,
                             read_timeout=120.0)

    def request(self, payload: dict) -> dict:
        with self.client() as c:
            return c.request(payload)

    def peak_rss_mib(self) -> Optional[float]:
        return common.peak_rss_mib_of(self.proc.pid) if self.proc else None

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.request({"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def record(self) -> Optional[dict]:
        try:
            with open(self.spans_out) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None


def _publish(registry_dir: str, data) -> None:
    """Publish the served golden theories as version 1."""
    from repro.service.registry import TheoryRegistry

    reg = TheoryRegistry(registry_dir)
    for name in sorted(data):
        theory = common.golden_theory(name, "paper", common.PAPER_SEED, "mdie")
        reg.publish(
            name, theory, config_sig=repr(data[name].config),
            provenance={"dataset": name, "seed": str(common.PAPER_SEED), "scale": "paper",
                        "git_sha": "perfbench"},
        )


def _setup(base: str, traced: bool, pools, repeats: int):
    """Set up ``repeats`` times; (median seconds, last server, errors).

    Each set-up generates the datasets, publishes the theories, starts a
    server and waits for the first answered query on each theory.  The
    last server, the one measured, is then warmed up (not timed).
    """
    times = []
    errors: list[str] = []
    server = None
    for i in range(repeats):
        root = os.path.join(base, f"server{i}{'-traced' if traced else ''}")
        t0 = time.perf_counter()
        data = _datasets()
        server = Server(root, traced)
        _publish(server.registry_dir, data)
        server.start()
        try:
            errors += _first_queries(server, data, pools)
            times.append(time.perf_counter() - t0)
            if i == repeats - 1:
                errors += _warm_up(server, data, pools)
        except BaseException:
            server.stop()
            raise
        if i < repeats - 1:
            server.stop()
    return common.median(times), server, errors


def _first_queries(server: Server, data, pools) -> list:
    """The first answered query per theory."""
    errors = []
    with server.client() as c:
        for name in sorted(data):
            resp = c.query(name, pools[name][0], version=1)
            if not resp.get("ok"):
                errors.append(f"setup query on {name} failed: {resp.get('error')}")
    return errors


def _warm_up(server: Server, data, pools) -> list:
    """One query per pooled batch and per request path (shard pool,
    leased engines, codec), so the window starts with warm caches."""
    errors = []
    warm = [("json", False, b) for b in range(1, POOL)] + [
        (transport, stream, 0) for transport in ("json", "wire") for stream in (False, True)
    ]
    clients = {t: server.client(t) for t in ("json", "wire")}
    try:
        for transport, stream, b in warm:
            for name in sorted(data):
                try:
                    _one_request(clients[transport], Req(0.0, -1, name, stream, b),
                                 pools[name][b])
                except (RuntimeError, OSError, ConnectionError) as exc:
                    errors.append(f"warm-up {transport} query on {name} failed: {exc}")
    finally:
        for c in clients.values():
            c.close()
    return errors


# -- the load generator ---------------------------------------------------------


def _covered_bits(flags) -> int:
    bits = 0
    for i, flag in enumerate(flags):
        if flag:
            bits |= 1 << i
    return bits


def _one_request(client, req: Req, examples):
    """Send one query; (covered, frames_covered) or raise on a bad answer."""
    if not req.stream:
        resp = client.query(req.theory, examples, version=1)
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "query failed"))
        if resp.get("n") != len(examples):
            raise RuntimeError(f"answer covers {resp.get('n')} of {len(examples)} examples")
        return _covered_bits(resp["covered"]), None
    frames = 0
    end = None
    for frame in client.query_stream(req.theory, examples, version=1, shards=SHARDS):
        if frame.get("frame") == "shard":
            frames |= _covered_bits(frame["covered"]) << frame["lo"]
        elif frame.get("frame") == "end":
            end = frame
    if end is None or end.get("n") != len(examples):
        raise RuntimeError("stream ended without a complete end frame")
    return _covered_bits(end["covered"]), frames


def _conn_worker(client, transport, reqs, t0, pools, samples):
    for req in reqs:
        due = t0 + req.at
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        try:
            covered, frames = _one_request(client, req, pools[req.theory][req.batch])
            samples.append(Sample(req, transport, due, sent, time.perf_counter(), True,
                                  covered, frames))
        except (RuntimeError, OSError, ConnectionError, ValueError) as exc:
            samples.append(Sample(req, transport, due, sent, time.perf_counter(), False,
                                  error=f"{type(exc).__name__}: {exc}"))
            try:
                client.reconnect()
            except OSError:
                pass


def _drive(server: Server, seed: int, window: float, pools, n_conn: int):
    """Run the open-loop window; (samples, generator facts)."""
    theories = sorted(pools)
    transports = ("json", "wire")[:n_conn]
    rng = random.Random(f"perfbench-serve-read-{seed}")
    phases = _phases(window)
    per_conn = _schedule(rng, phases, n_conn, theories)
    clients = [server.client(t) for t in transports]
    samples: list[list[Sample]] = [[] for _ in transports]
    try:
        t0 = time.perf_counter() + 0.05
        threads = [
            threading.Thread(
                target=_conn_worker,
                args=(clients[i], transports[i], per_conn[i], t0, pools, samples[i]),
                name=f"perfbench-gen-{transports[i]}",
            )
            for i in range(n_conn)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        t1 = time.perf_counter()
    finally:
        for c in clients:
            c.close()
    gen = {"threads": len(threads), "connections": len(clients), "t0": t0, "t1": t1,
           "phases": phases}
    return [s for per in samples for s in per], gen


# -- checks ---------------------------------------------------------------------


def _references(samples, pools) -> dict:
    """In-process covered bitsets per (theory, batch) seen."""
    from repro.datasets import make_dataset
    from repro.logic.parser import parse_term
    from repro.service.query import QueryEngine

    qe = QueryEngine()
    prepared = {}
    refs = {}
    for key in sorted({(s.req.theory, s.req.batch) for s in samples}):
        theory, batch = key
        if theory not in prepared:
            ds = make_dataset(theory, seed=common.PAPER_SEED, scale="paper")
            th = common.golden_theory(theory, "paper", common.PAPER_SEED, "mdie")
            prepared[theory] = qe.prepare_theory(th, ds.kb, ds.config)
        examples = [parse_term(s) for s in pools[theory][batch]]
        refs[key] = prepared[theory].query(examples).covered
    return refs


def _check(samples, refs) -> tuple[int, list]:
    """(failed, errors) over every query."""
    errors = []
    for s in samples:
        problem = s.error if not s.ok else ""
        if s.ok:
            ref = refs[(s.req.theory, s.req.batch)]
            if s.covered != ref:
                problem = "covered bitset differs from the in-process reference"
            elif s.frames_covered is not None and s.frames_covered != ref:
                problem = "streamed shard frames differ from the in-process reference"
        if problem:
            errors.append(f"{s.transport} {'stream' if s.req.stream else 'unary'} "
                          f"{s.req.theory} batch {s.req.batch}: {problem}")
    return len(errors), errors


# -- metrics --------------------------------------------------------------------


def _late_growth_ms(samples) -> float:
    """Lateness of the last quarter of a phase minus that of the first."""
    xs = sorted(samples, key=lambda s: s.sched)
    q = max(1, len(xs) // 4)
    first = common.median((s.sent - s.sched) for s in xs[:q])
    last = common.median((s.sent - s.sched) for s in xs[-q:])
    return 1000.0 * (last - first)


def _lat_ms(samples) -> list:
    return [1000.0 * (s.done - s.sched) for s in samples]


def _max_rps(samples, phases) -> tuple[float, list]:
    """The staircase knee: the last passing step, interpolated upward.

    The base rate is the first step.  A step passes when its p90 is
    within :data:`READ_LIMIT_MS`, no request failed and the generator's
    lateness grew by at most :data:`LATE_GROWTH_MS`.  The knee is the
    last step of the run of passing steps that starts at the base rate.
    When the step after it failed no request, the knee moves toward that
    step's rate, to where the first of the limits that step broke (p90,
    lateness growth) is crossed on the line between the two steps; a
    failed request keeps the knee at the passing step.  A failing base
    rate gives 0.
    """
    steps = []
    for idx, ph in enumerate(phases):
        mine = [s for s in samples if s.req.phase == idx]
        if not mine:
            continue
        lat = _lat_ms(mine)
        step = {
            "rate": ph.rate, "n": len(mine), "p50_ms": common.percentile(lat, 50),
            "tail_ms": common.percentile(lat, STEP_Q), "failed": sum(not s.ok for s in mine),
            "late_growth_ms": _late_growth_ms(mine),
        }
        step["ok"] = (step["tail_ms"] <= READ_LIMIT_MS and not step["failed"]
                      and step["late_growth_ms"] <= LATE_GROWTH_MS)
        steps.append(step)
    top = -1
    while top + 1 < len(steps) and steps[top + 1]["ok"]:
        top += 1
    if top < 0:
        return 0.0, steps
    knee = steps[top]
    if top + 1 == len(steps) or steps[top + 1]["failed"]:
        return knee["rate"], steps
    nxt = steps[top + 1]
    # Each broken limit gives the share of the way to the next step at
    # which it is crossed; the passing step is within it, so 0 <= share < 1.
    shares = [
        (limit - knee[key]) / (nxt[key] - knee[key])
        for key, limit in (("tail_ms", READ_LIMIT_MS), ("late_growth_ms", LATE_GROWTH_MS))
        if nxt[key] > limit
    ]
    return knee["rate"] + min(shares) * (nxt["rate"] - knee["rate"]), steps


def _best_slice(samples, q: float) -> float:
    """The lowest, over consecutive slices of :data:`SLICE` requests, of
    each slice's ``q`` percentile.

    On a shared host a core alternates between its own speed and a state
    about 1.6 times slower, for 0.5 to 12 s at a time, as a neighbour's
    work comes and goes.  A whole-run percentile measures how much of the
    run the neighbour took; the quietest two-second slice measures the
    program, as the fastest of repeated timings does.
    """
    xs = sorted(samples, key=lambda s: s.sched)
    parts = max(1, len(xs) // SLICE)
    size = len(xs) // parts
    return min(common.percentile(_lat_ms(xs[i * size:(i + 1) * size]), q) for i in range(parts))


def _e2e(samples, gen, setup_s: float, rss: float, trace: bool):
    """(end-to-end metrics, details, validity errors)."""
    errors = []
    base = [s for s in samples if s.req.phase == 0]
    lat = _lat_ms(base)
    rate, steps = _max_rps(samples, gen["phases"])
    details = {"max_rps": metric(rate, "req/s")}
    for st in steps[1:]:
        details[f"step.{int(st['rate'])}.p{STEP_Q}_ms"] = metric(st["tail_ms"], "ms")
    if len(base) < MIN_SAMPLES and not trace:
        errors.append(f"only {len(base)} samples at the base rate; the run needs {MIN_SAMPLES}")
    late = [1000.0 * (s.sent - s.sched) for s in base]
    details.update({
        "query_p50_ms": metric(common.percentile(lat, 50), "ms"),
        "query_p90_ms": metric(common.percentile(lat, 90), "ms"),
        "query_p99_ms": metric(common.percentile(lat, 99), "ms"),
        "base_samples": metric(len(base), "count"),
        "gen_late_ms.p50": metric(common.percentile(late, 50), "ms"),
        "gen_late_ms.max": metric(max(late), "ms"),
        "gen_late_ms.all_max": metric(max(1000.0 * (s.sent - s.sched) for s in samples), "ms"),
        "gen_threads": metric(gen["threads"], "count"),
        "gen_connections": metric(gen["connections"], "count"),
    })
    nproc = len(os.sched_getaffinity(0))
    if gen["threads"] > nproc or gen["connections"] > nproc:
        errors.append(f"generator used {gen['threads']} threads and {gen['connections']} "
                      f"connections on {nproc} CPUs")
    metrics = {
        "p50_ms": metric(_best_slice(base, 50), "ms"),
        "tail_ms": metric(_best_slice(base, TAIL_Q), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return metrics, details, errors


# -- one pass -------------------------------------------------------------------


def _pass(seed, window, base_dir, traced, pools, n_conn, repeats):
    setup_s, server, errors = _setup(base_dir, traced, pools, repeats)
    try:
        counted0 = _queries_counted(server) if traced else 0.0
        samples, gen = _drive(server, seed, window, pools, n_conn)
        rss = server.peak_rss_mib() or 0.0
        extra = {}
        if traced:
            extra["counted_window"] = _queries_counted(server) - counted0
            extra.update(_server_side(server, pools))
    finally:
        server.stop()
    return {
        "setup_s": setup_s, "samples": samples, "gen": gen, "rss": rss,
        "errors": errors, "record": server.record() if traced else None, "extra": extra,
    }


def _server_side(server: Server, pools) -> dict:
    """Counters read from the live server after the window (traced pass)."""
    before = server.request({"op": "stats"})
    out = {"stats": before}
    # Which request paths the server's request counter sees: a few queries
    # on each path, reading the counter before and after.
    counted = {}
    theory = sorted(pools)[0]
    for transport in ("json", "wire"):
        with server.client(transport) as c:
            for stream in (False, True):
                n0 = _queries_counted(server)
                for b in range(4):
                    _one_request(c, Req(0.0, -1, theory, stream, b), pools[theory][b])
                counted[f"{transport}.{'stream' if stream else 'unary'}"] = (
                    (_queries_counted(server) - n0) / 4.0
                )
    out["counted"] = counted
    return out


def _queries_counted(server: Server) -> float:
    snap = server.request({"op": "metrics"}).get("metrics", {})
    return float(snap.get("repro_requests_total", {}).get("op=query", 0))


def run(seed: int, seconds: float, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    n_conn = max(1, min(2, nproc))
    common.OUT.mkdir(parents=True, exist_ok=True)
    base_dir = str(common.OUT / f"serve-read-s{seed}-{os.getpid()}")
    shutil.rmtree(base_dir, ignore_errors=True)
    os.makedirs(base_dir)
    try:
        pools = _pools(_datasets(), seed)
        window = seconds / 2 if trace else seconds
        # A traced run compares one set-up with one set-up.
        repeats = 1 if trace else 3
        plain = _pass(seed, window, base_dir, False, pools, n_conn, repeats)
        metrics, details, errors = _e2e(plain["samples"], plain["gen"], plain["setup_s"],
                                        plain["rss"], trace)
        failed, check_errors = _check(plain["samples"], _references(plain["samples"], pools))
        attempted = len(plain["samples"])
        # Validity problems (a failed set-up, too few samples, an oversized
        # generator) fail the run as a whole on top of any failed operation.
        validity = plain["errors"] + errors
        layer_source = "none"
        if trace:
            import layers as L

            traced = _pass(seed, window, base_dir, True, pools, n_conn, repeats=1)
            t_metrics, t_details, t_errors = _e2e(
                traced["samples"], traced["gen"], traced["setup_s"], traced["rss"], trace)
            t_failed, t_check = _check(traced["samples"], _references(traced["samples"], pools))
            attempted += len(traced["samples"])
            failed += t_failed
            validity += traced["errors"] + t_errors
            check_errors += t_check
            details.update({f"traced.{k}": v for k, v in t_details.items()})
            if traced["record"] is None:
                validity.append("the traced server wrote no span record")
                layer_metrics = {}
            else:
                layer_metrics = _serve_layers(traced)
                (common.OUT / "serve-read-spans.json").write_text(
                    json.dumps(traced["record"]["spans"]))
            layer_metrics.update(L.overhead(t_metrics, metrics))
            L.fill_missing(layer_metrics)
            metrics = layer_metrics
            layer_source = "spans: traced server process (launch_server.py)"
        errors = validity + check_errors
        return {
            "metrics": metrics,
            "details": details,
            "errors": errors,
            "correct": not errors,
            "attempted": attempted + 1,
            "failed": failed + (1 if validity else 0),
            "meta": common.provenance(trace, layer_source),
        }
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


#: spans of the server's work on one query request (see _serve_layers).
QUERY_SPANS = ("query_request", "query_stream_request", "query_shard")


def _serve_layers(traced: dict) -> dict:
    import layers as L
    from tracer import merge_records

    rec = merge_records([traced["record"]])
    out = L.common_layers(rec)
    gen = traced["gen"]
    samples = traced["samples"]
    w0, w1 = gen["t0"], gen["t1"]
    # Server busy time on queries inside the window: the union of the spans
    # of query requests (example parsing and evaluation), stream openings
    # and stream shards.  Framing and coding a request or response, in JSON
    # or wire, counts as transport.
    spans = sorted((s[1], s[2]) for s in rec["spans"]
                   if s[0] in QUERY_SPANS and w0 <= s[1] and s[2] <= w1)
    busy = 0.0
    end = float("-inf")
    for a, b in spans:
        if b > end:
            busy += b - max(a, end)
            end = b
    n = len(samples)
    client_ms = sum(1000.0 * (s.done - s.sched) for s in samples) / n if n else 0.0
    out["service.wait_ms"] = client_ms - (1000.0 * busy / n if n else 0.0)
    q = traced["extra"]["stats"].get("query", {})
    hits, misses = q.get("prepared_hits", 0), q.get("prepared_misses", 0)
    out["service.prepared_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counted = traced["extra"]["counted"]
    for path, ratio in counted.items():
        out[f"service.requests_counted_ratio.{path}"] = ratio
    out["service.requests_counted_ratio"] = traced["extra"]["counted_window"] / n if n else 0.0
    return {k: metric(v, L.UNITS[k]) for k, v in out.items()}
