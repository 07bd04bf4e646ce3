"""The traced pass: the timed inputs replayed in-process, layer by layer.

The service stack is wired in-process exactly as ``repro serve``
wires it (result cache, two-worker fork pool, admission, coalescer,
surrogate store, metrics observer) and each request line goes through
``FitService.handle_line``; ``study-grid`` runs ``StudyScheduler``
directly.  Two passes replay the same inputs, each on fresh durable
state and a freshly forked pool:

1. untraced, for the end-to-end time per operation without hooks;
2. traced: the benchmark rebinds the module attributes and methods
   that one layer looks up to call the next (``parse_request``,
   ``ResultCache.get``, ``transport.api.answer``, ...) to wrappers
   that record spans.  Nothing in the program is edited.

A span is (id, parent, request id, name, start, end, info).  Spans
live in memory; pool workers send theirs back through a pipe after
each query and they are re-parented under the ``compute.execute``
span that dispatched the query.  ``os.fsync`` is wrapped too, so
every durable write is counted against the innermost open span.

A layer's self time is its spans' time minus the time their child
spans cover; the request span's own self time is ``wire.residual_ms``.
Self times plus the residual must sum to the traced end-to-end time
within SUM_TOLERANCE, otherwise the spans do not nest and the pass
is reported incorrect.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import importlib
import itertools
import json
import multiprocessing
import os
import stat
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import wire
import workloads
from workloads import SERVICE_STREAMS, study_points, study_spec

#: Allowed relative gap between (sum of self times + residual) and
#: the traced end-to-end time.
SUM_TOLERANCE = 0.01
#: Replayed operation counts are rounded down to whole blocks, so the
#: cost mix (and every per-operation count) is the same on every run.
BLOCK = {
    "surrogate-cold": 2 * workloads.STRATA,
    "repeat-hot": workloads.MISS_PERIOD,
    "live-batch": workloads.STRATA,
}
STORE_LOADS = 3

#: Span name -> layer whose self time it is charged to.
LAYER = {
    "request": "wire.residual",
    "studies.run": "wire.residual",
    "protocol.parse": "protocol",
    "protocol.encode": "protocol",
    "admission.admit": "admission",
    "coalesce": "coalesce",
    "cache.get": "cache",
    "cache.put": "cache",
    "compute.execute": "compute",
    "compute.kernel": "kernel",
    "facade.answer": "facade",
    "surrogate.lookup": "surrogate",
    "spectra.build": "spectra",
    "batch.run": "batch",
    "multigroup.solve": "multigroup",
    "fit.report": "fit",
    "studies.evaluate": "studies",
    "studies.ledger_append": "ledger",
    "studies.store_put": "store",
}
SELF_LAYERS = sorted(set(LAYER.values()) - {"wire.residual"})
ROOTS = ("request", "studies.run")


class Tracer:
    """In-memory span recorder shared by the hooks of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # (request id, span id, span info) of the innermost open span.
        self.current = contextvars.ContextVar(
            "perfbench_span", default=(0, 0, None)
        )
        self.ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.sizes: Dict[tuple, int] = {}
        self.computes: List[int] = []
        self.missing: List[str] = []
        self.queue = multiprocessing.get_context("fork").SimpleQueue()
        self.inbox: Dict[str, list] = {}
        self.lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its info."""
        rid, parent, _ = self.current.get()
        sid = next(self.ids)
        info: dict = {}
        token = self.current.set((rid, sid, info))
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            self.current.reset(token)
            self.spans.append((sid, parent, rid, name, start, end, info))

    @contextlib.contextmanager
    def request(self, rid: int):
        """Make spans opened in the body belong to request ``rid``."""
        token = self.current.set((rid, 0, None))
        try:
            yield
        finally:
            self.current.reset(token)

    def adopt_worker_spans(self, key: str) -> None:
        """Re-parent a pool worker's spans under the open span."""
        with self.lock:
            while not self.queue.empty():
                worker_key, spans = self.queue.get()
                self.inbox[worker_key] = spans
            spans = self.inbox.pop(key, None)
        if not spans:
            return
        rid, parent, _ = self.current.get()
        remap = {span[0]: next(self.ids) for span in spans}
        for sid, up, _, name, start, end, info in spans:
            self.spans.append(
                (remap[sid], remap.get(up, parent), rid, name, start, end, info)
            )


TRACER: Optional[Tracer] = None
_ORIGINAL: Dict[str, Callable] = {}


def _payload_key(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k != "blocked"}, sort_keys=True
    )


def kernel(payload: dict) -> dict:
    """Stand-in for the service's pool entry point (picklable by name).

    In a pool worker the spans recorded under it are shipped back to
    the parent, keyed by the payload, before the result is returned.
    """
    tracer = TRACER
    if os.getpid() == tracer.pid:
        with tracer.span("compute.kernel"):
            return _ORIGINAL["kernel"](payload)
    tracer.spans = []
    with tracer.request(0):
        with tracer.span("compute.kernel"):
            result = _ORIGINAL["kernel"](payload)
    tracer.queue.put((_payload_key(payload), tracer.spans))
    tracer.spans = []
    return result


def _fsync(fd: int) -> None:
    _ORIGINAL["fsync"](fd)
    info = TRACER.current.get()[2]
    if info is None:
        return
    info["fsync"] = info.get("fsync", 0) + 1
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode):
        key = (st.st_dev, st.st_ino)
        grown = st.st_size - TRACER.sizes.get(key, 0)
        TRACER.sizes[key] = st.st_size
        info["bytes"] = info.get("bytes", 0) + max(0, grown)


# -- hooks ------------------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (callers look names up in their own module)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(module_name: str, path: str):
    """The object at ``module_name`` + ``path``; None (and noted as a
    missing hook) when the program no longer has it."""
    try:
        found = importlib.import_module(module_name)
    except ImportError:
        found = None
    for part in path.split("."):
        found = getattr(found, part, None)
    if found is None:
        TRACER.missing.append(f"{module_name}.{path}")
    return found


def _timed(original, name: str, note=None):
    def wrapper(*args, **kwargs):
        with TRACER.span(name) as info:
            try:
                result = original(*args, **kwargs)
            except Exception:
                info["error"] = 1
                raise
            if note is not None:
                note(info, args, result)
            return result

    return wrapper


def _hook(module_name: str, path: str, name: str, note=None) -> None:
    """Time ``path``: a method is replaced on its class, a function is
    rebound in every module that holds it."""
    original = _resolve(module_name, path)
    if original is None:
        return
    wrapper = _timed(original, name, note)
    owner, _, attr = path.rpartition(".")
    if owner:
        setattr(_resolve(module_name, owner), attr, wrapper)
    else:
        _rebind(original, wrapper)


def _note_answer(info, args, served) -> None:
    info["policy"] = args[0].engine
    info["engine"] = served.provenance.engine


def _note_lookup(info, args, hit) -> None:
    info["hit"] = hit is not None


def _note_cache_get(info, args, cached) -> None:
    info["hit"] = cached is not None


def _note_batch(info, args, result) -> None:
    info["histories"] = int(result.source)
    info["stderr"] = float(result.thermal_albedo_stderr())


def _note_multigroup(info, args, result) -> None:
    info["iterations"] = int(result.iterations)


def _hook_execute(cls) -> None:
    original = cls.execute

    def execute(self, query):
        with TRACER.span("compute.execute"):
            outcome = original(self, query)
            TRACER.adopt_worker_spans(_payload_key(query.to_dict()))
            return outcome

    cls.execute = execute


def _hook_coalescer(cls) -> None:
    original = cls.get_or_compute

    async def get_or_compute(self, key, compute):
        with TRACER.span("coalesce"):
            context = TRACER.current.get()

            def job():
                TRACER.computes.append(1)
                token = TRACER.current.set(context)
                try:
                    return compute()
                finally:
                    TRACER.current.reset(token)

            return await original(self, key, job)

    cls.get_or_compute = get_or_compute


def install_hooks() -> None:
    """Wrap every layer boundary; must run before the pool forks."""
    # Load the scheduler first: it binds evaluate_shard at import.
    _resolve("repro.studies.scheduler", "StudyScheduler")
    _hook("repro.service.protocol", "parse_request", "protocol.parse")
    _hook("repro.service.protocol", "encode_response", "protocol.encode")
    _hook(
        "repro.service.admission",
        "AdmissionController.admit",
        "admission.admit",
    )
    coalescer = _resolve("repro.service.coalesce", "Coalescer")
    if coalescer is not None:
        _hook_coalescer(coalescer)
    _hook(
        "repro.service.cache", "ResultCache.get", "cache.get", _note_cache_get
    )
    _hook("repro.service.cache", "ResultCache.put", "cache.put")
    executor = _resolve("repro.service.compute", "QueryExecutor")
    if executor is not None:
        _hook_execute(executor)
    entry = _resolve("repro.service.compute", "_execute_query")
    if entry is not None:
        _ORIGINAL["kernel"] = entry
        sys.modules["repro.service.compute"]._execute_query = kernel
    _hook("repro.transport.api", "answer", "facade.answer", _note_answer)
    _hook(
        "repro.transport.surrogate.store",
        "SurrogateStore.lookup",
        "surrogate.lookup",
        _note_lookup,
    )
    _hook("repro.spectra.beamlines", "rotax_spectrum", "spectra.build")
    _hook(
        "repro.transport.batch",
        "BatchTransportEngine.run",
        "batch.run",
        _note_batch,
    )
    _hook(
        "repro.transport.multigroup.solver",
        "DeterministicTransportEngine.run",
        "multigroup.solve",
        _note_multigroup,
    )
    _hook("repro.core.fit", "FitCalculator.report", "fit.report")
    _hook("repro.studies.evaluate", "evaluate_shard", "studies.evaluate")
    _hook(
        "repro.studies.ledger", "StudyLedger.append", "studies.ledger_append"
    )
    _hook(
        "repro.studies.store", "ShardResultStore.put", "studies.store_put"
    )
    _ORIGINAL["fsync"] = os.fsync
    os.fsync = _fsync


# -- in-process passes ------------------------------------------------------


def _service(workdir: Path, tag: str):
    """The ``repro serve`` stack, wired in-process."""
    from repro.obs import core as obs
    from repro.obs.metrics import MetricsRegistry
    from repro.service.admission import AdmissionController
    from repro.service.cache import ResultCache
    from repro.service.compute import QueryExecutor
    from repro.service.server import FitService

    executor = QueryExecutor(n_workers=wire.SERVER_WORKERS)
    executor.warm()
    service = FitService(
        executor=executor,
        cache=ResultCache(workdir / f"cache-{tag}"),
        admission=AdmissionController(),
    )
    observer = obs.Observer(trace_path=None, registry=MetricsRegistry())
    return service, obs.observing(observer)


async def _drive(service, requests, connections: int, traced: bool):
    """Closed-loop clients; returns [(index, request, response, seconds)]
    where ``index`` is the request's position in ``requests``."""
    done = []
    source = enumerate(requests)

    async def client() -> None:
        for index, request in source:
            rid = index + 1
            line = wire.encode(rid, request).decode()
            if traced:
                with TRACER.request(rid):
                    with TRACER.span("request"):
                        start = time.perf_counter()
                        response = await service.handle_line(line)
                        elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                response = await service.handle_line(line)
                elapsed = time.perf_counter() - start
            done.append((index, request, response, elapsed))

    await asyncio.gather(*(client() for _ in range(connections)))
    return done


def _service_pass(workload, warm, requests, workdir, tag, traced):
    service, observing = _service(workdir, tag)
    try:
        with observing:
            asyncio.run(_drive(service, warm, 1, False))
            if traced:
                # Warm-up spans belong to no timed request.
                TRACER.spans.clear()
                TRACER.computes.clear()
            done = asyncio.run(
                _drive(service, requests, workloads.CONNECTIONS[workload], traced)
            )
    finally:
        service.close()
    return done


def _for_seconds(seconds: float, stream):
    """The stream, cut off ``seconds`` after its first item."""
    deadline = None
    for request in stream:
        now = time.perf_counter()
        if deadline is None:
            deadline = now + seconds
        elif now >= deadline:
            return
        yield request


def _study_pass(spec_dict, studies, workdir, tag, traced):
    from repro.studies.scheduler import StudyScheduler
    from repro.studies.spec import StudySpec
    from repro.transport.multigroup import clear_collapse_cache

    spec = StudySpec.from_dict(spec_dict)
    reports, elapsed = [], []
    for index in range(studies):
        run_dir = workdir / f"{tag}-{index}"
        # Every study starts as cold as a fresh `repro studies run`.
        clear_collapse_cache()
        scheduler = StudyScheduler(
            spec, ledger_path=run_dir / "study.ledger", store_root=run_dir / "store"
        )
        start = time.perf_counter()
        if traced:
            with TRACER.request(index + 1):
                with TRACER.span("studies.run"):
                    outcome = scheduler.run()
        else:
            outcome = scheduler.run()
        elapsed.append(time.perf_counter() - start)
        reports.append(checks.normalised(outcome.report.to_dict()))
    return reports, elapsed


# -- span arithmetic --------------------------------------------------------


def _covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total, reach = 0.0, start
    for child_start, child_end in sorted(children):
        child_start, child_end = max(child_start, reach), min(child_end, end)
        if child_end > child_start:
            total += child_end - child_start
            reach = child_end
    return total


def _self_times(spans):
    """(span, self seconds) for every span."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[4], span[5]))
    return [
        (span, span[5] - span[4] - _covered(span[4], span[5], children[span[0]]))
        for span in spans
    ]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans, ops: int, shards: int, computes: int
) -> Dict[str, tuple]:
    """Per-layer metrics from the traced pass's spans."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    def durations(name):
        return [s[5] - s[4] for s in by_name[name]]

    def per_call(name, unit):
        scale = {"us": 1e6, "ms": 1e3}[unit]
        return _mean(durations(name)) * scale, unit

    def total(key, *names):
        return sum(s[6].get(key, 0) for name in names for s in by_name[name])

    self_by_layer = defaultdict(float)
    for span, self_s in _self_times(spans):
        self_by_layer[LAYER.get(span[3], "wire.residual")] += self_s
    # Only request roots count as end-to-end time; any other parentless
    # span is a stray that the sum check below exposes.
    e2e_s = sum(s[5] - s[4] for s in spans if s[1] == 0 and s[3] in ROOTS)
    summed_s = sum(self_by_layer.values())

    kernels = {s[1]: s[5] - s[4] for s in by_name["compute.kernel"]}
    hops = [
        s[5] - s[4] - kernels.get(s[0], 0.0) for s in by_name["compute.execute"]
    ]
    lookups = {s[1]: s[6].get("hit") for s in by_name["surrogate.lookup"]}
    answers = by_name["facade.answer"]
    misses = defaultdict(int)
    for span in answers:
        info = span[6]
        if (
            info.get("policy") in ("auto", "surrogate")
            and info.get("engine") != "surrogate"
        ):
            hit = lookups.get(span[0])
            misses[
                "no-store" if hit is None
                else "bound-exceeds-target" if hit
                else "no-surface"
            ] += 1
    batch = by_name["batch.run"]
    foms = [
        1.0 / (s[6]["stderr"] ** 2 * (s[5] - s[4]))
        for s in batch
        if s[6].get("stderr", 0.0) > 0.0
    ]
    gets = by_name["cache.get"]
    calls = len(by_name["coalesce"])
    n_answers = max(1, len(answers))
    studies_writes = (
        "studies.ledger_append", "studies.store_put",
        "studies.evaluate", "studies.run",
    )
    metrics = {
        "protocol.parse_us": per_call("protocol.parse", "us"),
        "protocol.encode_us": per_call("protocol.encode", "us"),
        "admission.admit_us": per_call("admission.admit", "us"),
        "admission.rejected": (total("error", "admission.admit"), "count"),
        "coalesce.joined_ratio": (
            (calls - computes) / calls if calls else 0.0, "ratio",
        ),
        "cache.get_us": per_call("cache.get", "us"),
        "cache.hit_ratio": (
            _mean(1.0 if s[6].get("hit") else 0.0 for s in gets), "ratio",
        ),
        "cache.put_us": per_call("cache.put", "us"),
        "cache.fsync_per_op": (
            total("fsync", "cache.get", "cache.put") / ops, "count",
        ),
        "cache.bytes_per_op": (
            total("bytes", "cache.get", "cache.put") / ops, "B",
        ),
        "compute.execute_ms": per_call("compute.execute", "ms"),
        "compute.pool_hop_ms": (_mean(hops) * 1e3, "ms"),
        "facade.answer_ms": per_call("facade.answer", "ms"),
        "facade.surrogate_hit_ratio": (
            sum(s[6].get("engine") == "surrogate" for s in answers) / n_answers,
            "ratio",
        ),
        "surrogate.lookup_us": per_call("surrogate.lookup", "us"),
        "spectra.build_ms": per_call("spectra.build", "ms"),
        "spectra.builds_per_op": (
            len(by_name["spectra.build"]) / ops, "count",
        ),
        "batch.run_ms": per_call("batch.run", "ms"),
        "batch.histories_per_s": (
            total("histories", "batch.run")
            / max(1e-12, sum(durations("batch.run"))),
            "1/s",
        ),
        "batch.fom": (statistics.median(foms) if foms else 0.0, "1/s"),
        "multigroup.solve_ms": per_call("multigroup.solve", "ms"),
        "multigroup.iterations": (
            _mean(s[6].get("iterations", 0) for s in by_name["multigroup.solve"]),
            "count",
        ),
        "fit.report_us": per_call("fit.report", "us"),
        "studies.evaluate_ms": per_call("studies.evaluate", "ms"),
        "studies.ledger_append_ms": per_call("studies.ledger_append", "ms"),
        "studies.store_put_ms": per_call("studies.store_put", "ms"),
        "studies.ledger_fsync_per_shard": (
            total("fsync", "studies.ledger_append") / max(1, shards), "count",
        ),
        "studies.store_fsync_per_shard": (
            total("fsync", "studies.store_put") / max(1, shards), "count",
        ),
        "studies.fsync_per_shard": (
            total("fsync", *studies_writes) / max(1, shards), "count",
        ),
        "studies.bytes_per_shard": (
            total("bytes", *studies_writes) / max(1, shards), "B",
        ),
        "wire.residual_ms": (self_by_layer["wire.residual"] / ops * 1e3, "ms"),
    }
    for reason in ("no-surface", "bound-exceeds-target", "no-store"):
        metrics[f"facade.miss.{reason}"] = (misses[reason] / n_answers, "ratio")
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_ms"] = (self_by_layer[layer] / ops * 1e3, "ms")
    metrics["trace.e2e_ms"] = (e2e_s / ops * 1e3, "ms")
    metrics["trace.sum_error"] = (
        abs(summed_s - e2e_s) / e2e_s if e2e_s else 0.0,
        "ratio",
    )
    return metrics


def _store_load_ms(artifact: Optional[Path]) -> float:
    """Median time for a fresh SurrogateStore to load the artifact."""
    if artifact is None:
        return 0.0
    from repro.transport.surrogate.store import SurrogateStore

    loads = []
    for _ in range(STORE_LOADS):
        start = time.perf_counter()
        SurrogateStore(artifact).digests()
        loads.append(time.perf_counter() - start)
    return statistics.median(loads) * 1e3


# -- the pass ---------------------------------------------------------------


def _study_replay(workload, seed, half, workdir, outcome):
    """Plain studies for ``half`` seconds, then as many traced ones."""
    spec = study_spec(seed)
    points = study_points(spec)
    deadline = time.perf_counter() + half
    reports, plain = [], []
    while not plain or time.perf_counter() < deadline:
        got, took = _study_pass(spec, 1, workdir, f"plain{len(plain)}", False)
        reports += got
        plain += took
    install_hooks()
    got, _ = _study_pass(spec, len(plain), workdir, "traced", True)
    spans = list(TRACER.spans)
    reports += got
    ops = points * len(plain)
    outcome.attempted = ops
    for problem in checks.study_mismatches(reports[0], points, seed):
        outcome.wrong_answer(problem)
    for index, report in enumerate(reports[1:], 1):
        if report != reports[0]:
            outcome.wrong_answer(f"study report {index} differs from run 0")
    shards = len(plain) * -(-points // spec["shard_size"])
    return spans, ops, shards, sum(plain)


def _service_replay(workload, seed, half, workdir, outcome):
    """Plain requests for ``half`` seconds, then the same ones traced."""
    warm, stream = SERVICE_STREAMS[workload](seed)
    plain = _service_pass(
        workload, warm, _for_seconds(half, stream), workdir, "plain", False
    )
    block = BLOCK[workload]
    ops = max(block, len(plain) // block * block)
    _, stream = SERVICE_STREAMS[workload](seed)
    replay = list(itertools.islice(stream, ops))
    install_hooks()
    done = _service_pass(workload, warm, replay, workdir, "traced", True)
    spans = list(TRACER.spans)
    outcome.attempted = len(done)
    first: Dict[tuple, dict] = {}
    for _, request, line, _ in done:
        response = json.loads(line)
        if response.get("ok"):
            checks.check_answer(workload, request, response, outcome, first)
        else:
            outcome.failed += 1
    kept = [elapsed for index, _, _, elapsed in plain if index < ops]
    return spans, ops, 0, sum(kept) / len(kept) * ops


def run(workload, seed, seconds, workdir, artifact) -> checks.Outcome:
    """Untraced then traced replay of one workload's inputs."""
    global TRACER
    outcome = checks.Outcome()
    _, server_cpus = wire.cpu_split()
    wire.pin(server_cpus)
    if artifact is not None:
        from repro.transport import api

        api.configure(str(artifact))
    store_load_ms = _store_load_ms(artifact)
    TRACER = Tracer()
    replay = _study_replay if workload == "study-grid" else _service_replay
    spans, ops, shards, untraced_s = replay(
        workload, seed, seconds / 2.0, workdir, outcome
    )
    metrics = layer_metrics(spans, ops, shards, len(TRACER.computes))
    metrics["surrogate.store_load_ms"] = (store_load_ms, "ms")
    metrics["trace.untraced_e2e_ms"] = (untraced_s / ops * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (
        metrics["trace.e2e_ms"][0] / metrics["trace.untraced_e2e_ms"][0] - 1,
        "ratio",
    )
    metrics["trace.ops"] = (ops, "count")
    if metrics["trace.sum_error"][0] > SUM_TOLERANCE:
        outcome.wrong_answer(
            "layer self times plus the residual miss the traced"
            f" end-to-end time by {metrics['trace.sum_error'][0]:.4f}"
            f" (tolerance {SUM_TOLERANCE})"
        )
    if TRACER.missing:
        outcome.notes.append(f"hooks not found: {TRACER.missing}")
    outcome.metrics = dict(sorted(metrics.items()))
    return outcome
