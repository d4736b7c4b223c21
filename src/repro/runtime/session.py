"""Warm-worker sweep sessions: the runtime's one dispatcher.

Every :class:`RunSpec` batch -- :func:`run_specs`, the CLI, the
experiments, the campaign engine -- runs through a :class:`SweepSession`.
The runtime's contract: given a list of specs, return one
:class:`PointResult` per spec **in spec order**, regardless of which
worker finished first.  The experiment shapes the repo is built on --
fault-placement enumerations, seed replicas and load batches -- issue
hundreds of short deterministic points, so the fixed costs (pool
spinup, per-spec pickle/IPC, per-spec topology construction) would
dominate the actual simulation.  A session amortizes all three:

* **persistent warm pool** -- worker processes survive across ``run()``
  calls, so pool spinup and interpreter warmup are paid once per session,
  not once per sweep;
* **chunked scheduling** -- specs ship in size-balanced contiguous chunks
  (one pickle/IPC round-trip per chunk instead of per spec), streamed
  back through an optional progress callback while the merged result list
  stays in spec order;
* **per-worker network reuse** -- each process memoizes built simulators
  in a :class:`NetworkCache` keyed by :meth:`RunSpec.network_key` and
  winds them back with :meth:`CycleEngine.reset` between specs instead of
  reconstructing the topology (fingerprint parity with a fresh build is
  tested in ``tests/sim/test_reset.py`` / ``tests/runtime``);
* **result cache** -- give the session a
  :class:`~repro.runtime.cache.ResultCache` and already-known specs skip
  simulation entirely, streaming straight from disk.

The runtime's determinism contract is unchanged: serial, chunked-parallel
and cache-replayed runs of the same specs produce byte-identical results
(``wall_time`` aside -- and a cache hit even preserves the *original*
wall time, so a fully cached rerun's JSON is byte-identical too).

A session can also keep a **run ledger**
(:class:`~repro.obs.telemetry.SweepLedger`): pass ``ledger=`` (or assign
:attr:`SweepSession.ledger` between runs) and every ``run()`` records its
chunk plan, per-spec outcome and serving telemetry -- which cache tier
served each spec (``result`` / ``reuse`` / ``fresh``), on which worker,
with what wall/cpu time.  Worker-side timings ride back with the chunk
results as plain picklable tuples and the per-spec records are written in
spec order regardless of completion order, so the ledger inherits the
determinism contract: serial, chunked and cache-replayed ledgers are
identical after :func:`~repro.obs.telemetry.strip_ledger`.
"""

from __future__ import annotations

import concurrent.futures as _futures
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.telemetry import SweepLedger, spec_outcome
from .cache import ResultCache
from .spec import PointResult, RunSpec

#: built networks kept per process.  Large enough that a full single-fault
#: enumeration on the standard shapes stays resident even when its specs
#: are split across a few workers; small enough to bound memory on
#: many-shape sessions.
DEFAULT_NETWORK_CAPACITY = 32

#: chunks submitted per worker per ``run()``: >1 rebalances stragglers
#: (a worker that drew slow specs hands later chunks to idle peers) while
#: keeping the per-chunk IPC overhead amortized over many specs
CHUNKS_PER_WORKER = 4

#: seconds the next pool waits for one a worker failure dropped, before
#: and after terminating its workers
DROPPED_POOL_WAIT_S = 10.0


def chunk_indices(n: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``chunks`` contiguous slices whose
    sizes differ by at most one (larger slices first)."""
    chunks = max(1, min(chunks, n))
    base, extra = divmod(n, chunks)
    out: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


class NetworkCache:
    """Per-process memo of built simulators, keyed by ``network_key()``.

    :meth:`get` hands back a simulator ready for :meth:`RunSpec.execute`:
    a fresh build on a miss; on a hit the cached simulator is wound back
    to its just-built state -- :meth:`CycleEngine.reset` for the fabric,
    and the pristine routing logic captured at build time reasserted in
    case an online fault event swapped it.  For metrics-bearing specs the
    adapter's route memo is also cleared with its counters zeroed
    (``reset_cache``), so the ``RouteCacheStats`` export matches a cold
    build byte-for-byte.  For plain specs the route memo is left warm:
    it is keyed on what each switch rule reads and never evicts, and its
    decisions are pure functions of a fixed logic, so warm entries can
    only turn route-phase misses into hits without touching any
    observable quantity.

    Bounded LRU: least-recently-used networks are dropped beyond
    ``capacity``.
    """

    def __init__(self, capacity: int = DEFAULT_NETWORK_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._sims: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.builds = 0
        self.reuses = 0

    def get(self, spec: RunSpec):
        key = spec.network_key()
        entry = self._sims.get(key)
        if entry is None:
            from ..experiments.sweeps import build_network

            sim = build_network(
                spec.kind,
                spec.shape,
                stall_limit=spec.stall_limit,
                faults=spec.faults,
                scheme=spec.scheme,
                recovery=spec.recovery,
                engine=spec.engine,
            )()
            self._sims[key] = (sim, getattr(sim.adapter, "logic", None))
            if len(self._sims) > self.capacity:
                self._sims.popitem(last=False)
            self.builds += 1
            return sim
        self._sims.move_to_end(key)
        sim, pristine_logic = entry
        if (
            pristine_logic is not None
            and sim.adapter.logic is not pristine_logic
        ):
            # an online fault event swapped the logic mid-run; the setter
            # also clears the route memo, which is now stale
            sim.adapter.logic = pristine_logic
        if spec.metrics and hasattr(sim.adapter, "reset_cache"):
            sim.adapter.reset_cache()
        sim.reset()
        self.reuses += 1
        return sim


#: the NetworkCache the chunks of one pool worker share, made by the
#: pool's initializer so that it has the session's ``network_capacity``
_process_networks: Optional[NetworkCache] = None


def _init_worker(network_capacity: int) -> None:
    global _process_networks
    _process_networks = NetworkCache(network_capacity)


class _ChunkResult(NamedTuple):
    """What a successful chunk ships back: the results plus the serving
    telemetry measured where it happened (the worker process).  One
    ``(wall_s, cpu_s, tier)`` triple per spec, in chunk order, so the
    parent can merge timings into the ledger in deterministic spec order
    without trusting completion order or re-measuring across the IPC
    boundary."""

    results: List[PointResult]
    #: per-spec ``(wall_s, cpu_s, tier)``; tier is ``"fresh"`` (network
    #: built for this spec) or ``"reuse"`` (served off the warm
    #: :class:`NetworkCache`)
    timings: List[Tuple[float, float, str]]
    worker: int
    wall_s: float
    cpu_s: float


class _ConsumerError(Exception):
    """Wrapper distinguishing a parent-side consumer failure (the
    ``progress`` callback or ``cache.put`` raising) from a worker/pool
    failure inside :meth:`SweepSession.run_tasks`.  The workers are
    healthy in this case, so the session cancels what is queued but keeps
    the warm pool."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def _picklable_cause(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a plain
    ``RuntimeError`` carrying its repr and traceback.

    A worker exception that cannot cross the process boundary (custom
    ``__init__`` signatures, captured locks/file handles...) would
    otherwise break the pickling of the chunk's
    :class:`SpecExecutionError`; the sanitized stand-in keeps the failure
    a named :class:`SpecExecutionError` in the parent.
    """
    import pickle
    import traceback

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()
        return RuntimeError(
            f"unpicklable worker exception {exc!r}:\n{detail}"
        )


class SpecExecutionError(RuntimeError):
    """A spec raised while executing.

    Carries the failing :class:`RunSpec` (``.spec``) and the original
    exception (``.__cause__``), so a 50-point sweep that dies on point 37
    says *which* point and *why* instead of handing back a bare traceback
    from an anonymous worker process -- or worse, partial results.

    It pickles as ``(spec, cause)`` with the cause passed through
    :func:`_picklable_cause`, so a pool worker raises it as is.  In the
    parent, :mod:`concurrent.futures` then replaces ``__cause__`` with the
    worker's formatted traceback, which names the original exception.
    """

    def __init__(self, spec: RunSpec, cause: BaseException) -> None:
        super().__init__(
            f"spec failed: {spec.describe()}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.spec = spec
        self.__cause__ = cause

    def __reduce__(self):
        return type(self), (self.spec, _picklable_cause(self.__cause__))


def _serve(specs: Sequence[RunSpec], networks: NetworkCache):
    """Run ``specs`` in order on ``networks``, yielding ``(result,
    (wall_s, cpu_s, tier))`` per spec; tier is ``"fresh"`` (network built
    for this spec) or ``"reuse"`` (served off the warm cache).  The one
    per-spec loop of the in-process path and the pool workers."""
    for spec in specs:
        t0, c0 = perf_counter(), process_time()
        builds_before = networks.builds
        try:
            result = spec.execute(sim=networks.get(spec))
        except Exception as exc:
            raise SpecExecutionError(spec, exc)
        tier = "fresh" if networks.builds > builds_before else "reuse"
        yield result, (perf_counter() - t0, process_time() - c0, tier)


def execute_chunk(specs: Sequence[RunSpec]) -> _ChunkResult:
    """Module-level chunk entry point (importable, hence picklable).

    Runs every spec on this process's warm :class:`NetworkCache`.  The
    first spec that raises fails the chunk with a
    :class:`SpecExecutionError` (later specs in the chunk are not
    attempted; sibling chunks are cancelled by the session).
    """
    chunk_t0, chunk_c0 = perf_counter(), process_time()
    out: List[PointResult] = []
    timings: List[Tuple[float, float, str]] = []
    for result, timing in _serve(specs, _process_networks):
        out.append(result)
        timings.append(timing)
    return _ChunkResult(
        out,
        timings,
        os.getpid(),
        perf_counter() - chunk_t0,
        process_time() - chunk_c0,
    )


@dataclass(frozen=True)
class RunInfo:
    """What one :meth:`SweepSession.run` actually did.

    ``workers`` is the *effective* count -- degenerate inputs (one spec,
    ``jobs<=1``, everything served from cache) run serially no matter
    what was requested, and consumers report this number instead of
    echoing ``--jobs``.  ``wall_s`` is the whole run's wall time, cache
    scan included.
    """

    specs: int
    workers: int
    chunks: int
    cache_hits: int
    cache_misses: int
    wall_s: float = 0.0

    def hit_rate(self) -> float:
        """Cache hits as a fraction of lookups (0.0 when uncached)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        bits = [
            f"{self.specs} spec(s) on {self.workers} worker(s) "
            f"in {self.chunks} chunk(s)"
        ]
        if self.cache_hits or self.cache_misses:
            bits.append(
                f"{self.cache_hits} from cache, {self.cache_misses} simulated"
                f" ({100.0 * self.hit_rate():.1f}% hit rate)"
            )
        bits.append(f"{self.wall_s:.2f}s total")
        return ", ".join(bits)


class SweepSession:
    """A reusable sweep runner that keeps its worker pool warm.

    Use it as a context manager (or call :meth:`close`)::

        with SweepSession(jobs=4, cache=ResultCache()) as session:
            for batch in batches:
                results = session.run(batch, progress=on_point)

    ``jobs`` of ``None``/0/1 runs in-process (still with network reuse);
    more fans chunks out over a persistent process pool.  ``run()`` keeps
    the runtime's contract -- one :class:`PointResult` per spec, in spec
    order, byte-identical to a fresh ``spec.execute()`` per spec -- and
    records a :class:`RunInfo` in :attr:`last_run`.

    ``progress(result, done, total)`` fires once per completed spec as
    results stream in (completion order; the returned list is still
    merged in spec order).  Cache hits stream first.

    ``ledger`` (a :class:`~repro.obs.telemetry.SweepLedger`, settable as
    a plain attribute between runs) records session lifecycle, chunk
    plan/dispatch/completion, and one ``spec_done`` per spec with its
    outcome and serving telemetry -- written in spec order at the end of
    each ``run()``, never in completion order.

    A failed run raises :class:`SpecExecutionError` naming the spec,
    cancels queued chunks, and discards the pool; the session itself
    stays usable -- the next ``run()`` starts a fresh pool.  A *consumer*
    failure -- the ``progress`` callback or ``cache.put`` raising in the
    parent -- also cancels queued chunks and surfaces the error, but the
    workers are healthy, so the warm pool is kept for the next run.
    Either way a ledgered run that fails records a single ``sweep_error``
    instead of its per-spec records.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        chunks_per_worker: int = CHUNKS_PER_WORKER,
        network_capacity: int = DEFAULT_NETWORK_CAPACITY,
        ledger: Optional[SweepLedger] = None,
    ) -> None:
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        self.jobs = 1 if jobs is None else jobs
        self.cache = cache
        self.chunks_per_worker = chunks_per_worker
        self.network_capacity = network_capacity
        self.ledger = ledger
        self.last_run: Optional[RunInfo] = None
        self._pool: Optional[_futures.ProcessPoolExecutor] = None
        #: the manager thread of a pool a failure dropped without waiting
        self._dropped: Optional[threading.Thread] = None
        self._local_networks: Optional[NetworkCache] = None
        self._runs = 0
        self._announced: Optional[SweepLedger] = None

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "SweepSession":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut the worker pool down (queued work is cancelled)."""
        if self.ledger is not None and self._announced is self.ledger:
            self.ledger.record("session_close", runs=self._runs)
            self._announced = None
        # the pool is healthy here, so wait for its manager thread: a
        # process that exits right after an unwaited shutdown can race
        # concurrent.futures' exit hook and print "Exception ignored ...
        # Bad file descriptor" on stderr
        self._discard_pool(wait=True)

    def _discard_pool(self, wait: bool = False) -> None:
        """Drop the pool.  The failure paths do not wait: a hung worker
        must not hang the parent.  They keep the pool's manager thread
        instead, for :meth:`_reap_dropped`.  That thread is a CPython
        private (``_executor_manager_thread``, 3.9 on); where it is
        missing the pool is dropped unreaped, as before."""
        if self._pool is not None:
            manager = getattr(self._pool, "_executor_manager_thread", None)
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
            if not wait:
                self._dropped = manager

    def _reap_dropped(self) -> None:
        """Wait for a dropped pool's manager thread, which outlives its
        queue feeder and workers, at most :data:`DROPPED_POOL_WAIT_S`;
        then terminate the workers still running (their work was
        cancelled with the pool) and wait as long again.  A fork while
        those threads run can deadlock the child.  The workers are read
        from the thread's private ``processes`` map; without it the
        thread is only waited for."""
        manager, self._dropped = self._dropped, None
        if manager is None:
            return
        manager.join(DROPPED_POOL_WAIT_S)
        if manager.is_alive():
            procs = getattr(manager, "processes", None) or {}
            for proc in list(procs.values()):
                proc.terminate()
            manager.join(DROPPED_POOL_WAIT_S)

    def _ensure_pool(self) -> _futures.ProcessPoolExecutor:
        if self._pool is None:
            self._reap_dropped()
            # workers spawn on demand up to max_workers, so sizing the
            # pool by ``jobs`` costs nothing on small runs
            self._pool = _futures.ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.network_capacity,),
            )
        return self._pool

    # ------------------------------------------------------------ execution
    def effective_workers(self, num_specs: int) -> int:
        """Worker processes a ``run()`` of this size would actually use
        (1 = in-process serial)."""
        if self.jobs <= 1 or num_specs <= 1:
            return 1
        return min(self.jobs, num_specs)

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[Callable[[PointResult, int, int], None]] = None,
    ) -> List[PointResult]:
        specs = list(specs)
        total = len(specs)
        run_t0 = perf_counter()
        self._runs += 1
        run_no = self._runs
        ledger = self.ledger
        if ledger is not None and self._announced is not ledger:
            ledger.record(
                "session_open",
                jobs=self.jobs,
                chunks_per_worker=self.chunks_per_worker,
                network_capacity=self.network_capacity,
                cache_enabled=self.cache is not None,
            )
            self._announced = ledger

        results: List[Optional[PointResult]] = [None] * total
        #: per-spec serving telemetry, merged in spec order at the end
        serve: List[Optional[Dict]] = [None] * total
        todo: List[int] = []
        if self.cache is not None:
            for i, spec in enumerate(specs):
                t0, c0 = perf_counter(), process_time()
                hit = self.cache.get(spec)
                if hit is None:
                    todo.append(i)
                else:
                    results[i] = hit
                    serve[i] = {
                        "cache": "result",
                        "worker": None,
                        "chunk": None,
                        "wall_s": perf_counter() - t0,
                        "cpu_s": process_time() - c0,
                    }
        else:
            todo = list(range(total))
        hits = total - len(todo)

        workers = self.effective_workers(len(todo))
        if not todo:
            chunks = 0
            slices: List[Tuple[int, int]] = []
        elif workers <= 1:
            chunks = 1
            slices = []
        else:
            slices = chunk_indices(
                len(todo), workers * self.chunks_per_worker
            )
            chunks = len(slices)

        if ledger is not None:
            ledger.record(
                "sweep_start",
                run=run_no,
                specs=total,
                jobs=self.jobs,
                workers=workers,
                chunks=chunks,
                chunk_sizes=[b - a for a, b in slices],
                cache_enabled=self.cache is not None,
            )

        chunk_events: List[Dict] = []
        try:
            done = 0
            if progress is not None:
                for r in results:
                    if r is not None:
                        done += 1
                        progress(r, done, total)
            if todo and workers <= 1:
                self._run_serial(
                    specs, todo, results, serve, progress, done, total
                )
            elif todo:
                self._run_chunked(
                    specs,
                    todo,
                    slices,
                    results,
                    serve,
                    progress,
                    done,
                    total,
                    run_no,
                    chunk_events,
                )
        except BaseException as exc:
            if ledger is not None:
                ledger.record(
                    "sweep_error",
                    run=run_no,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise

        wall = perf_counter() - run_t0
        self.last_run = RunInfo(
            specs=total,
            workers=workers,
            chunks=chunks,
            cache_hits=hits,
            cache_misses=len(todo) if self.cache is not None else 0,
            wall_s=wall,
        )
        assert all(r is not None for r in results)
        if ledger is not None:
            deadlocked = recoveries = 0
            for i, (result, how) in enumerate(zip(results, serve)):
                outcome = spec_outcome(result)
                deadlocked += bool(outcome["deadlocked"])
                recoveries += outcome["recoveries"]
                ledger.record(
                    "spec_done", run=run_no, i=i, **outcome, **(how or {})
                )
            for ev in sorted(chunk_events, key=lambda e: e["chunk"]):
                ledger.record("chunk_done", run=run_no, **ev)
            ledger.record(
                "sweep_end",
                run=run_no,
                specs=total,
                deadlocked=deadlocked,
                recoveries=recoveries,
                workers=workers,
                chunks=chunks,
                cache_hits=hits,
                cache_misses=len(todo) if self.cache is not None else 0,
                wall_s=wall,
            )
        return results  # type: ignore[return-value]

    def _run_serial(
        self, specs, todo, results, serve, progress, done, total
    ) -> None:
        if self._local_networks is None:
            self._local_networks = NetworkCache(self.network_capacity)
        served = _serve([specs[i] for i in todo], self._local_networks)
        for i, (result, (wall_s, cpu_s, tier)) in zip(todo, served):
            results[i] = result
            serve[i] = {
                "cache": tier,
                "worker": None,
                "chunk": None,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
            }
            if self.cache is not None:
                self.cache.put(result)
            done += 1
            if progress is not None:
                progress(result, done, total)

    def _run_chunked(
        self,
        specs,
        todo,
        slices,
        results,
        serve,
        progress,
        done,
        total,
        run_no,
        chunk_events,
    ) -> None:
        chunks = [todo[a:b] for a, b in slices]
        if self.ledger is not None:
            for ci, idxs in enumerate(chunks):
                self.ledger.record(
                    "chunk_dispatch",
                    run=run_no,
                    chunk=ci,
                    specs=len(idxs),
                    first=idxs[0],
                    last=idxs[-1],
                )

        def merge(ci: int, payload: _ChunkResult) -> None:
            nonlocal done
            idxs = chunks[ci]
            chunk_events.append(
                {
                    "chunk": ci,
                    "specs": len(idxs),
                    "worker": payload.worker,
                    "wall_s": payload.wall_s,
                    "cpu_s": payload.cpu_s,
                }
            )
            for i, result, (wall_s, cpu_s, tier) in zip(
                idxs, payload.results, payload.timings
            ):
                results[i] = result
                serve[i] = {
                    "cache": tier,
                    "worker": payload.worker,
                    "chunk": ci,
                    "wall_s": wall_s,
                    "cpu_s": cpu_s,
                }
                done += 1
                if self.cache is not None:
                    self.cache.put(result)
                if progress is not None:
                    progress(result, done, total)

        self.run_tasks(
            execute_chunk,
            [([specs[i] for i in idxs],) for idxs in chunks],
            on_result=merge,
        )

    # ---------------------------------------------------------- generic fan-out
    def run_tasks(
        self,
        fn: Callable,
        tasks: Sequence[Tuple],
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> int:
        """Fan arbitrary ``fn(*task)`` calls over the warm pool.

        The escape hatch for workloads that are *not* one
        :class:`RunSpec` per unit of work -- campaign chunks push
        thousands of Monte-Carlo samples through a single task, so the
        per-spec pickling, cache lookup and ledger bookkeeping of
        :meth:`run` would be pure overhead.  ``fn`` must be a
        module-level (picklable) callable that raises on failure;
        ``tasks`` is a sequence of argument tuples.

        ``on_result(index, payload)`` fires in **completion order** --
        callers needing a deterministic fold must reorder (see
        :func:`repro.analysis.campaign.run_campaign`).  Failure
        semantics mirror :meth:`run`: a worker exception cancels queued
        tasks and discards the pool (the session stays usable); an
        ``on_result`` exception cancels queued tasks but keeps the warm
        pool, since the workers are healthy.  Degenerate inputs
        (``jobs <= 1`` or a single task) run in-process.

        Returns the number of tasks completed.  Unlike :meth:`run`,
        nothing is ledgered or cached here -- callers own their own
        telemetry.
        """
        tasks = list(tasks)
        if self.effective_workers(len(tasks)) <= 1:
            for i, task in enumerate(tasks):
                payload = fn(*task)
                if on_result is not None:
                    on_result(i, payload)
            return len(tasks)
        pool = self._ensure_pool()
        futures = {}
        try:
            for i, task in enumerate(tasks):
                futures[pool.submit(fn, *task)] = i
            for fut in _futures.as_completed(futures):
                payload = fut.result()
                if on_result is not None:
                    try:
                        on_result(futures[fut], payload)
                    except BaseException as exc:
                        raise _ConsumerError(exc) from exc
        except _ConsumerError as wrapper:
            # the parent-side consumer failed; the workers are fine.
            # Cancel what is still queued and surface the original error,
            # but keep the warm pool -- the session stays reusable.
            for f in futures:
                f.cancel()
            raise wrapper.cause
        except BaseException:
            # a dead worker (BrokenProcessPool) or a failing task poisons
            # in-flight work: cancel what is queued, drop the pool, and
            # let the next call start fresh
            self._discard_pool()
            raise
        return len(tasks)


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[PointResult, int, int], None]] = None,
    ledger: Optional[SweepLedger] = None,
) -> List[PointResult]:
    """Run a batch of specs through a one-shot :class:`SweepSession` and
    return results in spec order.  For repeated batches, hold a session
    yourself and keep its workers warm."""
    with SweepSession(jobs=jobs, cache=cache, ledger=ledger) as session:
        return session.run(specs, progress=progress)
