"""The warm-worker session: chunked scheduling over a persistent pool,
per-process network reuse, and result-cache integration, all holding the
runtime's determinism contract (serial == chunked == cached, spec order
preserved)."""

import concurrent.futures as futures
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro.runtime.session as session_mod
from repro.runtime import (
    NetworkCache,
    ResultCache,
    RunSpec,
    SpecExecutionError,
    SweepSession,
    chunk_indices,
    fault_placement_specs,
    result_identity,
    run_specs,
    seed_replicas,
)

SHAPE = (3, 3)
WINDOWS = dict(warmup=30, window=60, drain=600)
FAST = dict(shape=SHAPE, **WINDOWS)


def nap_or_fail(seconds):
    """A pool task: sleep ``seconds``, or raise when it is negative."""
    if seconds < 0:
        raise ValueError("task failed")
    time.sleep(seconds)
    return seconds


def small_specs():
    return seed_replicas(
        [
            RunSpec(load=0.05, **FAST),
            RunSpec(load=0.15, **FAST),
        ],
        seeds=[7, 8],
    )


class TestChunkIndices:
    def test_even_split(self):
        assert chunk_indices(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_the_front(self):
        slices = chunk_indices(10, 4)
        assert slices == [(0, 3), (3, 6), (6, 8), (8, 10)]
        sizes = [b - a for a, b in slices]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_fewer_items_than_chunks(self):
        assert chunk_indices(2, 8) == [(0, 1), (1, 2)]

    def test_degenerate(self):
        assert chunk_indices(1, 1) == [(0, 1)]
        assert chunk_indices(5, 1) == [(0, 5)]

    def test_covers_range_without_gaps(self):
        for n in (1, 7, 16, 33):
            for chunks in (1, 3, 8):
                slices = chunk_indices(n, chunks)
                flat = [i for a, b in slices for i in range(a, b)]
                assert flat == list(range(n))


class TestNetworkCache:
    def test_reuses_by_network_key(self):
        cache = NetworkCache()
        a = RunSpec(load=0.05, **FAST)
        b = RunSpec(load=0.15, seed=9, **FAST)  # same fabric, other traffic
        sim = cache.get(a)
        assert cache.get(b) is sim
        assert cache.builds == 1 and cache.reuses == 1

    def test_distinct_fabrics_get_distinct_networks(self):
        from repro.core import Fault

        cache = NetworkCache()
        plain = RunSpec(load=0.05, **FAST)
        faulted = RunSpec(
            load=0.05, faults=(Fault.router((1, 1)),), **FAST
        )
        assert cache.get(plain) is not cache.get(faulted)
        assert cache.builds == 2

    def test_lru_eviction(self):
        cache = NetworkCache(capacity=1)
        a = RunSpec(load=0.05, **FAST)
        b = RunSpec(load=0.05, shape=(4, 3), **WINDOWS)
        first = cache.get(a)
        cache.get(b)  # evicts a
        assert cache.get(a) is not first
        assert cache.builds == 3 and cache.reuses == 0

    def test_reused_network_reproduces_fresh_results(self):
        cache = NetworkCache()
        spec = RunSpec(load=0.2, **FAST)
        fresh = spec.execute()
        again = spec.execute(sim=cache.get(spec))
        reused = spec.execute(sim=cache.get(spec))
        assert fresh.point == again.point == reused.point

    def test_metrics_parity_through_reuse(self):
        """RouteCacheStats counters ride the metrics payload, so a warm
        route memo must be wound back for metrics-bearing specs."""
        spec = RunSpec(load=0.2, metrics=True, **FAST)
        cache = NetworkCache()
        cache.get(RunSpec(load=0.1, **FAST)).run(
            max_cycles=200, until_drained=False
        )  # dirty the shared network and its route memo
        warm = spec.execute(sim=cache.get(spec))
        fresh = spec.execute()
        assert json.dumps(warm.metrics.to_dict()) == json.dumps(
            fresh.metrics.to_dict()
        )
        assert warm.point == fresh.point


class TestSessionDeterminism:
    def test_serial_session_matches_executor(self):
        specs = small_specs()
        reference = [s.execute() for s in specs]
        with SweepSession() as session:
            got = session.run(specs)
        assert [r.spec for r in got] == specs
        assert result_identity(got) == result_identity(reference)
        assert session.last_run.workers == 1

    def test_chunked_session_matches_serial(self):
        specs = small_specs()
        reference = result_identity([s.execute() for s in specs])
        with SweepSession(jobs=2, chunks_per_worker=2) as session:
            got = session.run(specs)
            again = session.run(specs)  # warm pool + warm networks
        assert result_identity(got) == reference
        assert result_identity(again) == reference
        assert session.last_run.workers == 2
        assert session.last_run.chunks > 1

    def test_fault_enumeration_across_session_legs(self):
        """Satellite acceptance: seed replicas of the fault-placement
        family -- serial, chunked-parallel and cache-replayed runs are
        byte-identical."""
        specs = seed_replicas(
            fault_placement_specs("md-crossbar", SHAPE, 0.1, **WINDOWS),
            seeds=[7, 8],
        )
        reference = result_identity([s.execute() for s in specs])
        with SweepSession(jobs=2) as session:
            assert result_identity(session.run(specs)) == reference

    def test_progress_streams_every_spec(self):
        specs = small_specs()
        seen = []
        with SweepSession(jobs=2) as session:
            session.run(
                specs,
                progress=lambda r, done, total: seen.append(
                    (r.spec, done, total)
                ),
            )
        assert len(seen) == len(specs)
        assert [done for _, done, _ in seen] == list(
            range(1, len(specs) + 1)
        )
        assert all(total == len(specs) for _, _, total in seen)
        assert {s for s, _, _ in seen} == set(specs)

    def test_effective_workers(self):
        assert SweepSession().effective_workers(10) == 1
        assert SweepSession(jobs=4).effective_workers(1) == 1
        assert SweepSession(jobs=4).effective_workers(2) == 2
        assert SweepSession(jobs=2).effective_workers(10) == 2


class TestSessionFailure:
    def crashing_spec(self):
        return RunSpec(kind="no-such-network", load=0.1, **FAST)

    def test_failure_names_the_spec_and_session_survives(self):
        good = small_specs()
        bad = self.crashing_spec()
        with SweepSession(jobs=2) as session:
            with pytest.raises(SpecExecutionError) as err:
                session.run(good[:2] + [bad] + good[2:])
            assert err.value.spec == bad
            assert "no-such-network" in str(err.value)
            # the session stays usable after a failed run
            results = session.run(good)
            assert [r.spec for r in results] == good

    def test_serial_failure_path(self):
        with SweepSession() as session:
            with pytest.raises(SpecExecutionError):
                session.run([self.crashing_spec()])


class TestProgressFailure:
    """A consumer (progress callback) that raises mid-sweep must surface
    its error and cancel queued chunks WITHOUT discarding the warm pool:
    the workers did nothing wrong, and the session must stay immediately
    reusable."""

    def test_raising_progress_keeps_the_warm_pool(self):
        specs = small_specs()
        boom = RuntimeError("consumer exploded")

        def bad_progress(result, done, total):
            raise boom

        with SweepSession(jobs=2) as session:
            session.run(specs)  # spin the pool up
            pool_before = session._pool
            assert pool_before is not None
            with pytest.raises(RuntimeError) as err:
                session.run(specs, progress=bad_progress)
            assert err.value is boom
            # the pool survived the consumer failure...
            assert session._pool is pool_before
            # ...and the session runs again without respawning workers
            results = session.run(specs)
            assert [r.spec for r in results] == specs
            assert session._pool is pool_before

    def test_raising_progress_in_serial_run_surfaces(self):
        boom = ValueError("serial consumer exploded")
        with SweepSession() as session:
            with pytest.raises(ValueError) as err:
                session.run(
                    small_specs(), progress=lambda r, d, t: (_ for _ in ()).throw(boom)
                )
            assert err.value is boom
            # serial runs hold no pool; the session stays usable
            results = session.run(small_specs())
            assert len(results) == len(small_specs())

    def test_worker_failure_still_discards_the_pool(self):
        """The distinction matters: a *worker* failure may have poisoned
        the pool, so that path still drops it."""
        bad = RunSpec(kind="no-such-network", load=0.1, **FAST)
        with SweepSession(jobs=2) as session:
            session.run(small_specs())
            pool_before = session._pool
            with pytest.raises(SpecExecutionError):
                session.run(small_specs()[:1] + [bad] * 3)
            assert session._pool is not pool_before


class TestDroppedPoolReaped:
    """A worker failure drops the pool without waiting; the next pool
    does not start while a thread of the dropped one is alive."""

    def spawns_watched(self, monkeypatch, dropped):
        """Record, at every pool construction, which of ``dropped`` are
        still alive."""
        real = futures.ProcessPoolExecutor
        alive = []

        def spawn(*args, **kw):
            alive.append([t for t in dropped() if t.is_alive()])
            return real(*args, **kw)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", spawn)
        return alive

    def test_no_dropped_thread_is_alive_when_the_next_pool_starts(
        self, monkeypatch
    ):
        bad = RunSpec(kind="no-such-network", load=0.1, **FAST)
        left = set()
        alive = self.spawns_watched(monkeypatch, lambda: left)
        with SweepSession(jobs=2) as session:
            before = set(threading.enumerate())
            with pytest.raises(SpecExecutionError):
                session.run(small_specs()[:1] + [bad] * 3)
            left |= set(threading.enumerate()) - before
            results = session.run(small_specs())
        assert len(results) == len(small_specs())
        assert alive == [[], []]

    def test_a_hung_worker_is_terminated_not_waited_for(self, monkeypatch):
        monkeypatch.setattr(session_mod, "DROPPED_POOL_WAIT_S", 0.5)
        left = set()
        alive = self.spawns_watched(monkeypatch, lambda: left)
        t0 = time.monotonic()
        with SweepSession(jobs=2) as session:
            before = set(threading.enumerate())
            with pytest.raises(ValueError, match="task failed"):
                session.run_tasks(nap_or_fail, [(120,), (-1,)])
            left |= set(threading.enumerate()) - before
            assert [t for t in left if t.is_alive()]
            assert session.run_tasks(nap_or_fail, [(0,), (0,)]) == 2
        assert alive == [[], []]
        assert time.monotonic() - t0 < 60

    def test_the_private_names_reaping_reads_are_there(self):
        """Reaping reads two CPython privates, the pool's manager thread
        and its map of workers.  A Python that renames them fails here,
        so the loss of reaping shows."""
        with SweepSession(jobs=2) as session:
            session.run(small_specs())
            manager = session._pool._executor_manager_thread
            assert isinstance(manager, threading.Thread)
            assert isinstance(manager.processes, dict)

    def test_without_the_private_names_the_pool_is_dropped_unreaped(
        self, monkeypatch
    ):
        """Where those names are missing, dropping and reaping skip them
        instead of raising inside the failure path."""

        class BarePool:
            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(session_mod, "DROPPED_POOL_WAIT_S", 0.05)
        release = threading.Event()
        bare = threading.Thread(target=release.wait, daemon=True)
        bare.start()
        session = SweepSession(jobs=2)
        session._pool = BarePool()
        session._discard_pool()
        assert session._pool is None and session._dropped is None
        session._dropped = bare
        session._reap_dropped()
        assert session._dropped is None
        release.set()
        bare.join()


class TestWorkerNetworkCapacity:
    """``network_capacity`` reaches the pool workers, not only the
    in-process path and the ``session_open`` record."""

    def tiers(self, **session_kw):
        from repro.obs import SweepLedger

        a = RunSpec(load=0.05, **FAST)
        b = RunSpec(load=0.05, shape=(4, 3), **WINDOWS)
        specs = [a, b] * 4
        ledger = SweepLedger()
        # two chunks of a, b, a, b: a worker that keeps one network
        # rebuilds for every spec, whichever worker takes which chunk
        with SweepSession(
            jobs=2, chunks_per_worker=1, ledger=ledger, **session_kw
        ) as session:
            results = session.run(specs)
        assert result_identity(results) == result_identity(
            [s.execute() for s in specs]
        )
        return [r["cache"] for r in ledger.of_kind("spec_done")]

    def test_capacity_one_rebuilds_where_the_default_reuses(self):
        assert self.tiers(network_capacity=1) == ["fresh"] * 8
        assert self.tiers().count("reuse") >= 4


class TestCleanExit:
    """After ``close()`` on a healthy session nothing of the pool is
    left running, so a process that exits at once meets no half-closed
    pool in ``concurrent.futures``' exit hook."""

    SCRIPT = (
        "from repro.runtime import RunSpec, SweepSession\n"
        "specs = [RunSpec(shape=(3, 3), load=0.1, seed=s, warmup=5,"
        " window=10, drain=60) for s in range(8)]\n"
        "session = SweepSession(jobs=2)\n"
        "assert len(session.run(specs)) == 8\n"
        "session.close()\n"
    )

    def test_close_waits_for_the_pool_manager_thread(self):
        # thread objects, not a count: a thread an earlier test left
        # winding down may exit in the middle of this one
        before = set(threading.enumerate())
        session = SweepSession(jobs=2)
        session.run(small_specs())
        assert set(threading.enumerate()) - before
        session.close()
        assert not set(threading.enumerate()) - before

    def test_exit_right_after_close_leaves_stderr_empty(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        for _ in range(10):
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0
            assert proc.stderr == ""


class TestRunInfo:
    def test_describe_reports_hit_rate_and_wall(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(str(tmp_path / "cache"))
        with SweepSession(cache=cache) as session:
            session.run(specs[:2])
            session.run(specs)
        text = session.last_run.describe()
        assert "2 from cache, 2 simulated" in text
        assert "(50.0% hit rate)" in text
        assert text.endswith("s total")
        assert session.last_run.wall_s > 0
        assert session.last_run.hit_rate() == 0.5

    def test_describe_without_cache_skips_hit_rate(self):
        with SweepSession() as session:
            session.run(small_specs()[:1])
        text = session.last_run.describe()
        assert "hit rate" not in text
        assert "1 spec(s) on 1 worker(s) in 1 chunk(s)" in text
        assert session.last_run.hit_rate() == 0.0


class TestPicklableCause:
    """The chunk workers ship their failure back through a pickle; an
    exception that cannot cross the process boundary must be sanitized,
    not surface as an opaque BrokenProcessPool."""

    def test_picklable_exception_passes_through(self):
        from repro.runtime.session import _picklable_cause

        exc = ValueError("plain and portable")
        assert _picklable_cause(exc) is exc

    def test_unpicklable_exception_is_sanitized(self):
        from repro.runtime.session import _picklable_cause

        class Gnarly(Exception):
            # custom __init__ signature: pickle.loads cannot rebuild it
            def __init__(self, spec, detail):
                super().__init__(f"{spec}: {detail}")

        try:
            raise Gnarly("spec-3", "boom")
        except Gnarly as exc:
            stand_in = _picklable_cause(exc)
        assert isinstance(stand_in, RuntimeError)
        assert "Gnarly" in str(stand_in)
        assert "boom" in str(stand_in)
        # the original traceback travels as text
        assert "test_unpicklable_exception_is_sanitized" in str(stand_in)
        # and the stand-in itself survives the round trip
        import pickle

        pickle.loads(pickle.dumps(stand_in))


class TestSessionLedger:
    """The run ledger inherits the runtime's determinism contract:
    serial, chunked and cache-replayed runs of the same specs strip to
    byte-identical records (wall/cpu/placement fields excluded, exactly
    like ``result_identity`` excludes ``wall_time``)."""

    def ledgered_run(self, specs, jobs=None, cache=None):
        from repro.obs import SweepLedger

        ledger = SweepLedger()
        with SweepSession(jobs=jobs, cache=cache, ledger=ledger) as s:
            s.run(specs)
        return ledger

    def test_serial_chunked_and_cached_strip_identically(self, tmp_path):
        from repro.obs import ledger_identity, strip_ledger

        specs = small_specs()
        serial = self.ledgered_run(specs)
        chunked = self.ledgered_run(specs, jobs=2)
        cache = ResultCache(str(tmp_path / "cache"))
        self.ledgered_run(specs, jobs=2, cache=cache)  # populate
        replayed = self.ledgered_run(specs, cache=cache)

        assert (
            strip_ledger(serial.records)
            == strip_ledger(chunked.records)
            == strip_ledger(replayed.records)
        )
        assert (
            ledger_identity(serial.records)
            == ledger_identity(chunked.records)
            == ledger_identity(replayed.records)
        )

    def test_same_sweep_twice_yields_identical_ledgers(self):
        from repro.obs import ledger_identity

        specs = small_specs()
        first = self.ledgered_run(specs, jobs=2)
        second = self.ledgered_run(specs, jobs=2)
        assert ledger_identity(first.records) == ledger_identity(
            second.records
        )

    def test_spec_done_records_are_in_spec_order(self):
        specs = small_specs()
        ledger = self.ledgered_run(specs, jobs=2)
        done = ledger.of_kind("spec_done")
        assert [r["i"] for r in done] == list(range(len(specs)))
        assert [r["spec"] for r in done] == [s.to_dict() for s in specs]

    def test_ledger_records_tiers_and_lifecycle(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        specs = small_specs()
        populate = self.ledgered_run(specs, jobs=2, cache=cache)
        tiers = [r["cache"] for r in populate.of_kind("spec_done")]
        assert set(tiers) <= {"fresh", "reuse"}
        assert "fresh" in tiers
        replay = self.ledgered_run(specs, cache=cache)
        assert [
            r["cache"] for r in replay.of_kind("spec_done")
        ] == ["result"] * len(specs)
        for led in (populate, replay):
            assert len(led.of_kind("session_open")) == 1
            assert len(led.of_kind("session_close")) == 1
            assert len(led.of_kind("sweep_start")) == 1
            end = led.of_kind("sweep_end")
            assert len(end) == 1 and end[0]["specs"] == len(specs)
        # chunked dispatch shows up only where chunks actually ran
        assert populate.of_kind("chunk_dispatch")
        assert not replay.of_kind("chunk_dispatch")

    def test_failed_run_records_sweep_error_not_spec_done(self):
        from repro.obs import SweepLedger

        bad = RunSpec(kind="no-such-network", load=0.1, **FAST)
        ledger = SweepLedger()
        with SweepSession(jobs=2, ledger=ledger) as session:
            with pytest.raises(SpecExecutionError):
                session.run(small_specs() + [bad])
        errors = ledger.of_kind("sweep_error")
        assert len(errors) == 1
        assert "no-such-network" in errors[0]["error"]
        assert not ledger.of_kind("spec_done")
        assert not ledger.of_kind("sweep_end")

    def test_ledger_attachable_between_runs(self):
        from repro.obs import SweepLedger

        specs = small_specs()[:2]
        with SweepSession() as session:
            session.run(specs)  # unledgered
            ledger = SweepLedger()
            session.ledger = ledger
            session.run(specs)
        assert len(ledger.of_kind("session_open")) == 1
        assert len(ledger.of_kind("spec_done")) == len(specs)
        assert ledger.of_kind("session_close")[0]["runs"] == 2

    def test_run_specs_front_door_takes_a_ledger(self):
        from repro.obs import SweepLedger

        specs = small_specs()[:2]
        ledger = SweepLedger()
        results = run_specs(specs, ledger=ledger)
        assert [r.spec for r in results] == specs
        assert len(ledger.of_kind("spec_done")) == len(specs)


class TestSessionCache:
    def test_replay_is_byte_identical_including_wall_time(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(str(tmp_path / "cache"))
        with SweepSession(jobs=2, cache=cache) as session:
            first = session.run(specs)
            assert session.last_run.cache_misses == len(specs)
            replay = session.run(specs)
        assert session.last_run.cache_hits == len(specs)
        assert session.last_run.cache_misses == 0
        assert session.last_run.workers == 1  # nothing left to simulate
        # full JSON equality, wall_time included: the hit preserves the
        # originally measured wall time
        assert json.dumps([r.to_dict() for r in replay]) == json.dumps(
            [r.to_dict() for r in first]
        )

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(str(tmp_path / "cache"))
        with SweepSession(cache=cache) as session:
            session.run(specs[:2])
            out = session.run(specs)
        assert session.last_run.cache_hits == 2
        assert session.last_run.cache_misses == len(specs) - 2
        assert [r.spec for r in out] == specs

    def test_cache_hits_stream_before_simulated_points(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(str(tmp_path / "cache"))
        with SweepSession(cache=cache) as session:
            session.run(specs[2:])
            order = []
            session.run(
                specs, progress=lambda r, d, t: order.append(r.spec)
            )
        assert order[:2] == specs[2:]  # the cached pair streamed first

    def test_run_specs_front_door_routes_through_session(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_specs(specs, jobs=2, cache=cache)
        assert cache.puts == len(specs)
        replay = run_specs(specs, cache=cache)
        assert cache.hits == len(specs)
        assert json.dumps([r.to_dict() for r in replay]) == json.dumps(
            [r.to_dict() for r in first]
        )


# ---------------------------------------------------------------- run_tasks

def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"task {x} failed")


class TestRunTasks:
    """The generic fan-out door (campaign chunks ride through here):
    arbitrary picklable fn over the warm pool, completion-order
    callbacks, run()-matching failure semantics."""

    def test_serial_path(self):
        got = []
        with SweepSession() as session:
            n = session.run_tasks(
                _square, [(2,), (3,), (4,)],
                on_result=lambda i, v: got.append((i, v)),
            )
        assert n == 3
        assert got == [(0, 4), (1, 9), (2, 16)]

    def test_single_task_stays_in_process(self):
        got = []
        with SweepSession(jobs=4) as session:
            session.run_tasks(_square, [(5,)], on_result=lambda i, v: got.append(v))
            assert session._pool is None  # degenerate input: no pool spawned
        assert got == [25]

    def test_pooled_results_cover_every_task(self):
        got = {}
        with SweepSession(jobs=2) as session:
            n = session.run_tasks(
                _square, [(i,) for i in range(8)],
                on_result=lambda i, v: got.__setitem__(i, v),
            )
        assert n == 8
        assert got == {i: i * i for i in range(8)}

    def test_worker_failure_surfaces_and_discards_pool(self):
        with SweepSession(jobs=2) as session:
            session.run_tasks(_square, [(1,), (2,)])
            assert session._pool is not None
            with pytest.raises(RuntimeError, match="failed"):
                session.run_tasks(_boom, [(1,), (2,)])
            assert session._pool is None
            # the session itself stays usable
            session.run_tasks(_square, [(1,), (2,)])

    def test_consumer_failure_keeps_the_warm_pool(self):
        def consume(i, v):
            raise ValueError("consumer broke")

        with SweepSession(jobs=2) as session:
            session.run_tasks(_square, [(1,), (2,)])
            pool = session._pool
            with pytest.raises(ValueError, match="consumer broke"):
                session.run_tasks(_square, [(1,), (2,)], on_result=consume)
            assert session._pool is pool
