"""The runtime layer: picklable RunSpecs, serial/parallel dispatch through
``run_specs`` with a deterministic order-preserving merge, and the
spec-family constructors.  The reference for every dispatch path is a
fresh build per spec: ``[s.execute() for s in specs]``."""

import json
import pickle
from dataclasses import replace

import pytest

from repro.core import Fault
from repro.runtime import (
    PointResult,
    RunSpec,
    SpecExecutionError,
    SweepSession,
    fault_placement_specs,
    load_sweep_specs,
    result_identity,
    run_specs,
    seed_replicas,
)

SHAPE = (3, 3)
WINDOWS = dict(warmup=30, window=60, drain=600)
FAST = dict(shape=SHAPE, **WINDOWS)


def small_specs():
    return load_sweep_specs("md-crossbar", SHAPE, [0.05, 0.15], **WINDOWS)


class TestRunSpec:
    def test_is_picklable_with_faults(self):
        spec = RunSpec(faults=(Fault.router((1, 1)),), **FAST)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_to_dict_is_json_serializable(self):
        spec = RunSpec(faults=(Fault.router((1, 1)),), label="demo", **FAST)
        d = json.loads(json.dumps(spec.to_dict()))
        assert d["shape"] == [3, 3]
        assert d["label"] == "demo"
        assert d["faults"] and isinstance(d["faults"][0], str)

    def test_describe_mentions_the_essentials(self):
        s = RunSpec(kind="mesh", shape=(4, 4), load=0.25, seed=9)
        text = s.describe()
        assert "mesh" in text and "4x4" in text
        assert "load=0.25" in text and "seed=9" in text

    def test_execute_runs_in_process(self):
        res = RunSpec(load=0.05, **FAST).execute()
        assert isinstance(res, PointResult)
        assert res.point.offered_load == 0.05
        assert not res.point.deadlocked
        assert res.wall_time > 0
        d = json.loads(json.dumps(res.to_dict()))
        assert d["spec"]["load"] == 0.05
        assert "mean" in d["latency"]

    def test_engine_field_selects_driver_not_result(self):
        """An engine="soa" spec runs the batched kernel but must produce
        the identical point -- the engine is part of the cached identity
        (so a hit replays the named driver) yet never of the outcome."""
        soa = RunSpec(load=0.1, engine="soa", **FAST).execute()
        act = RunSpec(load=0.1, **FAST).execute()
        d_soa, d_act = soa.to_dict(), act.to_dict()
        for d in (d_soa, d_act):
            d.pop("wall_time")
            d["spec"].pop("engine")
        assert d_soa == d_act
        assert RunSpec(engine="soa").network_key() != RunSpec().network_key()
        assert "engine=soa" in RunSpec(engine="soa").describe()


class TestSpecConstructors:
    def test_load_sweep_specs(self):
        specs = small_specs()
        assert [s.load for s in specs] == [0.05, 0.15]
        assert all(s.shape == SHAPE and s.kind == "md-crossbar" for s in specs)

    def test_seed_replicas_vary_only_the_seed(self):
        specs = seed_replicas(small_specs(), seeds=[11, 12, 13])
        assert len(specs) == 6
        assert [s.seed for s in specs[:3]] == [11, 12, 13]
        assert [s.replica for s in specs[:3]] == [0, 1, 2]
        assert len({s.load for s in specs[:3]}) == 1

    def test_fault_placement_specs_default_enumeration(self):
        specs = fault_placement_specs("md-crossbar", SHAPE, 0.1)
        assert len(specs) > 1
        assert all(len(s.faults) == 1 for s in specs)
        assert len(set(specs)) == len(specs)

    def test_fault_placement_specs_explicit_faults(self):
        faults = [Fault.router((0, 0)), Fault.router((2, 2))]
        specs = fault_placement_specs("md-crossbar", SHAPE, 0.1, faults=faults)
        assert [s.faults for s in specs] == [(faults[0],), (faults[1],)]


class TestExecutors:
    """``run_specs``, the one-shot front door over a ``SweepSession``."""

    def test_serial_preserves_spec_order(self):
        specs = small_specs()
        results = run_specs(specs)
        assert [r.spec for r in results] == specs

    def test_parallel_matches_serial_exactly(self):
        """The acceptance criterion: a parallel sweep's merged results are
        identical to a serial run of the same specs (same points, same
        order)."""
        specs = seed_replicas(small_specs(), seeds=[7, 8])
        serial = [s.execute() for s in specs]
        parallel = run_specs(specs, jobs=2)
        assert [r.spec for r in parallel] == [r.spec for r in serial]
        for s, p in zip(serial, parallel):
            assert p.point == s.point

    def test_parallel_single_spec_falls_back_to_serial(self):
        with SweepSession(jobs=4) as session:
            results = session.run([RunSpec(load=0.05, **FAST)])
            assert session._pool is None  # no worker was spawned
        assert session.last_run.workers == 1
        assert len(results) == 1 and not results[0].point.deadlocked

    def test_run_specs_front_door(self):
        specs = small_specs()
        assert [r.spec for r in run_specs(specs)] == specs
        assert [r.spec for r in run_specs(specs, jobs=2)] == specs

    def test_seed_replicas_are_statistically_independent(self):
        specs = seed_replicas(
            [RunSpec(load=0.2, **FAST)], seeds=[101, 202, 303]
        )
        means = [r.point.latency.mean for r in run_specs(specs)]
        assert len(set(means)) > 1, "replicas must not repeat the same traffic"

    def test_same_spec_reproduces_identical_point(self):
        spec = RunSpec(load=0.2, seed=42, **FAST)
        assert spec.execute().point == spec.execute().point


class TestFailurePaths:
    """A raising worker must surface a clear error naming the failing
    spec -- not hang, and not hand back partial results."""

    def crashing_spec(self):
        # an unknown network kind raises inside the worker's build step
        return RunSpec(kind="no-such-network", load=0.1, **FAST)

    def test_serial_names_the_failing_spec(self):
        bad = self.crashing_spec()
        with pytest.raises(SpecExecutionError) as err:
            run_specs([RunSpec(load=0.05, **FAST), bad])
        assert "no-such-network" in str(err.value)
        assert err.value.spec == bad
        assert err.value.__cause__ is not None

    def test_parallel_names_the_failing_spec(self):
        specs = [
            RunSpec(load=0.05, **FAST),
            self.crashing_spec(),
            RunSpec(load=0.15, **FAST),
        ]
        with pytest.raises(SpecExecutionError) as err:
            run_specs(specs, jobs=2)
        assert err.value.spec == specs[1]
        assert "no-such-network" in str(err.value)

    def test_run_specs_propagates(self):
        with pytest.raises(SpecExecutionError):
            run_specs([self.crashing_spec(), self.crashing_spec()], jobs=2)

    def test_error_survives_pickling(self):
        """A pool worker raises the error itself, so it must cross the
        process boundary whole: spec, message and cause."""
        spec = self.crashing_spec()
        err = SpecExecutionError(spec, ValueError("bad input"))
        clone = pickle.loads(pickle.dumps(err))
        assert clone.spec == spec
        assert str(clone) == str(err)
        assert isinstance(clone.__cause__, ValueError)
        assert str(clone.__cause__) == "bad input"

        class Gnarly(Exception):
            # custom __init__ signature: pickle.loads cannot rebuild it
            def __init__(self, spec, detail):
                super().__init__(f"{spec}: {detail}")

        err = SpecExecutionError(spec, Gnarly("spec-3", "boom"))
        clone = pickle.loads(pickle.dumps(err))
        assert clone.spec == spec
        assert isinstance(clone.__cause__, RuntimeError)
        assert "boom" in str(clone.__cause__)


class TestFailureCancelsSiblings:
    """A failing spec must fail the sweep promptly: queued siblings are
    cancelled (``shutdown(cancel_futures=True)``), not ground through
    before the error can propagate."""

    SLOW = dict(
        kind="md-crossbar", shape=(8, 8), load=0.3,
        warmup=100, window=300, drain=3000,
    )

    def test_failure_does_not_drain_queued_slow_specs(self):
        import time

        slow = RunSpec(**self.SLOW)
        t0 = time.perf_counter()
        slow.execute()  # calibrate one slow point on this machine
        t_slow = time.perf_counter() - t0

        # the crasher leads the first chunk; a dozen slow siblings queue
        # behind it in later chunks on two workers
        specs = [RunSpec(kind="no-such-network", load=0.1, **FAST)] + [
            replace(slow, seed=seed) for seed in range(2, 14)
        ]
        t0 = time.perf_counter()
        with pytest.raises(SpecExecutionError):
            run_specs(specs, jobs=2)
        elapsed = time.perf_counter() - t0
        # draining the queue would take ~5 * t_slow; the failed run
        # cancels queued chunks and does not wait for the running one
        budget = max(3 * t_slow, 1.0)
        assert elapsed < budget, (
            f"failure path took {elapsed:.2f}s (budget {budget:.2f}s; "
            f"one slow spec is {t_slow:.2f}s) -- queued specs were not "
            f"cancelled"
        )


class TestSessionIdentity:
    """Satellite acceptance: seed replicas of the fault-placement family
    run serial, chunked-parallel, and cache-replayed -- all three
    byte-identical (``result_identity`` strips only ``wall_time``; the
    replay leg is byte-identical *including* wall times)."""

    def family(self):
        return seed_replicas(
            fault_placement_specs("md-crossbar", SHAPE, 0.1, **WINDOWS),
            seeds=[7, 8],
        )

    def test_serial_chunked_cached_byte_identity(self, tmp_path):
        from repro.runtime import ResultCache

        specs = self.family()
        reference = result_identity([s.execute() for s in specs])
        assert result_identity(run_specs(specs)) == reference
        assert result_identity(run_specs(specs, jobs=2)) == reference
        with SweepSession(jobs=2) as session:
            chunked = session.run(specs)
        assert result_identity(chunked) == reference

        cache = ResultCache(str(tmp_path / "cache"))
        first = run_specs(specs, jobs=2, cache=cache)
        assert result_identity(first) == reference
        replay = run_specs(specs, cache=cache)
        assert cache.hits == len(specs)
        assert json.dumps([r.to_dict() for r in replay]) == json.dumps(
            [r.to_dict() for r in first]
        )


class TestSeedDivergence:
    def test_specs_differing_only_in_seed_inject_differently(self):
        """Regression: the experiment-level seed must reach the injector,
        so two otherwise-identical specs produce different traffic."""
        base = RunSpec(load=0.2, seed=1, metrics=True, **FAST)
        other = replace(base, seed=2)
        r1, r2 = base.execute(), other.execute()
        # the collector metrics fingerprint the whole event stream
        assert r1.metrics.to_dict() != r2.metrics.to_dict()
        assert r1.point != r2.point
        # while the same seed reproduces the stream exactly
        again = base.execute()
        assert again.metrics.to_dict() == r1.metrics.to_dict()
        assert again.point == r1.point


class TestMetricsAcrossWorkers:
    def metric_specs(self):
        specs = load_sweep_specs(
            "md-crossbar", SHAPE, [0.05, 0.15], metrics=True, **WINDOWS
        )
        return seed_replicas(specs, seeds=[7, 8])

    def test_metrics_ride_the_point_results(self):
        res = RunSpec(load=0.1, metrics=True, **FAST).execute()
        assert res.metrics is not None
        assert res.metrics["deliveries"].value > 0
        d = json.loads(json.dumps(res.to_dict()))
        assert d["metrics"]["deliveries"]["value"] > 0
        # without the flag there is no metrics payload
        bare = RunSpec(load=0.1, **FAST).execute()
        assert bare.metrics is None
        assert "metrics" not in bare.to_dict()

    def test_metric_sets_survive_pickling(self):
        res = RunSpec(load=0.1, metrics=True, **FAST).execute()
        clone = pickle.loads(pickle.dumps(res))
        assert clone.metrics.to_dict() == res.metrics.to_dict()

    def test_parallel_metrics_merge_byte_identical_to_serial(self):
        """Acceptance criterion: a --jobs 4 metrics-enabled sweep merges to
        byte-identical metrics against the serial run of the same specs."""
        from repro.obs import merge_metric_sets

        specs = self.metric_specs()
        serial = [s.execute() for s in specs]
        parallel = run_specs(specs, jobs=4)
        for s, p in zip(serial, parallel):
            assert json.dumps(p.metrics.to_dict()) == json.dumps(
                s.metrics.to_dict()
            )
        merged_s = merge_metric_sets(r.metrics for r in serial)
        merged_p = merge_metric_sets(r.metrics for r in parallel)
        assert json.dumps(merged_p.to_dict()) == json.dumps(merged_s.to_dict())

    def test_collectors_do_not_change_the_simulated_outcome(self):
        """Engine parity at the runtime level: the measured point of a
        metrics-enabled spec equals the bare spec's."""
        spec = RunSpec(load=0.2, **FAST)
        assert replace(spec, metrics=True).execute().point == spec.execute().point


class TestSweepFrontEnd:
    def test_sweep_accepts_pattern_names_and_jobs(self):
        from repro.experiments.sweeps import sweep

        serial = sweep("md-crossbar", SHAPE, [0.05, 0.15], pattern="uniform",
                       warmup=30, window=60, drain=600)
        fanned = sweep("md-crossbar", SHAPE, [0.05, 0.15], pattern="uniform",
                       jobs=2, warmup=30, window=60, drain=600)
        assert fanned == serial

    def test_sweep_adhoc_pattern_requires_serial(self):
        from repro.experiments.sweeps import sweep

        def odd_pattern(src, shape, rng):
            return (0, 0)

        points = sweep("md-crossbar", SHAPE, [0.05], pattern=odd_pattern,
                       warmup=30, window=60, drain=600)
        assert len(points) == 1
        with pytest.raises(ValueError):
            sweep("md-crossbar", SHAPE, [0.05], pattern=odd_pattern, jobs=2,
                  warmup=30, window=60, drain=600)
