"""The runtime layer: parallel execution of independent simulation points.

Sits between the simulation engine (:mod:`repro.sim`) and the consumers
(:mod:`repro.experiments`, the CLI, the benchmarks).  Work is described by
picklable :class:`RunSpec`s, dispatched by a :class:`SweepSession`
(in-process or over persistent workers, chunked dispatch, per-worker
network reuse, optional on-disk :class:`ResultCache`; :func:`run_specs`
is the one-shot front door), and merged deterministically in spec order
-- a parallel, chunked or cache-replayed sweep returns byte-identical
results to a serial one.
"""

from .cache import ResultCache, result_identity, spec_key
from .session import (
    NetworkCache,
    RunInfo,
    SpecExecutionError,
    SweepSession,
    chunk_indices,
    run_specs,
)
from .spec import (
    PointResult,
    RunSpec,
    fault_placement_specs,
    load_sweep_specs,
    seed_replicas,
)

__all__ = [
    "NetworkCache",
    "PointResult",
    "ResultCache",
    "RunInfo",
    "RunSpec",
    "SpecExecutionError",
    "SweepSession",
    "chunk_indices",
    "fault_placement_specs",
    "load_sweep_specs",
    "result_identity",
    "run_specs",
    "seed_replicas",
    "spec_key",
]
