"""Back-compat shim: the sweep machinery lives in repro.experiments and
the parallel execution machinery in repro.runtime.

Benchmarks import from here so they keep working wherever the harness
moves.  ``sweep(..., jobs=N)`` fans a bench's points out over worker
processes; ``RunSpec``/``run_specs`` run a bench's custom batches (fault
enumerations, seed replicas) through a one-shot ``SweepSession``.
"""

import os

from repro.experiments.sweeps import (  # noqa: F401
    build_network,
    run_load_point,
    saturation_load,
    sweep,
)
from repro.runtime import (  # noqa: F401
    PointResult,
    RunSpec,
    fault_placement_specs,
    load_sweep_specs,
    run_specs,
    seed_replicas,
)

#: worker processes for multi-point benches: ``REPRO_JOBS=4 pytest
#: benchmarks/ ...`` fans their sweeps out; unset/0 keeps them serial.
JOBS = int(os.environ.get("REPRO_JOBS", "0")) or None
