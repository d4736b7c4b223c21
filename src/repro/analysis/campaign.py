"""Streaming Monte-Carlo reliability campaigns (paper Sections 1 and 4).

The estimand: walk one random switch-failure order, with exponential
inter-arrival times, until the accumulated fault set no longer admits a
valid routing configuration; the mean death time is the extended
facility's MTTF.  Asking :func:`make_config` per step is fine for 200
samples on a 4x3 grid and hopeless for confidence intervals on the full
16x16x8 SR2201 (2560 switches) -- the per-step ``make_config`` rebuild
enumerates every candidate S-XB line against every fault, and every
sample pays it again.

This module is the one MTTF estimator: ``repro campaign``, E19 and
:func:`repro.analysis.reliability.mttf_comparison` all go through it.
Three ideas:

**Closed-form feasibility.**  ``make_config`` succeeds on a fault set
iff (R1) all faulty crossbars share one dimension -- which is then
routed first, else dimension 0 -- and (R2) an admissible S-XB line
exists.  A candidate line is blocked by a faulty router iff it shares
that router's coordinate in *any* non-first dimension of extent > 1
(:func:`repro.core.config._line_ok`), so the admissible lines form a
per-dimension product set and their count is

    prod_{k != first, shape[k] > 1} (shape[k] - |distinct faulty router
    coords in k|)  -  |faulty first-dim crossbars whose line lies inside
    that product|.

Feasible iff the count is >= 1 (>= 2 for the naive detour scheme, which
also needs a distinct D-XB line).  Both the scalar oracle
(:meth:`SwitchUniverse.admissible_lines`) and the vectorized kernel
maintain this incrementally -- O(dims) per added fault instead of a
candidate-line scan -- and ``tests/analysis/test_campaign.py`` pins
exact parity against ``make_config`` on a zoo of shapes.

**Block-seeded vectorized sampling.**  A campaign is a fixed grid of
sampling *blocks* of :attr:`CampaignSpec.block_samples` samples each.
Block ``b`` draws from ``default_rng(SeedSequence(seed, spawn_key=(b,)))``
-- the sub-stream depends only on the campaign seed and the block index,
never on chunking or worker count.  Within a block the kernel runs all
samples in lockstep and keeps state for the *live* walks only (ended
walks are scattered to the outputs and compressed out): standard
exponentials are drawn per escalation window and scaled by
``1/((n - step) * rate)``, failure orders are drawn without replacement
by vectorized rejection sampling over the live walks in sample order,
and coordinate occupancy is one bit per coordinate in ``uint64`` planes
(:meth:`SwitchUniverse._build_occupancy_bits`), so a router fault is an
OR, the free-coordinate counts follow from the freshly set bits, and
"is this faulty crossbar's line blocked" is an AND against the line's
bits -- elementwise, no gather through a row index.

**Deterministic streaming reduction.**  Each block reduces to a tiny
:class:`BlockState` -- Welford ``(samples, mean, M2)`` over the death
times (computed with ``math.fsum`` so the result is platform-stable), a
survived-fault sum, and per-depth tallies.  Workers ship block states,
never per-sample arrays, and the parent folds them **strictly in block
index order** with Chan's merge.  The merge is not associative, so the
fixed fold order is what makes serial, chunked, any ``--jobs``, and
checkpoint/resumed campaigns byte-identical -- hashed by
:attr:`CampaignResult.identity_sha256`, pinned against recorded values
by ``TestKernelGolden`` and CI's campaign smoke.

Dispatch goes through :meth:`repro.runtime.session.SweepSession.run_tasks`
(the generic warm-pool fan-out added for campaigns): thousands of
samples per IPC round trip, no per-sample :class:`RunSpec` pickling or
cache-key hashing.  Each worker process memoizes its
:class:`SwitchUniverse` per shape (:func:`worker_universe`), so the R1/R2
decode tables are built once per worker and shared across every chunk
and sample it serves.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ConfigError
from ..core.coords import num_nodes, validate_shape
from ..core.fault import Fault
from .reliability import MTTFEstimate

#: samples per sampling block -- the atomic unit of RNG seeding and
#: reduction.  Part of the campaign identity: changing it changes which
#: sub-stream draws which sample.  16384 amortizes the kernel's
#: per-step numpy dispatch overhead (~1.3x the throughput of 4096 on
#: the full machine, 514k vs 394k samples/s in one process) while a
#: block's working set peaks at 7 MiB (tracemalloc; 65536 would reach
#: 620k samples/s at 28 MiB a worker).
DEFAULT_BLOCK_SAMPLES = 16384

#: steps the block kernel runs before re-checking how many samples are
#: still alive (survivors continue with further draws from the same
#: block stream, so the window size does not affect results)
_WINDOW = 16

#: 95% two-sided normal quantile, for :func:`wilson_interval`
WILSON_Z = 1.959963984540054

#: admissible S-XB lines each supported detour scheme needs: the paper's
#: SAFE scheme reuses the S-XB as D-XB (one line), the naive scheme
#: needs a second, distinct admissible line
_SCHEME_NEEDS: Dict[str, int] = {"dxb": 1}


class SwitchUniverse:
    """Decode tables + feasibility oracle for one network shape.

    Indexes the switch set exactly like
    :func:`repro.core.multifault.all_single_faults`: routers first in
    C-order (index = lexicographic coordinate index), then the
    dimension-``k`` crossbars for ``k = 0, 1, ...``, each dimension's
    lines in C-order over the remaining coordinates.  The Monte-Carlo
    walks draw plain integers from this universe; :meth:`fault` converts
    back to a :class:`~repro.core.fault.Fault` when one is needed.
    """

    def __init__(self, shape) -> None:
        self.shape = validate_shape(shape)
        d = len(self.shape)
        self.num_dims = d
        self.num_routers = num_nodes(self.shape)
        #: dimensions of extent > 1; extent-1 dimensions never constrain
        #: rule R2 (their only coordinate is shared by every line)
        self.wide_dims: Tuple[int, ...] = tuple(
            k for k in range(d) if self.shape[k] > 1
        )
        r = self.num_routers
        self.router_coords = np.stack(
            np.unravel_index(np.arange(r), self.shape), axis=1
        ).astype(np.int64)
        xb_dim: List[int] = []
        xb_line_rows: List[np.ndarray] = []
        for dim in range(d):
            rest = tuple(n for k, n in enumerate(self.shape) if k != dim)
            lines = r // self.shape[dim]
            if rest:
                cols = np.stack(
                    np.unravel_index(np.arange(lines), rest), axis=1
                )
            else:
                cols = np.zeros((lines, 0), dtype=np.int64)
            # expand the line key to full width; the slot at ``dim`` is a
            # placeholder nothing reads: the oracle skips the crossbars'
            # own (first) dimension and ``line_bits`` leaves it out
            full = np.zeros((lines, d), dtype=np.int64)
            full[:, [k for k in range(d) if k != dim]] = cols
            xb_dim.extend([dim] * lines)
            xb_line_rows.append(full)
        self.xb_dim = np.asarray(xb_dim, dtype=np.int64)
        self.xb_line = (
            np.concatenate(xb_line_rows, axis=0)
            if xb_line_rows
            else np.zeros((0, d), dtype=np.int64)
        )
        self.num_switches = self.num_routers + len(self.xb_dim)
        self._build_occupancy_bits()

    def _build_occupancy_bits(self) -> None:
        """One-hot tables for the block kernel's occupancy masks.

        The coordinates of all wide dimensions form one bit string
        (dimension ``k``'s coordinate ``c`` is bit ``offset[k] + c``),
        cut into 64-bit *planes* -- so any extent works, and the SR2201's
        16 + 16 + 8 coordinates share a single plane.
        ``router_bits[p, switch]`` holds a router's coordinate bits
        (all-zero columns for crossbars), ``line_bits[p, xb]`` a
        crossbar line's (nothing on the crossbar's own dimension), and
        ``dim_segments`` lists ``(wide index, plane, mask)`` for every
        plane a wide dimension's bits fall into.
        """
        total = sum(self.shape[k] for k in self.wide_dims)
        planes = -(-total // 64)
        self.router_bits = np.zeros((planes, self.num_switches), np.uint64)
        self.line_bits = np.zeros((planes, len(self.xb_dim)), np.uint64)
        self.dim_segments: List[Tuple[int, int, np.uint64]] = []
        offset = 0
        for w, k in enumerate(self.wide_dims):
            end = offset + self.shape[k]
            elsewhere = np.flatnonzero(self.xb_dim != k)
            for table, cols, coord in (
                (
                    self.router_bits,
                    np.arange(self.num_routers),
                    self.router_coords[:, k],
                ),
                (self.line_bits, elsewhere, self.xb_line[elsewhere, k]),
            ):
                # each column is hit once per dimension, so the in-place
                # OR through a fancy index never meets a repeated cell
                table[(offset + coord) // 64, cols] |= np.uint64(1) << (
                    (offset + coord) % 64
                ).astype(np.uint64)
            for p in range(offset // 64, (end - 1) // 64 + 1):
                lo, hi = max(offset, 64 * p), min(end, 64 * (p + 1))
                mask = ((1 << (hi - lo)) - 1) << (lo - 64 * p)
                self.dim_segments.append((w, p, np.uint64(mask)))
            offset = end

    # ---------------------------------------------------------- conversions
    def fault(self, index: int) -> Fault:
        """The :class:`Fault` at ``index`` (``all_single_faults`` order)."""
        if not 0 <= index < self.num_switches:
            raise ValueError(
                f"switch index {index} out of range for {self.shape}"
            )
        if index < self.num_routers:
            return Fault.router(tuple(map(int, self.router_coords[index])))
        xi = index - self.num_routers
        dim = int(self.xb_dim[xi])
        line = tuple(
            int(self.xb_line[xi, k])
            for k in range(self.num_dims)
            if k != dim
        )
        return Fault.crossbar(dim, line)

    # ---------------------------------------------------------- feasibility
    def admissible_lines(self, indices: Sequence[int]) -> int:
        """Admissible S-XB lines for the fault set, or ``-1`` on an R1
        violation (faulty crossbars in more than one dimension).

        The scalar form of the closed-form count in the module docstring:
        O(faults * dims), no candidate-line enumeration.
        """
        xb_first = -1
        forbidden: Dict[int, set] = {k: set() for k in self.wide_dims}
        xb_lines: List[np.ndarray] = []
        for i in indices:
            if i < self.num_routers:
                coord = self.router_coords[i]
                for k in self.wide_dims:
                    forbidden[k].add(int(coord[k]))
            else:
                xi = i - self.num_routers
                dim = int(self.xb_dim[xi])
                if xb_first >= 0 and dim != xb_first:
                    return -1
                xb_first = dim
                xb_lines.append(self.xb_line[xi])
        first = xb_first if xb_first >= 0 else 0
        count = 1
        for k in self.wide_dims:
            if k != first:
                count *= self.shape[k] - len(forbidden[k])
        blocked_by_fault = 0
        for line in xb_lines:
            if all(
                int(line[k]) not in forbidden[k]
                for k in self.wide_dims
                if k != first
            ):
                blocked_by_fault += 1
        return count - blocked_by_fault

    def feasible(self, indices: Sequence[int], need: int = 1) -> bool:
        """Whether ``make_config`` would accept this fault set (``need=1``
        for the SAFE detour scheme, ``need=2`` for the naive scheme's
        extra distinct D-XB line)."""
        return self.admissible_lines(indices) >= need


#: per-process universes, keyed by shape -- the per-worker feasibility
#: memo: each worker builds the decode tables once and every chunk of
#: every campaign on that shape shares them
_worker_universes: Dict[Tuple[int, ...], SwitchUniverse] = {}


def worker_universe(shape) -> SwitchUniverse:
    shp = validate_shape(shape)
    uni = _worker_universes.get(shp)
    if uni is None:
        uni = _worker_universes[shp] = SwitchUniverse(shp)
    return uni


# --------------------------------------------------------------------------
# streaming reducer state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockState:
    """The streaming-reducer state of one (or several merged) blocks.

    ``mean``/``m2`` are Welford aggregates of the machine death times;
    ``depth_hist[j]`` counts samples whose walk ended with ``j``
    accumulated faults, ``disc_hist[j]`` the subset that ended because
    fault ``j`` made the set infeasible (the rest hit the fault cap).
    Plain numbers and lists, so states pickle across workers and
    round-trip through JSON checkpoints.
    """

    samples: int
    mean: float
    m2: float
    survived_sum: int
    depth_hist: Tuple[int, ...]
    disc_hist: Tuple[int, ...]

    def to_dict(self) -> Dict:
        return {
            "samples": self.samples,
            "mean": self.mean,
            "m2": self.m2,
            "survived_sum": self.survived_sum,
            "depth_hist": list(self.depth_hist),
            "disc_hist": list(self.disc_hist),
        }

    @staticmethod
    def from_dict(doc: Dict) -> "BlockState":
        return BlockState(
            samples=int(doc["samples"]),
            mean=float(doc["mean"]),
            m2=float(doc["m2"]),
            survived_sum=int(doc["survived_sum"]),
            depth_hist=tuple(int(v) for v in doc["depth_hist"]),
            disc_hist=tuple(int(v) for v in doc["disc_hist"]),
        )


def empty_state() -> BlockState:
    return BlockState(0, 0.0, 0.0, 0, (), ())


def merge_states(a: BlockState, b: BlockState) -> BlockState:
    """Chan's parallel Welford merge plus exact tally addition.

    **Not associative in floating point** -- campaign code must fold
    block states left-to-right in block index order, which is exactly
    what makes serial, chunked and resumed campaigns byte-identical.
    """
    if a.samples == 0:
        return b
    if b.samples == 0:
        return a
    n = a.samples + b.samples
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.samples / n)
    m2 = a.m2 + b.m2 + delta * delta * (a.samples * b.samples / n)
    width = max(len(a.depth_hist), len(b.depth_hist))

    def pad(h: Tuple[int, ...]) -> List[int]:
        return list(h) + [0] * (width - len(h))

    depth = [x + y for x, y in zip(pad(a.depth_hist), pad(b.depth_hist))]
    disc = [x + y for x, y in zip(pad(a.disc_hist), pad(b.disc_hist))]
    return BlockState(
        samples=n,
        mean=mean,
        m2=m2,
        survived_sum=a.survived_sum + b.survived_sum,
        depth_hist=tuple(depth),
        disc_hist=tuple(disc),
    )


def wilson_interval(
    successes: int, trials: int, z: float = WILSON_Z
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to
    [0, 1].  ``trials == 0`` returns the vacuous (0, 1) interval."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"bad tally {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # at the boundary tallies the exact bound is 0 (resp. 1); computing
    # it as center -/+ half leaves ~1e-19 of rounding residue
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# --------------------------------------------------------------------------
# the vectorized block kernel
# --------------------------------------------------------------------------


def sample_block(
    universe: SwitchUniverse,
    rng: np.random.Generator,
    size: int,
    rate: float = 1.0,
    max_faults: Optional[int] = None,
    need: int = 1,
    debug: bool = False,
):
    """Run ``size`` fault-placement walks in lockstep on one RNG stream.

    Each walk draws switch failures uniformly without replacement with
    exponential inter-arrival times (scale ``1/((n - step) * rate)``)
    and stops when the accumulated set turns infeasible or reaches the
    fault cap: a walk that dies at fault ``k`` *survived* ``k - 1``
    faults when infeasible, ``k`` when capped.

    Every state array holds the *live* walks only, walks on the last
    axis, in ascending sample order (column ``i`` is sample ``idx[i]``):
    walks that end are scattered to the outputs and compressed out, so
    a step touches nothing that is dead.  The draws are therefore
    exactly one ``standard_exponential((live, window))`` per window and
    one ``integers(0, n, live)`` plus its rejection redraws per step --
    the stream contract ``TestKernelGolden`` pins.

    Returns ``(times, depth, infeasible)`` arrays, plus the per-sample
    failure orders when ``debug`` (the parity tests replay those
    prefixes through ``make_config``).
    """
    n = universe.num_switches
    r = universe.num_routers
    cap = n if max_faults is None else max(1, min(int(max_faults), n))
    times_out = np.zeros(size, dtype=np.float64)
    depth_out = np.zeros(size, dtype=np.int64)
    infeasible_out = np.zeros(size, dtype=bool)
    orders: List[List[int]] = [[] for _ in range(size)] if debug else []

    wide = np.asarray(universe.wide_dims, dtype=np.int64)[:, None]
    extents = np.array(
        [universe.shape[k] for k in universe.wide_dims], dtype=np.int64
    )
    planes = universe.router_bits.shape[0]
    idx = np.arange(size)
    times = np.zeros(size, dtype=np.float64)
    # occupied coordinates, one bit each (see _build_occupancy_bits)
    occ = np.zeros((planes, size), dtype=np.uint64)
    # unoccupied coordinates per wide dimension
    free = np.repeat(extents[:, None], size, axis=1)
    # the dimension routed first: that of the walk's faulty crossbars
    # (all of one dimension, or the walk is dead), 0 while it has none
    first = np.zeros(size, dtype=np.int64)
    xbcnt = np.zeros(size, dtype=np.int64)
    # coordinate bits of each faulty crossbar's line, one slot per
    # crossbar; unused slots stay 0 and so never read as blocked
    lines = np.zeros((planes, 0, size), dtype=np.uint64)
    chosen = np.empty((min(cap, 4), size), dtype=np.int32)

    step = 0
    while idx.size:
        window = min(_WINDOW, cap - step)
        exps = rng.standard_exponential((idx.size, window))
        pos = np.arange(idx.size)
        for j in range(window):
            # without-replacement draw: uniform over all n switches,
            # rejecting (and redrawing) indices the walk already holds
            cand = rng.integers(0, n, size=idx.size)
            if step:
                held = chosen[:step]
                bad = np.flatnonzero((held == cand.astype(np.int32)).any(axis=0))
                while bad.size:
                    cand[bad] = rng.integers(0, n, size=bad.size)
                    still = (held[:, bad] == cand[bad]).any(axis=0)
                    bad = bad[still]
            if step == chosen.shape[0]:
                chosen = np.concatenate([chosen, np.empty_like(chosen)])
            chosen[step] = cand
            times += exps[pos, j] / ((n - step) * rate)

            # router faults occupy their coordinates (crossbar columns
            # of router_bits are zero, so they pass through untouched)
            bits = universe.router_bits.take(cand, axis=1)
            fresh = bits & ~occ
            occ |= bits
            for w, p, mask in universe.dim_segments:
                free[w] -= (fresh[p] & mask) != 0

            # crossbar faults: rule R1 (a second crossbar dimension
            # kills the walk), else remember the line
            x_sel = np.flatnonzero(cand >= r)
            xi = cand[x_sel] - r
            xd = universe.xb_dim[xi]
            conflict = (xbcnt[x_sel] > 0) & (first[x_sel] != xd)
            ok = x_sel[~conflict]
            if ok.size:
                cnt = xbcnt[ok]
                if int(cnt.max()) == lines.shape[1]:
                    slot = np.zeros((planes, 1, idx.size), dtype=np.uint64)
                    lines = np.concatenate([lines, slot], axis=1)
                first[ok] = xd[~conflict]
                lines[:, cnt, ok] = universe.line_bits[:, xi[~conflict]]
                xbcnt[ok] = cnt + 1

            # rule R2: the product set of free coordinates outside the
            # first dimension, minus the faulty crossbars' lines inside
            # it.  ``free * ~excluded + excluded`` is ``where(excluded,
            # 1, free)`` without the branch (the mask is unpredictable).
            excluded = first == wide
            count = (free * ~excluded + excluded).prod(axis=0)
            slots = lines.shape[1]
            if slots:
                blocked = np.logical_or.reduce(occ[:, None, :] & lines, axis=0)
                # summed as bytes in the narrowest type that holds
                # ``slots`` (bool -> int64 accumulation is 10x slower)
                count -= xbcnt - blocked.view(np.uint8).sum(
                    axis=0, dtype=np.min_scalar_type(slots)
                )

            died = count < need
            died[x_sel] |= conflict
            step += 1
            stop = died if step < cap else np.ones(idx.size, dtype=bool)
            if stop.any():
                ended = idx[stop]
                times_out[ended] = times[stop]
                depth_out[ended] = step
                infeasible_out[ended] = died[stop]
                if debug:
                    for i, order in zip(ended, chosen[:step, stop].T.tolist()):
                        orders[i] = order
                kept = np.flatnonzero(~stop)
                idx, pos, times, first, xbcnt, occ, free, lines, chosen = (
                    state.take(kept, axis=-1)
                    for state in (
                        idx, pos, times, first, xbcnt, occ, free, lines, chosen
                    )
                )
            if idx.size == 0:
                break
    if debug:
        return times_out, depth_out, infeasible_out, orders
    return times_out, depth_out, infeasible_out


def _reduce_block(
    times: np.ndarray, depth: np.ndarray, infeasible: np.ndarray
) -> BlockState:
    """Fold one block's sample arrays into a :class:`BlockState`.

    ``math.fsum`` gives exactly rounded sums, so the per-block floats do
    not depend on numpy's reduction tree (or version) -- the states, and
    therefore the campaign identity hash, are platform-stable.
    """
    t = times.tolist()
    size = len(t)
    mean = math.fsum(t) / size
    m2 = math.fsum((x - mean) ** 2 for x in t)
    survived = depth - infeasible.astype(np.int64)
    depth_hist = np.bincount(depth).tolist()
    disc_hist = np.bincount(
        depth[infeasible], minlength=len(depth_hist)
    ).tolist()
    return BlockState(
        samples=size,
        mean=mean,
        m2=m2,
        survived_sum=int(survived.sum()),
        depth_hist=tuple(depth_hist),
        disc_hist=tuple(disc_hist),
    )


# --------------------------------------------------------------------------
# campaign spec / chunk entry / driver
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """One reproducible Monte-Carlo reliability campaign.

    Every field is part of the result identity: the same spec produces
    the same estimate bit-for-bit no matter how it is chunked, how many
    workers run it, or whether it was checkpointed and resumed.
    """

    shape: Tuple[int, ...]
    samples: int
    seed: int = 13
    rate: float = 1.0
    max_faults: Optional[int] = None
    scheme: str = "dxb"
    block_samples: int = DEFAULT_BLOCK_SAMPLES

    def validated(self) -> "CampaignSpec":
        spec = replace(self, shape=validate_shape(self.shape))
        if spec.samples < 1:
            raise ValueError("a campaign needs at least one sample")
        if spec.block_samples < 1:
            raise ValueError("block_samples must be >= 1")
        if spec.rate <= 0:
            raise ValueError("failure rate must be positive")
        if spec.scheme not in _SCHEME_NEEDS:
            raise ConfigError(
                f"campaigns model the facility schemes "
                f"{sorted(_SCHEME_NEEDS)}, not {spec.scheme!r}"
            )
        return spec

    @property
    def need(self) -> int:
        return _SCHEME_NEEDS[self.scheme]

    @property
    def num_blocks(self) -> int:
        return -(-self.samples // self.block_samples)

    def block_size(self, block: int) -> int:
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")
        start = block * self.block_samples
        return min(self.block_samples, self.samples - start)

    def block_rng(self, block: int) -> np.random.Generator:
        """The block's private sub-stream: a function of the campaign
        seed and the block index only -- never of chunking or jobs."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(block,))
        )

    def to_dict(self) -> Dict:
        return {
            "shape": list(self.shape),
            "samples": self.samples,
            "seed": self.seed,
            "rate": self.rate,
            "max_faults": self.max_faults,
            "scheme": self.scheme,
            "block_samples": self.block_samples,
        }

    @staticmethod
    def from_dict(doc: Dict) -> "CampaignSpec":
        return CampaignSpec(
            shape=tuple(doc["shape"]),
            samples=int(doc["samples"]),
            seed=int(doc["seed"]),
            rate=float(doc["rate"]),
            max_faults=(
                None if doc["max_faults"] is None else int(doc["max_faults"])
            ),
            scheme=doc["scheme"],
            block_samples=int(doc["block_samples"]),
        ).validated()


def execute_campaign_blocks(spec: CampaignSpec, lo: int, hi: int):
    """Module-level chunk entry (importable, hence picklable): run
    blocks ``[lo, hi)`` of ``spec`` and ship their per-block states.

    One IPC round trip carries ``(hi - lo) * block_samples`` samples in
    and a few hundred bytes of reducer state out; the parent never sees
    a per-sample value.
    """
    universe = worker_universe(spec.shape)
    t0 = perf_counter()
    states: List[Dict] = []
    for block in range(lo, hi):
        arrays = sample_block(
            universe,
            spec.block_rng(block),
            spec.block_size(block),
            rate=spec.rate,
            max_faults=spec.max_faults,
            need=spec.need,
        )
        states.append(_reduce_block(*arrays).to_dict())
    return os.getpid(), perf_counter() - t0, states


@dataclass(frozen=True)
class CampaignCheckpoint:
    """A campaign frozen at a block boundary: resume with
    :func:`run_campaign` (``resume=``) to fold the remaining blocks onto
    the saved state -- byte-identical to running the campaign in one go.
    """

    spec: CampaignSpec
    blocks_done: int
    state: BlockState

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "blocks_done": self.blocks_done,
            "state": self.state.to_dict(),
        }

    @staticmethod
    def from_dict(doc: Dict) -> "CampaignCheckpoint":
        return CampaignCheckpoint(
            spec=CampaignSpec.from_dict(doc["spec"]),
            blocks_done=int(doc["blocks_done"]),
            state=BlockState.from_dict(doc["state"]),
        )


@dataclass(frozen=True)
class CampaignResult:
    """A finished (or checkpointed) campaign: the merged reducer state
    plus how the runtime happened to execute it."""

    spec: CampaignSpec
    state: BlockState
    blocks_done: int
    wall_s: float
    workers: int
    chunks: int

    @property
    def samples_done(self) -> int:
        return self.state.samples

    @property
    def complete(self) -> bool:
        return self.blocks_done == self.spec.num_blocks

    def estimate(self) -> MTTFEstimate:
        """The streaming Welford estimate (units of ``1/rate``).

        ``std_error`` is NaN -- explicitly, not via a ddof warning --
        when only one sample was drawn: one observation carries no
        spread information.
        """
        s = self.state
        if s.samples == 0:
            raise ValueError("no samples folded yet")
        if s.samples > 1:
            std_error = math.sqrt(s.m2 / (s.samples - 1)) / math.sqrt(
                s.samples
            )
        else:
            std_error = float("nan")
        return MTTFEstimate(
            mean=s.mean,
            std_error=std_error,
            mean_faults_survived=s.survived_sum / s.samples,
            samples=s.samples,
        )

    def disconnect_table(self) -> List[Dict]:
        """P(disconnect | k faults) with Wilson 95% intervals.

        ``trials`` at ``k`` counts the samples whose walk formed a
        ``k``-fault set (died at depth >= k); ``disconnects`` the subset
        whose ``k``-th fault made the set infeasible.
        """
        hist, disc = self.state.depth_hist, self.state.disc_hist
        suffix = 0
        trials_at = [0] * len(hist)
        for k in range(len(hist) - 1, -1, -1):
            suffix += hist[k]
            trials_at[k] = suffix
        rows: List[Dict] = []
        for k in range(1, len(hist)):
            trials = trials_at[k]
            if trials == 0:
                continue
            successes = disc[k]
            lo, hi = wilson_interval(successes, trials)
            rows.append(
                {
                    "k": k,
                    "trials": trials,
                    "disconnects": successes,
                    "p": successes / trials,
                    "wilson_lo": lo,
                    "wilson_hi": hi,
                }
            )
        return rows

    @property
    def identity_sha256(self) -> str:
        """sha256 over the spec plus the merged state with floats in
        ``float.hex`` form: byte-equal across chunkings, job counts and
        checkpoint/resume splits, or the determinism contract is broken.
        """
        import hashlib

        s = self.state
        doc = {
            "campaign": self.spec.to_dict(),
            "blocks_done": self.blocks_done,
            "state": {
                "samples": s.samples,
                "mean": s.mean.hex(),
                "m2": s.m2.hex(),
                "survived_sum": s.survived_sum,
                "depth_hist": list(s.depth_hist),
                "disc_hist": list(s.disc_hist),
            },
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def checkpoint(self) -> CampaignCheckpoint:
        return CampaignCheckpoint(
            spec=self.spec, blocks_done=self.blocks_done, state=self.state
        )

    def to_dict(self) -> Dict:
        est = self.estimate()
        return {
            "spec": self.spec.to_dict(),
            "samples": self.samples_done,
            "blocks": self.blocks_done,
            "mean_mttf": est.mean,
            "std_error": (
                est.std_error if math.isfinite(est.std_error) else None
            ),
            "mean_faults_survived": est.mean_faults_survived,
            "disconnect_table": self.disconnect_table(),
            "identity_sha256": self.identity_sha256,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "chunks": self.chunks,
        }


def run_campaign(
    spec: CampaignSpec,
    jobs: Optional[int] = None,
    session=None,
    ledger=None,
    progress: Optional[Callable[[object, int, int], None]] = None,
    resume: Optional[CampaignCheckpoint] = None,
    until_block: Optional[int] = None,
) -> CampaignResult:
    """Run a campaign, streaming block states through the warm runtime.

    ``jobs`` fans chunks of blocks over a
    :class:`~repro.runtime.session.SweepSession` (pass ``session=`` to
    reuse a warm one; its ``jobs``/``chunks_per_worker`` then apply).
    ``progress(None, done_blocks, total_blocks)`` fires per completed
    chunk -- :class:`~repro.obs.telemetry.LiveDashboard` plugs in
    directly.  ``ledger`` records ``campaign_start`` /
    ``campaign_chunk`` / ``campaign_end``.  ``resume`` continues a
    :class:`CampaignCheckpoint`; ``until_block`` stops early at a block
    boundary (producing a resumable partial result).

    Chunk results arrive in completion order but are **folded in block
    index order** -- out-of-order chunks wait in a small buffer of
    reducer states (never samples), so the merged estimate is invariant
    under chunking, worker count and resume splits.
    """
    from ..runtime.session import SweepSession, chunk_indices

    spec = spec.validated()
    t0 = perf_counter()
    total_blocks = spec.num_blocks
    state = empty_state()
    start_block = 0
    if resume is not None:
        if resume.spec.to_dict() != spec.to_dict():
            raise ValueError(
                "checkpoint belongs to a different campaign spec"
            )
        state = resume.state
        start_block = resume.blocks_done
    stop_block = total_blocks if until_block is None else until_block
    if not start_block <= stop_block <= total_blocks:
        raise ValueError(
            f"bad block range [{start_block}, {stop_block}) for "
            f"{total_blocks} blocks"
        )

    own_session = session is None
    if own_session:
        session = SweepSession(jobs=jobs)
    todo = stop_block - start_block
    workers = session.effective_workers(todo)
    slices = chunk_indices(todo, workers * session.chunks_per_worker)
    chunks = [(start_block + a, start_block + b) for a, b in slices]
    if ledger is not None:
        ledger.record(
            "campaign_start",
            **spec.to_dict(),
            blocks=total_blocks,
            first_block=start_block,
            last_block=stop_block,
            jobs=session.jobs,
            workers=workers,
            chunks=len(chunks),
        )

    done_blocks = 0
    pending: Dict[int, List[BlockState]] = {}
    cursor = 0

    def on_result(index: int, payload) -> None:
        nonlocal done_blocks, cursor, state
        worker, wall_s, state_docs = payload
        lo, hi = chunks[index]
        done_blocks += hi - lo
        if ledger is not None:
            ledger.record(
                "campaign_chunk",
                chunk=index,
                first_block=lo,
                last_block=hi,
                samples=sum(
                    spec.block_size(b) for b in range(lo, hi)
                ),
                worker=worker,
                wall_s=wall_s,
            )
        pending[index] = [BlockState.from_dict(d) for d in state_docs]
        while cursor in pending:
            for block_state in pending.pop(cursor):
                state = merge_states(state, block_state)
            cursor += 1
        if progress is not None:
            progress(None, done_blocks, todo)

    try:
        if chunks:
            session.run_tasks(
                execute_campaign_blocks,
                [(spec, lo, hi) for lo, hi in chunks],
                on_result=on_result,
            )
    finally:
        if own_session:
            session.close()
    assert cursor == len(chunks), "campaign chunks were lost"

    result = CampaignResult(
        spec=spec,
        state=state,
        blocks_done=stop_block,
        wall_s=perf_counter() - t0,
        workers=workers,
        chunks=len(chunks),
    )
    if ledger is not None:
        est = result.estimate()
        ledger.record(
            "campaign_end",
            samples=result.samples_done,
            blocks=result.blocks_done,
            mean_mttf=est.mean,
            std_error=(
                est.std_error if math.isfinite(est.std_error) else None
            ),
            mean_faults_survived=est.mean_faults_survived,
            identity_sha256=result.identity_sha256,
            wall_s=result.wall_s,
        )
    return result


def campaign_mttf_estimate(
    shape,
    samples: int = 200,
    seed: int = 13,
    rate: float = 1.0,
    max_faults: Optional[int] = None,
    jobs: Optional[int] = None,
) -> MTTFEstimate:
    """One campaign's estimate as an :class:`MTTFEstimate`: what
    :func:`repro.analysis.reliability.mttf_comparison` and the E19
    benchmark report."""
    spec = CampaignSpec(
        shape=tuple(shape),
        samples=samples,
        seed=seed,
        rate=rate,
        max_faults=max_faults,
    )
    return run_campaign(spec, jobs=jobs).estimate()
