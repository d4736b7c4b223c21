"""Simulator configuration.

The SR2201 transmits packets with cut-through routing (paper Section 3.2):
the header flit advances as soon as its output port is free, and a blocked
packet keeps every channel it has acquired.  ``buffer_depth`` selects the
flavour: shallow buffers give wormhole-like behaviour (flits strung across
the path -- required to reproduce the paper's deadlock figures), while
``buffer_depth >= packet length`` gives virtual cut-through (a blocked
packet collapses into one buffer and releases its upstream channels as the
tail drains).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the cycle-driven flit-level simulator."""

    #: flit capacity of each (virtual) channel's input buffer
    buffer_depth: int = 2
    #: virtual channels per physical channel (MD crossbar needs 1; the
    #: torus baseline's dimension-order routing needs 2 for the dateline)
    num_vcs: int = 1
    #: declare deadlock after this many cycles without any flit movement
    #: while packets are in flight (the watchdog fires on exactly the
    #: ``stall_limit``-th stalled cycle)
    stall_limit: int = 1000
    #: hard stop for a run (safety net; experiments set their own horizon)
    max_cycles: int = 1_000_000
    #: flits per packet used by generators that do not specify a length
    default_packet_length: int = 4
    #: recover from detected deadlock online instead of halting: drain one
    #: victim packet of the cyclic wait back out of the fabric and
    #: re-inject it (a DBR-style rotate, delivery preserved), then resume
    recovery: bool = False
    #: which cycle member is rotated out: ``"youngest"`` (largest pid --
    #: the least sunk progress) or ``"oldest"`` (smallest pid)
    recovery_victim: str = "youngest"
    #: cycle driver: ``"active"`` (default, the PR 4 active-set fast
    #: path) or ``"soa"`` (the batched structure-of-arrays kernel in
    #: :mod:`repro.sim.soa` -- vectorized flit state and grant
    #: arbitration, built for full-machine shapes).  Both drivers
    #: produce byte-identical :meth:`SimResult.fingerprint` outputs, as
    #: does stepping every cycle (any ``cycle_start`` subscriber forces
    #: it); the SoA kernel falls back to the active driver whenever a
    #: subscribed hook or fabric feature needs the scalar path (see
    #: ``NetworkSimulator.engine_used``).
    engine: str = "active"
    #: recovery actions allowed per run before the watchdog escalates to
    #: the ordinary DeadlockReport halt (livelock bound)
    recovery_limit: int = 16

    def __post_init__(self) -> None:
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")
        if self.recovery_victim not in ("youngest", "oldest"):
            raise ValueError(
                "recovery_victim must be 'youngest' or 'oldest'"
            )
        if self.recovery_limit < 1:
            raise ValueError("recovery_limit must be >= 1")
        if self.engine not in ("active", "soa"):
            raise ValueError("engine must be 'active' or 'soa'")

    @staticmethod
    def wormhole(**kw) -> "SimConfig":
        """Shallow-buffer cut-through (the paper's deadlock-relevant mode)."""
        kw.setdefault("buffer_depth", 2)
        return SimConfig(**kw)

    @staticmethod
    def virtual_cut_through(packet_length: int = 4, **kw) -> "SimConfig":
        """Buffers deep enough to swallow a whole blocked packet."""
        kw.setdefault("buffer_depth", max(2, packet_length))
        kw.setdefault("default_packet_length", packet_length)
        return SimConfig(**kw)
