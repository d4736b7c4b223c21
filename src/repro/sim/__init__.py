"""Cycle-driven flit-level simulator for cut-through routed networks."""

from .adaptive import ADAPTIVE_VC, ESCAPE_VC, AdaptiveMDAdapter
from .adapter import MDCrossbarAdapter, RoutingAdapter, SimDecision
from .config import SimConfig
from .engine import (
    BLOCK_KINDS,
    PHASES,
    BlockEvent,
    CycleEngine,
    HookBus,
    RecoveryEvent,
    find_pid_cycle,
)
from .fabric import Connection, InFlightPacket, PendingRequest, SimFlit, VCState
from .monitor import Sample, SimMonitor, TextTrace, channel_load_heatmap
from .network import (
    DeadlockError,
    DeadlockReport,
    NetworkSimulator,
    ReconfigReport,
    SimResult,
)

__all__ = [
    "BLOCK_KINDS",
    "BlockEvent",
    "CycleEngine",
    "HookBus",
    "PHASES",
    "find_pid_cycle",
    "ADAPTIVE_VC",
    "AdaptiveMDAdapter",
    "ESCAPE_VC",
    "Connection",
    "DeadlockError",
    "DeadlockReport",
    "InFlightPacket",
    "MDCrossbarAdapter",
    "NetworkSimulator",
    "PendingRequest",
    "ReconfigReport",
    "RecoveryEvent",
    "RoutingAdapter",
    "Sample",
    "SimMonitor",
    "TextTrace",
    "channel_load_heatmap",
    "SimConfig",
    "SimDecision",
    "SimFlit",
    "SimResult",
    "VCState",
]
