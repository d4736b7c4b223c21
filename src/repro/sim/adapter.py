"""Routing adapters: how the simulator asks a network for next hops.

The simulator is topology-agnostic; it needs, for each switch element, a
next-hop decision given the input channel and the header.  Adapters provide
that:

* :class:`MDCrossbarAdapter` wraps the paper's distributed
  :class:`~repro.core.switch_logic.SwitchLogic` (single virtual channel);
* the baselines package provides adapters for mesh / torus / hypercube
  dimension-order routing (the torus one uses the dateline virtual-channel
  split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol, Tuple

from ..core.decision_table import DecisionTable
from ..core.packet import RC, Header
from ..core.switch_logic import SwitchLogic
from ..topology.base import ElementId, Topology


@dataclass(frozen=True)
class SimDecision:
    """A grant request: output (element, virtual channel) pairs.

    ``policy`` selects the grant semantics:

    * ``"all"`` (default) -- the packet needs *every* listed output
      (unicast with one entry, multicast with several; ports are acquired
      progressively and held);
    * ``"any"`` -- the packet takes the *first free* output in list order
      (adaptive routing: earlier entries are the preferred adaptive
      choices, the last entry is the escape channel).

    ``serialize`` requests the atomic FIFO one-at-a-time grant used by the
    S-XB; ``drop`` discards the packet (destination dead).  ``rc`` is the
    RC bit the forwarded copies carry.
    """

    outputs: Tuple[Tuple[ElementId, int], ...]
    rc: RC
    serialize: bool = False
    drop: bool = False
    policy: str = "all"


class RoutingAdapter(Protocol):
    """What the simulator needs from a routed network."""

    topo: Topology

    def decide(
        self, element: ElementId, in_from: ElementId, in_vc: int, header: Header
    ) -> SimDecision:
        """Next-hop decision at ``element`` for a header that arrived from
        ``in_from`` on virtual channel ``in_vc``."""
        ...


class MDCrossbarAdapter:
    """The SR2201 network: defer to the distributed switch logic, VC 0.

    Decisions are memoized on :meth:`SwitchLogic.decision_key` -- what
    the switch rule reads (never the source), so the memo is bounded by
    the rule structure and never evicts (about 14 k keys on 16x16x8).  A
    query whose key is ``None`` is answered by the logic and not stored.
    Hit/miss counters and the size are exposed through :meth:`cache_info`
    (the ``RouteCacheStats`` collector exports them into the metrics
    digest).  Swapping :attr:`logic` (an online facility reconfiguration)
    clears the memo but keeps the cumulative counters.  :meth:`table` is
    the SoA kernel's array form of the memo; it is dropped with it.  A
    filled table entry counts as the memo hit it stands for
    (:meth:`count_hits`), and a kernel batch that bails is undone
    (:meth:`rewind`).
    """

    def __init__(self, logic: SwitchLogic, scheme: str = "dxb") -> None:
        self._logic = logic
        self.topo = logic.topo
        #: routing-scheme identity (one adapter holds one logic)
        self.scheme = scheme
        self._decisions: Dict[tuple, SimDecision] = {}
        self._table = None
        self._hits = 0
        self._misses = 0

    @property
    def logic(self) -> SwitchLogic:
        return self._logic

    @logic.setter
    def logic(self, new_logic: SwitchLogic) -> None:
        self._logic = new_logic
        self._decisions.clear()
        self._table = None

    def reset_cache(self) -> None:
        """Clear the memo *and* zero its counters, as a freshly built
        adapter's would be.  The warm-worker runtime calls this before
        reusing a network for a metrics-bearing sweep point, so the
        ``cache_info`` counters -- exported into the metrics digest by
        ``RouteCacheStats`` -- match a cold build's byte-for-byte."""
        self._decisions.clear()
        self._table = None
        self._hits = 0
        self._misses = 0

    def table(self) -> DecisionTable:
        """The kernel's decision table over the current logic, built on first use."""
        if self._table is None:
            self._table = DecisionTable(self.topo, self._logic)
        return self._table

    def count_hits(self, n: int) -> Tuple[int, int, int]:
        """Count ``n`` filled table entries as the memo hits they stand
        for; returns the state :meth:`rewind` goes back to."""
        self._hits += n
        return self._hits - n, self._misses, len(self._decisions)

    def rewind(self, mark: Tuple[int, int, int], filled) -> None:
        """Undo a kernel batch: its counts, memo keys and the table entries
        it ``filled``."""
        self._hits, self._misses, n = mark
        for key in list(self._decisions)[n:]:
            del self._decisions[key]
        self._table.entry[filled] = DecisionTable.UNFILLED

    def cache_info(self) -> Dict[str, int]:
        """Memo statistics: cumulative hits / misses and the current size."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._decisions),
        }

    def decide(
        self, element: ElementId, in_from: ElementId, in_vc: int, header: Header
    ) -> SimDecision:
        key = self._logic.decision_key(element, in_from, header)
        hit = self._decisions.get(key)  # a None key is never stored
        if hit is not None:
            self._hits += 1
            return hit
        return self._miss(key, element, in_from, header)

    def _miss(
        self, key, element: ElementId, in_from: ElementId, header: Header
    ) -> SimDecision:
        self._misses += 1
        d = self._logic.decide(element, in_from, header)
        decision = SimDecision(
            outputs=tuple((el, 0) for el in d.outputs),
            rc=d.rc,
            serialize=d.serialize,
            drop=d.drop,
        )
        if key is not None:
            self._decisions[key] = decision
        return decision
