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
from typing import Dict, List, Protocol, Tuple

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


class DecisionTable:
    """The SoA kernel's decisions by index (:attr:`decs`, with each one's
    output channel in :attr:`out`, -1 unless it is one unserialized
    ``"all"`` output, and its RC bit in :attr:`rc`) and, over a logic with
    a ``decision_key``, the lazily filled ``(switch row, rc, sel)`` table
    of them (DESIGN.md 5j).  numpy is imported here, not at module level.
    """

    UNFILLED, HAND = -1, -2

    def __init__(self, topo: Topology, logic=None, adapter=None) -> None:
        import numpy as np

        self.np, self.adapter, self.entry = np, adapter, None
        self.decs: List[SimDecision] = []
        self._index: Dict[tuple, int] = {}
        self.out, self.rc = np.zeros(0, np.int32), np.zeros(0, np.int8)
        if logic is None:
            return
        cfg, n = logic.config, len(topo.shape)
        self.key_of, self.order = logic.decision_key, list(cfg.order)
        sw = [el for el in topo.elements() if el[0] in ("RTR", "XB")]
        row = {el: i for i, el in enumerate(sw)}
        self.row = np.array([row.get(c.dst, -1) for c in topo.channels()], np.int32)
        # coordinates in routing order; a crossbar's dimension as a position
        self.node = np.array(topo.node_coords(), np.int64)[:, self.order]
        rtr = [el[1] if el[0] == "RTR" else (0,) * n for el in sw]
        self.coord = np.array(rtr, np.int64).reshape(-1, n)[:, self.order]
        xb = [self.order.index(el[1]) if el[0] == "XB" else -1 for el in sw]
        self.dim, self.dxb = np.array(xb), row[cfg.dxb_element]
        self.S = max(n + 1, *topo.shape)
        self.entry = np.full(len(sw) * len(RC) * self.S, -1, np.int32)

    def lookup(self, cids, rc, slot):
        """Entry index and entry of headers for the PEs ``slot`` (of
        ``node_coords``) with RC bits ``rc`` on channels ``cids``: index
        ``(row * len(RC) + rc) * S + sel``, ``sel`` as DESIGN.md 5l's key
        table reads it.  Without a table every query goes by hand."""
        np = self.np
        if self.entry is None:
            hand = np.full(len(cids), self.HAND)
            return hand, hand
        rows, dest = self.row[cids], self.node[slot]
        diff = self.coord[rows] != dest  # a router: first differing dim
        sel = np.where(diff.any(1), diff.argmax(1), len(self.order))
        dim = self.dim[rows]
        xb = dim >= 0  # a crossbar: the destination in its dimension
        sel[xb] = dest[xb, dim[xb]]
        sel[(rc != RC.NORMAL) & ((rc != RC.DETOUR) | (rows != self.dxb))] = 0
        i = (rows * len(RC) + rc) * self.S + sel
        return i, self.entry[i]

    def intern(self, el, d: SimDecision, wanted, i=-1, in_from=None, header=None):
        """The index of decision ``d`` at ``el`` (output channels
        ``wanted``), stored once.  For the first query of entry ``i``
        (entered from ``in_from``, carrying ``header``), file ``d`` there
        when its key is not None, does not name the input port and ``d``
        is plain; else mark the entry by hand."""
        plain = d.policy == "all" and len(wanted) == 1 and not d.serialize
        if i >= 0:
            key = self.key_of(el, in_from, header)
            filed = plain and key is not None and in_from not in key
            self.entry[i] = len(self.decs) if filed else self.HAND
            if filed:
                return self._add(d, wanted[0][0])
        j = self._index.get((el, d))
        if j is None:
            j = self._index[(el, d)] = self._add(d, wanted[0][0] if plain else -1)
        return j

    def _add(self, d: SimDecision, out: int) -> int:
        np, j = self.np, len(self.decs)
        self.decs.append(d)
        if j == self.out.size:
            self.out = np.concatenate((self.out, np.zeros(j + 16, np.int32)))
            self.rc = np.concatenate((self.rc, np.zeros(j + 16, np.int8)))
        self.out[j], self.rc[j] = out, d.rc
        return j

    def count_hits(self, n: int):
        """Count ``n`` filled entries as the memo hits they stand for;
        returns the adapter state :meth:`rewind` goes back to."""
        a = self.adapter
        if a is not None:
            a._hits += n
            return a._hits - n, a._misses, len(a._decisions)

    def rewind(self, mark, filled) -> None:
        """Undo a batch: its counts, memo keys and ``filled`` entries."""
        if mark is not None:
            a = self.adapter
            a._hits, a._misses, n = mark
            for key in list(a._decisions)[n:]:
                del a._decisions[key]
            self.entry[filled] = self.UNFILLED


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
    the SoA kernel's array form of the memo; it is dropped with it.
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
            self._table = DecisionTable(self.topo, self._logic, self)
        return self._table

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
