"""The decision table: a switch's decisions as arrays over ``(switch row,
RC bit, what the rule reads of the destination)``.

An SR2201 switch picks its next hop from the header and its own fault
bits only, and :meth:`~repro.core.switch_logic.SwitchLogic.decision_key`
names what each rule reads (DESIGN.md 5l).  :class:`DecisionTable` is the
array form of that function, filled lazily from the rules.  The static
judge's walk (:func:`repro.core.routes.unicast_hops`) and the SoA
kernel's route phase (:mod:`repro.sim.soa`) both read it.
"""

from __future__ import annotations

from typing import Dict, List

from ..topology.base import Topology
from .packet import RC


class DecisionTable:
    """Decisions by index (:attr:`decs`, with each one's output channel in
    :attr:`out`, -1 unless it is one unserialized ``"all"`` output, and its
    RC bit in :attr:`rc`) and the lazily filled ``(switch row, rc, sel)``
    table of them, :attr:`entry`: an entry is :attr:`UNFILLED`,
    :attr:`HAND` (decided query by query) or a decision index.  Over a
    logic without ``decision_key`` every ``sel`` is 0 and every entry is
    by hand.  numpy is imported here, not at module level.
    """

    UNFILLED, HAND = -1, -2

    def __init__(self, topo: Topology, logic=None) -> None:
        import numpy as np

        self.np = np
        self.decs: List = []
        self._index: Dict[tuple, int] = {}
        self.out, self.rc = np.zeros(0, np.int64), np.zeros(0, np.int8)
        #: the switch element of each row
        self.switches = sw = topo.switch_elements()
        row = {el: i for i, el in enumerate(sw)}
        #: the switch row each channel enters, -1 for a PE
        self.row = np.array([row.get(c.dst, -1) for c in topo.channels()], np.int64)
        self.key_of = getattr(logic, "decision_key", None)
        self.S, self.dxb, empty = 1, -1, self.HAND
        if self.key_of is not None:
            cfg, n = logic.config, len(topo.shape)
            order = list(cfg.order)
            # one row per dimension in routing order: the coordinates of the
            # nodes and of the routers (0 at a crossbar)
            self.node = np.array(topo.node_coords(), np.int64)[:, order].T.copy()
            rtr = [el[1] if el[0] == "RTR" else (0,) * n for el in sw]
            self.coord = np.array(rtr, np.int64).reshape(-1, n)[:, order].T.copy()
            #: a crossbar's dimension as a position in routing order, -1 at a router
            xb = [order.index(el[1]) if el[0] == "XB" else -1 for el in sw]
            self.dim, self.dxb = np.array(xb), row[cfg.dxb_element]
            self.S, empty = max(n + 1, *topo.shape), self.UNFILLED
        self.entry = np.full(len(sw) * len(RC) * self.S, empty, np.int32)

    def selector(self, rows, slots):
        """``sel`` of headers for the PEs ``slots`` (of ``node_coords``)
        entering switch ``rows``, the two broadcast against each other: a
        router reads the position of the first dimension, in routing
        order, where it differs from the destination (d: deliver); a
        crossbar reads the destination's coordinate in its dimension."""
        np = self.np
        shape = np.broadcast(rows, slots).shape
        if self.key_of is None:
            return np.zeros(shape, np.int64)
        dest, coord, dim = self.node[:, slots], self.coord[:, rows], self.dim[rows]
        n = len(self.node)
        sel = np.full(shape, n)
        for k in reversed(range(n)):  # so the first differing one is written last
            sel[coord[k] != dest[k]] = k
        for k in range(n):
            sel = np.where(dim == k, dest[k], sel)
        return sel

    def lookup(self, rows, rc, sel):
        """Entry index ``(row * len(RC) + rc) * S + sel`` and entry of
        headers with RC bits ``rc`` and :meth:`selector` ``sel`` entering
        switch ``rows``.  Only routers and crossbars in NORMAL, and the D-XB
        in DETOUR, read their ``sel``; every other rule reads 0."""
        reads = (rc == RC.NORMAL) | ((rc == RC.DETOUR) & (rows == self.dxb))
        i = (rows * len(RC) + rc) * self.S + self.np.where(reads, sel, 0)
        return i, self.entry[i]

    def file(self, i, el, in_from, header, d, wanted) -> None:
        """Fill entry ``i`` from its first query: decision ``d`` at ``el``
        (output ``wanted``, as ``(channel, VC)`` pairs), entered from
        ``in_from`` and carrying ``header``.  ``d`` is filed when its key is
        not None, does not name the input port and ``d`` is one
        unserialized ``"all"`` output; else the entry goes by hand."""
        key = self.key_of(el, in_from, header)
        filed = key is not None and in_from not in key and _plain(d, wanted)
        self.entry[i] = self._add(d, wanted[0][0]) if filed else self.HAND

    def intern(self, el, d, wanted) -> int:
        """The index of decision ``d`` at ``el`` (output ``wanted``),
        stored once: a decision made by hand or pending across a rebuild."""
        j = self._index.get((el, d))
        if j is None:
            out = wanted[0][0] if _plain(d, wanted) else -1
            j = self._index[(el, d)] = self._add(d, out)
        return j

    def _add(self, d, out: int) -> int:
        np, j = self.np, len(self.decs)
        self.decs.append(d)
        if j == self.out.size:
            self.out = np.concatenate((self.out, np.zeros(j + 16, np.int64)))
            self.rc = np.concatenate((self.rc, np.zeros(j + 16, np.int8)))
        self.out[j], self.rc[j] = out, d.rc
        return j


def _plain(d, wanted) -> bool:
    """One unserialized ``"all"`` output (a static relation's decisions
    have no policy: they are all ``"all"``)."""
    return len(wanted) == 1 and not d.serialize and getattr(d, "policy", "all") == "all"
