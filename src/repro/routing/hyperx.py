"""Fault-tolerant HyperX routing: ``hyperx_ft``.

The multi-dimensional crossbar *is* a HyperX: each dimension is an
all-to-all (the shared crossbar plays the role of HyperX's per-dimension
clique).  Following the high-performance fault-tolerant HyperX routing
recipe (arXiv 2404.04315), the scheme combines

* a **minimal adaptive lane** (VC 1): at every router a NORMAL packet may
  hop in *any* dimension where it still differs from the destination,
  provided that dimension's crossbar and the exit router are locally
  known healthy (the fault-aware candidate filter); and
* a **fault-tolerant escape lane** (VC 0): the paper's deterministic
  relation (:class:`~repro.core.switch_logic.SwitchLogic` -- dimension
  order plus the D-XB detour), which is itself proven deadlock-free and
  delivers under every single-fault placement.

Grant semantics are ``policy="any"`` with the escape branch last, so a
blocked packet always holds the escape option in its wait set: Duato's
condition with the *detour-capable* relation as the escape subnetwork.
Two invariants keep the escape argument intact:

* a packet whose RC leaves NORMAL (a detour leg) runs *entirely* on the
  escape lane -- the detour walk is deterministic state the adaptive lane
  must not fork; and
* when the escape decision itself rewrites RC (detour start at a router
  whose first-dimension crossbar is faulty), the decision is issued
  escape-only: a ``SimDecision`` carries one RC for all branches, so
  mixing a DETOUR escape with NORMAL adaptive candidates would corrupt
  whichever branch the grant picks.

Point-to-point traffic only, like the adaptive comparator.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.config import make_config
from ..core.coords import Coord, point_on_line
from ..core.packet import RC, Header
from ..core.switch_logic import SwitchLogic
from ..sim.adapter import SimDecision
from ..topology.base import ElementId, ElementKind, Topology, element_kind, pe, rtr
from ..topology.mdcrossbar import MDCrossbar
from .base import RoutingScheme
from .registry import register_scheme

#: virtual-channel roles (same convention as the adaptive comparator)
ESCAPE_VC = 0
ADAPTIVE_VC = 1


class HyperXFTAdapter:
    """Adaptive-with-escape fault-tolerant routing for the MD crossbar."""

    required_vcs = 2

    def __init__(self, logic: SwitchLogic) -> None:
        self.logic = logic
        self.topo: MDCrossbar = logic.topo

    def _escape(self, d) -> SimDecision:
        """A SwitchLogic decision mapped onto the escape lane."""
        return SimDecision(
            outputs=tuple((el, ESCAPE_VC) for el in d.outputs),
            rc=d.rc,
            serialize=d.serialize,
            drop=d.drop,
        )

    def decide(
        self, element: ElementId, in_from: ElementId, in_vc: int, header: Header
    ) -> SimDecision:
        kind = element_kind(element)
        if kind is ElementKind.RTR and header.rc is RC.NORMAL:
            return self._route_router(element, in_from, header)
        if kind is ElementKind.XB and header.rc is RC.NORMAL and in_vc == ADAPTIVE_VC:
            # adaptive lane through the crossbar: minimal exit; the router
            # admitted this dimension only with a healthy exit router
            _, k, line = element
            target = rtr(point_on_line(k, line, header.dest[k]))
            return SimDecision(outputs=((target, ADAPTIVE_VC),), rc=RC.NORMAL)
        # everything else -- detour legs, escape-lane crossbar transits --
        # is the deterministic facility's business
        return self._escape(self.logic.decide(element, in_from, header))

    def _route_router(
        self, element: ElementId, in_from: ElementId, h: Header
    ) -> SimDecision:
        c: Coord = element[1]
        if c == h.dest:
            return SimDecision(outputs=((pe(c), ESCAPE_VC),), rc=RC.NORMAL)
        esc = self.logic.decide(element, in_from, h)
        if esc.rc is not RC.NORMAL or esc.drop:
            # detour start: escape-only (one RC per decision, see module doc)
            return self._escape(esc)
        registry = self.logic.registry
        candidates: List[Tuple[ElementId, int]] = []
        for k in self.logic.config.order:
            if c[k] == h.dest[k]:
                continue
            xb_el = self.topo.crossbar_of(c, k)
            if registry.is_faulty(xb_el):
                continue
            exit_coord = c[:k] + (h.dest[k],) + c[k + 1:]
            if registry.router_is_faulty(exit_coord):
                continue
            candidates.append((xb_el, ADAPTIVE_VC))
        if not candidates:
            return self._escape(esc)
        candidates.extend((el, ESCAPE_VC) for el in esc.outputs)
        return SimDecision(outputs=tuple(candidates), rc=RC.NORMAL, policy="any")


class HyperXFTScheme(RoutingScheme):
    """Minimal-adaptive HyperX with the paper's relation as escape."""

    name = "hyperx_ft"
    kind = "md-crossbar"
    supports_faults = True
    doctor_shape = (3, 3)
    bench_shape = (4, 3)

    def build(self) -> Tuple[Topology, HyperXFTAdapter, int]:
        topo = MDCrossbar(self.shape)
        logic = SwitchLogic(topo, make_config(self.shape, faults=tuple(self.faults)))
        adapter = HyperXFTAdapter(logic)
        return topo, adapter, adapter.required_vcs

    def dependency_relation(self) -> SwitchLogic:
        # the escape lane: the deterministic fault-tolerant relation on
        # VC 0, whose acyclicity the tiered paper analysis establishes
        return self.adapter.logic


register_scheme(HyperXFTScheme)
