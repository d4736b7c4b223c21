"""Distributed per-switch routing decisions (paper Sections 3.2, 4 and 5).

Every switch of the SR2201 network decides the next hop of a packet from
three inputs only -- the packet header (destination address + RC bit), the
input port the header arrived on, and the switch's own local fault bits --
plus the facility constants configured in advance (routing order, S-XB and
D-XB identity).  :class:`SwitchLogic` reproduces those decision rules as pure
functions; both the cycle-level simulator and the static route/deadlock
analyses call them, so there is a single source of truth for the routing
relation.

Decision rules implemented (full derivation in DESIGN.md):

Router (RTR at coordinate ``c``), by RC bit:

* ``NORMAL`` -- deliver to the PE if ``c == dest``; otherwise forward into
  the crossbar of the first routing-order dimension where ``c`` differs from
  ``dest``.  If that crossbar is locally known to be faulty, set RC=DETOUR
  and start the detour leg instead.
* ``BROADCAST_REQUEST`` -- walk the non-first dimensions in *reverse* routing
  order toward the S-XB's line; once aligned, enter the S-XB.  (This is the
  "Y" prefix of the paper's Y-X-Y broadcast routing.)
* ``BROADCAST`` -- deliver to the PE and forward to the crossbar of every
  dimension *later in the order* than the one the copy arrived from (the
  dimension-order multicast tree).  In naive mode a copy arriving from the
  local PE is simply forwarded into the first-dimension crossbar.
* ``DETOUR`` -- walk the non-first dimensions in reverse order toward the
  D-XB's line; once aligned, enter the D-XB.

Crossbar (XB of dimension ``k``), by RC bit:

* ``NORMAL`` -- forward to the router at the destination's dimension-``k``
  coordinate.  If that router is locally known to be faulty: drop if it is
  the destination router (the paper "stops transmission of packets to the
  faulty RTR"), otherwise set RC=DETOUR and deflect to the detour router on
  this same crossbar.
* ``BROADCAST_REQUEST`` -- at the S-XB: rewrite RC to BROADCAST and multicast
  to *all* ports, serialized one packet at a time (``Decision.serialize``).
  At a non-first-dimension XB: forward toward the S-XB line's coordinate.
* ``BROADCAST`` -- spread: multicast to every port except the input port
  (skipping faulty routers).  In naive mode a first-dimension XB multicasts
  to all ports including the input's.
* ``DETOUR`` -- at the D-XB: rewrite RC to NORMAL and route by the receiving
  address again.  At a non-first-dimension XB: forward toward the D-XB line.

Each rule reads only part of its inputs, so :meth:`SwitchLogic.decide`
caches every decision on exactly that part (the key table is in
:meth:`SwitchLogic.decision_key` and DESIGN.md 5l) and runs a rule once per
distinct key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..topology.base import ElementId, element_kind, ElementKind, pe, rtr
from ..topology.mdcrossbar import MDCrossbar
from .config import BroadcastMode, RoutingConfig
from .coords import Coord, point_on_line
from .fault import FaultRegistry
from .packet import RC, Header


class RoutingError(RuntimeError):
    """A packet reached a switch in a state the facility does not produce.

    Raised instead of silently misrouting: every legal configuration keeps
    packets inside the decision rules above, so hitting this indicates a
    corrupted header or an invalid hand-built configuration.
    """


class UnreachableDestinationError(RoutingError):
    """The destination PE is disconnected (its own router is faulty)."""


@dataclass(frozen=True)
class Decision:
    """Outcome of one switch decision.

    ``outputs`` lists the downstream elements to forward to (more than one
    for a multicast); ``rc`` is the RC bit carried by the forwarded copies.
    ``serialize`` marks the S-XB's atomic one-at-a-time multicast;
    ``drop`` marks packets addressed to a dead PE.
    """

    outputs: Tuple[ElementId, ...]
    rc: RC
    serialize: bool = False
    drop: bool = False
    reason: str = ""


DROP = object()  # sentinel used internally


class SwitchLogic:
    """The network's distributed routing brain for one configuration."""

    def __init__(
        self,
        topo: MDCrossbar,
        config: RoutingConfig,
        registry: Optional[FaultRegistry] = None,
    ) -> None:
        if topo.shape != config.shape:
            raise ValueError(
                f"topology shape {topo.shape} != config shape {config.shape}"
            )
        self.topo = topo
        self.config = config
        self.registry = registry or FaultRegistry(topo, faults=config.all_faults())
        if tuple(self.registry.faults) != tuple(config.all_faults()):
            raise ValueError("fault registry does not match the configuration")
        self._dxb = config.dxb_element
        #: every decision made so far, on :meth:`decision_key`.
        #: No eviction: at most 2d + 4 keys per router and 2 x extent + 2
        #: per crossbar, plus extent at the D-XB (~34 k on 16x16x8)
        self._decisions: Dict[tuple, Decision] = {}

    # ------------------------------------------------------------------ API
    def decide(self, el: ElementId, in_from: ElementId, header: Header) -> Decision:
        """Next-hop decision of switch ``el`` for a header from ``in_from``,
        cached on :meth:`decision_key`.

        A :class:`RoutingError` propagates before anything is stored, so
        it is raised on every call.  :class:`Decision` is frozen: callers
        share the cached object.
        """
        key = self.decision_key(el, in_from, header)
        if key is None:
            return self._rule(el, in_from, header)
        decision = self._decisions.get(key)
        if decision is None:
            decision = self._decisions[key] = self._rule(el, in_from, header)
        return decision

    def decision_key(
        self, el: ElementId, in_from: ElementId, header: Header
    ) -> Optional[tuple]:
        """What the rule for ``(switch kind, rc)`` reads, as a cache key:

        ==========================================  ========================
        router, NORMAL                              ``(el, rc, k)``, ``k`` the
                                                    first differing dimension
                                                    in routing order (``None``:
                                                    deliver)
        router, BROADCAST                           ``(el, rc, in_from)``
        router, BROADCAST_REQUEST / DETOUR          ``(el, rc)``
        crossbar, NORMAL (and DETOUR at the D-XB)   ``(el, rc, dest[dim])``
        crossbar, BROADCAST                         ``(el, rc, in_from)``
        other crossbar legs                         ``(el, rc)``
        ==========================================  ========================

        ``None`` when the decision must not be cached: at a crossbar whose
        target port is locally faulty (the rule then also reads whether
        the destination is on this line, and the input port), at a
        crossbar entered from a non-router (the rule raises), and at an
        element that is not a switch.
        """
        rc = header.rc
        kind = el[0]
        if kind == "RTR":
            if rc is RC.NORMAL:
                c, dest = el[1], header.dest
                for k in self.config.order:
                    if c[k] != dest[k]:
                        return (el, rc, k)
                return (el, rc, None)
            if rc is RC.BROADCAST:
                return (el, rc, in_from)
            return (el, rc)
        if kind == "XB" and in_from[0] == "RTR":
            if rc is RC.NORMAL or (rc is RC.DETOUR and el == self._dxb):
                t = header.dest[el[1]]
                if t in self.registry.info(el).faulty_ports:
                    return None
                return (el, rc, t)
            if rc is RC.BROADCAST:
                return (el, rc, in_from)
            return (el, rc)
        return None

    def _rule(self, el: ElementId, in_from: ElementId, header: Header) -> Decision:
        """The decision rules themselves, uncached."""
        kind = element_kind(el)
        if kind is ElementKind.RTR:
            return self._route_router(el[1], in_from, header)
        if kind is ElementKind.XB:
            return self._route_xb(el, in_from, header)
        raise RoutingError(f"element {el} does not route packets")

    # --------------------------------------------------------------- router
    def _route_router(self, c: Coord, in_from: ElementId, h: Header) -> Decision:
        cfg = self.config
        if h.rc is RC.NORMAL:
            if c == h.dest:
                return Decision(outputs=(pe(c),), rc=RC.NORMAL, reason="deliver")
            k = self._first_differing_dim(c, h.dest)
            if k in self.registry.info(rtr(c)).faulty_xb_dims:
                if k != cfg.first_dim:
                    raise RoutingError(
                        f"faulty dim-{k} crossbar but routing order {cfg.order} "
                        f"does not place dimension {k} first (rule R1)"
                    )
                return self._detour_leg(c, reason="own first-dim XB faulty")
            return Decision(
                outputs=(self.topo.crossbar_of(c, k),),
                rc=RC.NORMAL,
                reason=f"dim-{k} hop",
            )

        if h.rc is RC.BROADCAST_REQUEST:
            nxt = self._leg_step(c, cfg.sxb_line)
            if nxt is None:
                return Decision(
                    outputs=(cfg.sxb_element,),
                    rc=RC.BROADCAST_REQUEST,
                    reason="enter S-XB",
                )
            return Decision(
                outputs=(nxt,), rc=RC.BROADCAST_REQUEST, reason="toward S-XB"
            )

        if h.rc is RC.BROADCAST:
            return self._router_broadcast(c, in_from)

        if h.rc is RC.DETOUR:
            return self._detour_leg(c, reason="detour leg")

        raise RoutingError(f"unknown RC value {h.rc!r}")  # pragma: no cover

    def _router_broadcast(self, c: Coord, in_from: ElementId) -> Decision:
        cfg = self.config
        if element_kind(in_from) is ElementKind.PE:
            if cfg.broadcast_mode is not BroadcastMode.NAIVE:
                raise RoutingError(
                    "a PE injected RC=BROADCAST but the facility is in "
                    "serialized mode; inject BROADCAST_REQUEST instead"
                )
            first = cfg.first_dim
            if self.topo.shape[first] > 1:
                return Decision(
                    outputs=(self.topo.crossbar_of(c, first),),
                    rc=RC.BROADCAST,
                    reason="naive broadcast start",
                )
            # degenerate first dimension: fall through as if the copy had
            # already spread over it
            in_pos = 0
        else:
            if element_kind(in_from) is not ElementKind.XB:
                raise RoutingError(f"broadcast copy from unexpected {in_from}")
            in_pos = cfg.position(in_from[1])
        outs = [pe(c)]
        for q in range(in_pos + 1, cfg.num_dims):
            dim = cfg.order[q]
            if self.topo.shape[dim] > 1:
                outs.append(self.topo.crossbar_of(c, dim))
        return Decision(outputs=tuple(outs), rc=RC.BROADCAST, reason="spread")

    def _detour_leg(self, c: Coord, reason: str) -> Decision:
        cfg = self.config
        nxt = self._leg_step(c, cfg.dxb_line)
        if nxt is None:
            return Decision(
                outputs=(cfg.dxb_element,), rc=RC.DETOUR, reason="enter D-XB"
            )
        return Decision(outputs=(nxt,), rc=RC.DETOUR, reason=reason)

    def _leg_step(self, c: Coord, line) -> Optional[ElementId]:
        """Next crossbar on the reverse-order walk toward a first-dimension
        line, or ``None`` when ``c`` is already on the line."""
        cfg = self.config
        for k in reversed(cfg.order[1:]):
            if c[k] != cfg.line_coord(line, k):
                return self.topo.crossbar_of(c, k)
        return None

    def _first_differing_dim(self, c: Coord, dest: Coord) -> int:
        for k in self.config.order:
            if c[k] != dest[k]:
                return k
        raise RoutingError(f"no differing dimension between {c} and {dest}")

    # -------------------------------------------------------------- crossbar
    def _route_xb(self, el: ElementId, in_from: ElementId, h: Header) -> Decision:
        _, k, line = el
        cfg = self.config
        info = self.registry.info(el)
        if element_kind(in_from) is not ElementKind.RTR:
            raise RoutingError(f"crossbar {el} received a packet from {in_from}")

        if h.rc is RC.NORMAL:
            return self._xb_normal(el, h, rc_out=RC.NORMAL, in_from=in_from)

        if h.rc is RC.BROADCAST_REQUEST:
            if el == cfg.sxb_element:
                outs = tuple(
                    rtr(point_on_line(k, line, v))
                    for v in range(self.topo.shape[k])
                    if v not in info.faulty_ports
                )
                return Decision(
                    outputs=outs,
                    rc=RC.BROADCAST,
                    serialize=True,
                    reason="S-XB serialize+spread",
                )
            if k == cfg.first_dim:
                raise RoutingError(
                    f"broadcast request entered non-S first-dimension XB {el}"
                )
            tv = cfg.line_coord(cfg.sxb_line, k)
            return Decision(
                outputs=(rtr(point_on_line(k, line, tv)),),
                rc=RC.BROADCAST_REQUEST,
                reason="toward S-XB line",
            )

        if h.rc is RC.BROADCAST:
            v_in = self._input_port_value(el, in_from)
            if cfg.broadcast_mode is BroadcastMode.NAIVE and k == cfg.first_dim:
                values = range(self.topo.shape[k])  # includes the input port
            else:
                values = (v for v in range(self.topo.shape[k]) if v != v_in)
            outs = tuple(
                rtr(point_on_line(k, line, v))
                for v in values
                if v not in info.faulty_ports
            )
            return Decision(outputs=outs, rc=RC.BROADCAST, reason="spread")

        if h.rc is RC.DETOUR:
            if el == cfg.dxb_element:
                # paper Section 4: the D-XB resets RC to 'normal' and routes
                # by the receiving address again
                return self._xb_normal(el, h, rc_out=RC.NORMAL, in_from=in_from)
            if k == cfg.first_dim:
                raise RoutingError(
                    f"detour packet entered non-D first-dimension XB {el}"
                )
            tv = cfg.line_coord(cfg.dxb_line, k)
            return Decision(
                outputs=(rtr(point_on_line(k, line, tv)),),
                rc=RC.DETOUR,
                reason="toward D-XB line",
            )

        raise RoutingError(f"unknown RC value {h.rc!r}")  # pragma: no cover

    def _xb_normal(
        self, el: ElementId, h: Header, rc_out: RC, in_from: ElementId
    ) -> Decision:
        _, k, line = el
        info = self.registry.info(el)
        t = h.dest[k]
        target = point_on_line(k, line, t)
        if t in info.faulty_ports:
            if target == h.dest:
                return Decision(
                    outputs=(),
                    rc=rc_out,
                    drop=True,
                    reason="destination router faulty: transmission stopped",
                )
            dv = self._detour_port(el, faulty=t, came_from=in_from)
            return Decision(
                outputs=(rtr(point_on_line(k, line, dv)),),
                rc=RC.DETOUR,
                reason="deflect around faulty router",
            )
        return Decision(
            outputs=(rtr(target),),
            rc=rc_out,
            reason="exit D-XB" if rc_out is RC.NORMAL and h.rc is RC.DETOUR else "XB hop",
        )

    def _detour_port(self, el: ElementId, faulty: int, came_from: ElementId) -> int:
        """Port of the detour router on crossbar ``el``: the lowest healthy
        offset, preferring one other than the port the packet arrived on
        (set in advance by the facility; paper Fig. 8 uses a neighbour)."""
        _, k, line = el
        n = self.topo.shape[k]
        v_in = self._input_port_value(el, came_from)
        candidates = [v for v in range(n) if v != faulty and v != v_in]
        if not candidates:
            candidates = [v for v in range(n) if v != faulty]
        if not candidates:
            raise RoutingError(
                f"crossbar {el} has no healthy detour router (extent {n})"
            )
        return candidates[0]

    @staticmethod
    def _input_port_value(el: ElementId, in_from: ElementId) -> int:
        """Offset of the router ``in_from`` on crossbar ``el``'s line."""
        if element_kind(in_from) is not ElementKind.RTR:
            raise RoutingError(f"crossbar {el} received a packet from {in_from}")
        _, k, _ = el
        return in_from[1][k]

    # ----------------------------------------------------------- validation
    def check_deliverable(self, source: Coord, dest: Coord) -> None:
        """Raise if a point-to-point packet cannot be accepted for delivery
        (either endpoint's own router is faulty)."""
        if self.registry.router_is_faulty(source):
            raise UnreachableDestinationError(
                f"source PE{source} is disconnected (its router is faulty)"
            )
        if self.registry.router_is_faulty(dest):
            raise UnreachableDestinationError(
                f"destination PE{dest} is disconnected (its router is faulty)"
            )
