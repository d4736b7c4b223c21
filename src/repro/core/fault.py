"""Fault model and the hardware fault-information registry (paper Section 4).

The detour path selection facility of the SR2201 handles a *single* faulty
point in the network: either one router (RTR) or one crossbar switch (XB).
To keep the added hardware minimal, fault knowledge is strictly local
(paper): *"each switch has only the information of the switches that they
are physically connected to ... the RTRs set the information of the XBs that
they are connected to and the XBs set the information of the RTRs that they
are connected to."*

:class:`FaultRegistry` computes exactly that local view for a given fault and
topology; the switch logic consults only its own entry, never the global
fault object, mirroring the hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..core.coords import Coord, line_of
from ..topology.base import ElementId, rtr, xb
from ..topology.mdcrossbar import MDCrossbar


class FaultKind(enum.Enum):
    ROUTER = "router"
    XB = "xb"


@dataclass(frozen=True)
class Fault:
    """A single faulty switch: a router or a crossbar.

    Use the :meth:`router` / :meth:`crossbar` constructors.
    """

    kind: FaultKind
    #: faulty router coordinate (ROUTER faults)
    coord: Optional[Coord] = None
    #: faulty crossbar identity (XB faults)
    dim: Optional[int] = None
    line: Optional[Tuple[int, ...]] = None

    @staticmethod
    def router(coord: Coord) -> "Fault":
        return Fault(kind=FaultKind.ROUTER, coord=tuple(coord))

    @staticmethod
    def crossbar(dim: int, line: Tuple[int, ...]) -> "Fault":
        return Fault(kind=FaultKind.XB, dim=dim, line=tuple(line))

    @property
    def element(self) -> ElementId:
        if self.kind is FaultKind.ROUTER:
            assert self.coord is not None
            return rtr(self.coord)
        assert self.dim is not None and self.line is not None
        return xb(self.dim, self.line)

    def validate(self, topo: MDCrossbar) -> None:
        el = self.element
        if not topo.has_element(el):
            raise ValueError(f"fault names a non-existent element: {el}")

    def __str__(self) -> str:
        if self.kind is FaultKind.ROUTER:
            return f"faulty RTR{self.coord}"
        return f"faulty XB dim={self.dim} line={self.line}"


@dataclass(frozen=True)
class LocalFaultInfo:
    """The few bits of fault information held by one switch.

    For a router: the set of dimensions whose attached XB is faulty.
    For a crossbar: the set of port offsets whose attached router is faulty.
    """

    faulty_xb_dims: FrozenSet[int] = frozenset()
    faulty_ports: FrozenSet[int] = frozenset()

    @property
    def clear(self) -> bool:
        return not self.faulty_xb_dims and not self.faulty_ports


_NO_INFO = LocalFaultInfo()


@dataclass
class FaultRegistry:
    """Per-switch local fault information for one network + fault set.

    Built once when the faults are configured ("the information ... is set
    in advance"); read-only afterwards.  The paper's facility handles a
    single fault; multiple faults are the facility extension analysed in
    :mod:`repro.core.multifault` and use the same local-information model
    (each switch merely holds the union of its neighbours' fault bits).
    """

    topo: MDCrossbar
    fault: Optional[Fault] = None
    faults: Tuple[Fault, ...] = ()
    _info: Dict[ElementId, LocalFaultInfo] = field(default_factory=dict)
    #: the faulty elements, for O(1) membership
    _faulty: FrozenSet[ElementId] = field(default=frozenset(), init=False)

    def __post_init__(self) -> None:
        if self.fault is not None and self.faults:
            if self.fault not in self.faults:
                raise ValueError("pass either fault= or faults=, not both")
        elif self.fault is not None:
            self.faults = (self.fault,)
        elif len(self.faults) == 1:
            self.fault = self.faults[0]
        self.faults = tuple(self.faults)
        self._faulty = frozenset(f.element for f in self.faults)
        xb_ports: Dict[ElementId, set] = {}
        rtr_dims: Dict[ElementId, set] = {}
        for f in self.faults:
            f.validate(self.topo)
            if f.kind is FaultKind.ROUTER:
                # every XB serving the faulty router learns the faulty port
                assert f.coord is not None
                for k in range(self.topo.num_dims):
                    xb_el = self.topo.crossbar_of(f.coord, k)
                    xb_ports.setdefault(xb_el, set()).add(f.coord[k])
            else:
                # every router on the faulty XB's line learns the faulty dim
                assert f.dim is not None and f.line is not None
                xb_el = self.topo.crossbar(f.dim, f.line)
                for r in self.topo.routers_on(xb_el):
                    rtr_dims.setdefault(r, set()).add(f.dim)
        for el, ports in xb_ports.items():
            self._info[el] = LocalFaultInfo(faulty_ports=frozenset(ports))
        for el, dims in rtr_dims.items():
            self._info[el] = LocalFaultInfo(faulty_xb_dims=frozenset(dims))

    def info(self, el: ElementId) -> LocalFaultInfo:
        """The local fault view of switch ``el`` (empty if nothing nearby)."""
        return self._info.get(el, _NO_INFO)

    def dead_pes(self) -> Tuple[Coord, ...]:
        """PEs unreachable because their own router is faulty.

        The paper's facility "stops transmission of packets to the faulty
        RTR"; the attached PE drops out of the machine.
        """
        return tuple(
            f.coord
            for f in self.faults
            if f.kind is FaultKind.ROUTER and f.coord is not None
        )

    def is_faulty(self, el: ElementId) -> bool:
        return el in self._faulty

    def router_is_faulty(self, coord: Coord) -> bool:
        return self.is_faulty(rtr(coord))

    def xb_is_faulty(self, dim: int, line: Tuple[int, ...]) -> bool:
        return self.is_faulty(xb(dim, line))

    def fault_on_line(self, dim: int, line: Tuple[int, ...]) -> bool:
        """True if a faulty element touches the given crossbar line
        (used only by the *configuration* step that places the S-XB; the
        per-packet switch logic never calls this)."""
        for f in self.faults:
            if f.kind is FaultKind.XB:
                if f.dim == dim and f.line == line:
                    return True
            else:
                assert f.coord is not None
                if line_of(f.coord, dim) == line:
                    return True
        return False
