"""Abstract element/channel graph shared by all network topologies.

A network is a directed multigraph of *elements* connected by unidirectional
*channels*:

* ``PE`` -- a processing element (its network interface adapter, NIA);
* ``RTR`` -- a relay switch (router) next to each PE;
* ``XB`` -- a crossbar switch serving one lattice line (MD crossbar only;
  mesh/torus/hypercube baselines wire routers to each other directly).

Channels are the deadlock-relevant resources: under cut-through switching a
blocked packet keeps every channel it has acquired, so deadlock analysis and
the simulator both operate on this graph.  Between any ordered pair of
elements there is at most one channel, so a channel is fully identified by
its endpoint pair; an integer ``cid`` provides a dense index for array-based
bookkeeping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.coords import Coord, validate_shape


class ElementKind(str, enum.Enum):
    PE = "PE"
    RTR = "RTR"
    XB = "XB"


#: ``('PE', coord)`` / ``('RTR', coord)`` / ``('XB', dim, line_key)``
ElementId = Tuple


_KIND_OF = {kind.value: kind for kind in ElementKind}


def element_kind(el: ElementId) -> ElementKind:
    return _KIND_OF[el[0]]


def pe(coord: Coord) -> ElementId:
    return ("PE", tuple(coord))


def rtr(coord: Coord) -> ElementId:
    return ("RTR", tuple(coord))


def xb(dim: int, line: Tuple[int, ...]) -> ElementId:
    return ("XB", dim, tuple(line))


@dataclass(frozen=True)
class Channel:
    """A unidirectional link (and the output port driving it)."""

    src: ElementId
    dst: ElementId
    cid: int

    def __hash__(self) -> int:
        # equal channels share their cid; hashing the nested endpoint
        # tuples on every dict/set touch dominated the static analyses
        return self.cid

    def __repr__(self) -> str:
        return f"Ch#{self.cid}({_fmt(self.src)}->{_fmt(self.dst)})"


def element_label(el: ElementId) -> str:
    """Stable short label for an element: ``XB0(1,)``, ``RTR(2, 0)``.

    Used wherever elements key human-readable series (channel-utilization
    metrics, trace records, channel ``repr``)."""
    if el[0] == "XB":
        return f"XB{el[1]}{el[2]}"
    return f"{el[0]}{el[1]}"


#: backwards-compatible private alias (prefer :func:`element_label`)
_fmt = element_label


def output_port_map(topo: "Topology") -> Dict[int, Tuple["Channel", str, int]]:
    """Map every channel cid to ``(channel, owning element label, output
    port index)`` -- the (crossbar, port) pair whose grant the channel
    represents.  One vocabulary shared by the channel-utilization
    collector, the span collector and the trace recorder, so
    blocked-cycle attribution and utilization heatmaps key their series
    identically."""
    ports: Dict[int, Tuple[Channel, str, int]] = {}
    for el in topo.elements():
        label = element_label(el)
        for port, ch in enumerate(topo.channels_from(el)):
            ports[ch.cid] = (ch, label, port)
    return ports


def port_label(
    ports: Dict[int, Tuple["Channel", str, int]],
    cid: int,
    vc: Optional[int] = None,
) -> str:
    """Render ``"XB0(1,):p3"`` (or ``"...:p3:vc0"``) for a channel cid."""
    _, el, port = ports[cid]
    base = f"{el}:p{port}"
    return base if vc is None else f"{base}:vc{vc}"


class Topology:
    """Base class: a set of elements plus directed channels between them.

    Subclasses populate the graph by calling :meth:`_add_element` and
    :meth:`_add_channel` in their constructor.  All query methods are
    concrete here.
    """

    def __init__(self, shape: Sequence[int]) -> None:
        self.shape: Tuple[int, ...] = validate_shape(shape)
        self._elements: List[ElementId] = []
        self._element_set: set = set()
        self._channels: List[Channel] = []
        self._by_pair: Dict[Tuple[ElementId, ElementId], Channel] = {}
        self._out: Dict[ElementId, List[Channel]] = {}
        self._in: Dict[ElementId, List[Channel]] = {}

    # -- construction -----------------------------------------------------
    def _add_element(self, el: ElementId) -> None:
        if el in self._element_set:
            raise ValueError(f"duplicate element {el}")
        self._element_set.add(el)
        self._elements.append(el)
        self._out[el] = []
        self._in[el] = []

    def _add_channel(self, src: ElementId, dst: ElementId) -> Channel:
        if src not in self._element_set or dst not in self._element_set:
            raise ValueError(f"channel endpoints must exist: {src} -> {dst}")
        if (src, dst) in self._by_pair:
            raise ValueError(f"duplicate channel {src} -> {dst}")
        ch = Channel(src=src, dst=dst, cid=len(self._channels))
        self._channels.append(ch)
        self._by_pair[(src, dst)] = ch
        self._out[src].append(ch)
        self._in[dst].append(ch)
        return ch

    def _add_duplex(self, a: ElementId, b: ElementId) -> None:
        self._add_channel(a, b)
        self._add_channel(b, a)

    # -- queries ----------------------------------------------------------
    @property
    def num_dims(self) -> int:
        return len(self.shape)

    def elements(self) -> Sequence[ElementId]:
        return tuple(self._elements)

    def has_element(self, el: ElementId) -> bool:
        return el in self._element_set

    def channels(self) -> Sequence[Channel]:
        return tuple(self._channels)

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def channel(self, src: ElementId, dst: ElementId) -> Channel:
        try:
            return self._by_pair[(src, dst)]
        except KeyError:
            raise KeyError(f"no channel {src} -> {dst}") from None

    def has_channel(self, src: ElementId, dst: ElementId) -> bool:
        return (src, dst) in self._by_pair

    def channels_from(self, el: ElementId) -> Sequence[Channel]:
        return tuple(self._out[el])

    def channels_to(self, el: ElementId) -> Sequence[Channel]:
        return tuple(self._in[el])

    def node_coords(self) -> Sequence[Coord]:
        """Coordinates of every PE."""
        return tuple(el[1] for el in self._elements if el[0] == "PE")

    @property
    def num_nodes(self) -> int:
        return len(self.node_coords())

    def injection_channel(self, coord: Coord) -> Channel:
        """The PE -> router channel used to inject packets at ``coord``."""
        return self.channel(pe(coord), rtr(coord))

    def ejection_channel(self, coord: Coord) -> Channel:
        """The router -> PE channel used to deliver packets at ``coord``."""
        return self.channel(rtr(coord), pe(coord))

    # -- structural summaries ---------------------------------------------
    def switch_elements(self) -> Sequence[ElementId]:
        return tuple(el for el in self._elements if el[0] != "PE")

    def element_degree(self, el: ElementId) -> Tuple[int, int]:
        """(fan-in, fan-out) of an element."""
        return (len(self._in[el]), len(self._out[el]))

    def describe(self) -> str:
        kinds: Dict[str, int] = {}
        for el in self._elements:
            kinds[el[0]] = kinds.get(el[0], 0) + 1
        parts = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return (
            f"{type(self).__name__}(shape={self.shape}: "
            f"{parts}, {self.num_channels} channels)"
        )


def channels_between(
    topo: Topology, elements: Iterable[ElementId]
) -> List[Channel]:
    """All channels whose both endpoints lie in ``elements`` (helper for
    bisection / partition analyses)."""
    els = set(elements)
    return [c for c in topo.channels() if c.src in els and c.dst in els]
