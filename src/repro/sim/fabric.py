"""Fabric state of the flit-level simulator: flits in flight, virtual
channels, switch connections and pending grant requests.

The resource model mirrors cut-through hardware (paper Section 3.2):

* every unidirectional channel has, per virtual channel, an input FIFO at
  its downstream element and an *owner* -- the packet currently granted the
  upstream output port.  The owner holds the port from header grant until
  its tail flit has been pushed into the FIFO;
* a switch forwards a packet through a :class:`Connection` from one input
  (channel, vc) to one or more outputs; multicast connections move a flit
  only when every branch has buffer space (the branches carry copies in
  lockstep, as a crossbar broadcast does);
* a header that cannot be granted yet is a :class:`PendingRequest`;
  non-serialized requests *reserve* output ports progressively as they free
  up and hold the reservations while waiting for the rest -- exactly the
  acquire-and-hold behaviour that deadlocks the naive broadcast of the
  paper's Fig. 5.  Serialized requests (the S-XB) are granted atomically in
  FIFO order instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Set, Tuple

from ..core.packet import FlitKind, Header, Packet
from ..topology.base import Channel, ElementId
from .adapter import SimDecision

#: (channel cid, virtual channel index)
VCKey = Tuple[int, int]


def flit_body_run(flits, pid: int, limit: int) -> int:
    """Length of the run of ``pid``'s body flits at the head of ``flits``
    (a buffer or an injection supply), capped at ``limit``.  A bulk
    flit-run transfer may move exactly this many flits without crossing an
    observable event: body flits carry no header, trigger no grant,
    release or delivery, and emit nothing on the hook bus."""
    run = 0
    for flit in flits:
        if flit.pid != pid or not flit.is_body:
            break
        run += 1
        if run >= limit:
            break
    return run


class SimFlit:
    """A flit in flight.  Only head flits carry a header (switches rewrite
    the RC bit on the header as the packet moves, so each multicast branch
    gets its own copy).

    A hand-rolled slots class rather than a dataclass: flits are the
    hottest objects in the simulator, and the transfer loop tests their
    kind several times per move, so ``is_head``/``is_tail``/``is_body``
    are precomputed plain attributes (``kind`` never changes after
    construction).  ``is_body`` means neither head nor tail: carries no
    header, triggers no grant, release or delivery event when it moves --
    the flits the engine's bulk-transfer window may move as a run.
    """

    __slots__ = ("pid", "kind", "seq", "header", "is_head", "is_tail", "is_body")

    def __init__(
        self,
        pid: int,
        kind: FlitKind,
        seq: int,
        header: Optional[Header] = None,
    ) -> None:
        self.pid = pid
        self.kind = kind
        self.seq = seq
        self.header = header
        self.is_head = kind is FlitKind.HEAD or kind is FlitKind.HEAD_TAIL
        self.is_tail = kind is FlitKind.TAIL or kind is FlitKind.HEAD_TAIL
        self.is_body = kind is FlitKind.BODY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimFlit(pid={self.pid}, kind={self.kind.name}, seq={self.seq})"


@dataclass(slots=True)
class VCState:
    """One virtual channel of one physical channel."""

    channel: Channel
    vc: int
    capacity: int
    buffer: Deque[SimFlit] = field(default_factory=deque)
    #: packet granted the upstream output port, None when free
    owner: Optional[int] = None

    @property
    def key(self) -> VCKey:
        return (self.channel.cid, self.vc)

    @property
    def free_space(self) -> int:
        return self.capacity - len(self.buffer)

    def head(self) -> Optional[SimFlit]:
        return self.buffer[0] if self.buffer else None

    def popleft_checked(self, pid: int) -> SimFlit:
        flit = self.buffer.popleft()
        if flit.pid != pid:  # pragma: no cover - guards an engine invariant
            raise AssertionError(
                f"flit of packet {flit.pid} at head of {self.channel} "
                f"while connection belongs to packet {pid}"
            )
        return flit


@dataclass(slots=True)
class Connection:
    """An established input->outputs circuit through a switch.

    ``cin`` is None for the injection pseudo-connection at a PE, whose flits
    come from ``supply`` instead of an input buffer.
    """

    pid: int
    element: ElementId
    cin: Optional[VCKey]
    couts: Tuple[VCKey, ...]
    #: flits not yet transmitted, for injection connections only
    supply: Optional[Deque[SimFlit]] = None
    started_at: int = 0

    @property
    def is_injection(self) -> bool:
        return self.cin is None


@dataclass(slots=True)
class PendingRequest:
    """A routed header waiting for its output grant at a switch."""

    pid: int
    element: ElementId
    cin: VCKey
    decision: SimDecision
    wanted: Tuple[VCKey, ...]
    reserved: Set[VCKey] = field(default_factory=set)
    arrived_at: int = 0

    @property
    def missing(self) -> Tuple[VCKey, ...]:
        return tuple(k for k in self.wanted if k not in self.reserved)

    @property
    def complete(self) -> bool:
        return not self.missing


@dataclass(slots=True)
class InFlightPacket:
    """Book-keeping for one injected packet."""

    packet: Packet
    expected_deliveries: int
    deliveries: int = 0
    dropped: bool = False
    #: PEs that have received this packet (used to rebase a broadcast's
    #: expectation when a PE dies mid-spread)
    served: set = field(default_factory=set)

    @property
    def done(self) -> bool:
        return self.dropped or self.deliveries >= self.expected_deliveries
