"""Dimension-order routing oracle (paper Section 3.2).

An *independent* statement of where a normal packet must go: the element
sequence of dimension-order routing written directly from the definition,
without going through the distributed switch logic.  The test suite compares
:func:`repro.core.routes.compute_route` against this oracle so that a bug in
the switch logic cannot hide behind itself.
"""

from __future__ import annotations

from typing import List, Tuple

from ..topology.base import ElementId, pe, rtr, xb
from .config import RoutingConfig
from .coords import Coord, line_of


def expected_xb_hops(source: Coord, dest: Coord) -> int:
    """Crossbar traversals of the fault-free route: one per differing dim."""
    return sum(1 for a, b in zip(source, dest) if a != b)


def expected_normal_elements(
    config: RoutingConfig, source: Coord, dest: Coord
) -> Tuple[ElementId, ...]:
    """Element sequence PE -> RTR -> (XB -> RTR)* -> PE of the fault-free
    dimension-order route from ``source`` to ``dest``."""
    seq: List[ElementId] = [pe(source), rtr(source)]
    cur = tuple(source)
    for k in config.order:
        if cur[k] != dest[k]:
            seq.append(xb(k, line_of(cur, k)))
            cur = cur[:k] + (dest[k],) + cur[k + 1 :]
            seq.append(rtr(cur))
    seq.append(pe(dest))
    return tuple(seq)


def expected_request_leg_elements(
    config: RoutingConfig, source: Coord
) -> Tuple[ElementId, ...]:
    """Element sequence of a broadcast request from ``source`` up to and
    including the S-XB: the reverse-order walk onto the S-XB's line (the
    "Y" prefix of the paper's Y-X-Y broadcast routing)."""
    seq: List[ElementId] = [pe(source), rtr(source)]
    cur = tuple(source)
    for k in reversed(config.order[1:]):
        tv = config.line_coord(config.sxb_line, k)
        if cur[k] != tv:
            seq.append(xb(k, line_of(cur, k)))
            cur = cur[:k] + (tv,) + cur[k + 1 :]
            seq.append(rtr(cur))
    seq.append(config.sxb_element)
    return tuple(seq)
