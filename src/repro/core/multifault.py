"""Multi-fault tolerance analysis: the paper's future work, quantified.

The paper closes with *"In our future research, we intend to improve this
facility to further increase the system reliability"* -- the shipped
facility handles one faulty switch.  This module asks how far the *same*
mechanisms (local fault bits, RC-bit detours through the D-XB = S-XB,
routing-order changes) stretch when several switches fail at once:

* **configuration feasibility** -- the placement rules generalize naturally
  (R1: all faulty crossbars must share one dimension, which is routed
  first; R2: the S-XB line must avoid *every* fault), but some fault sets
  admit no valid configuration (e.g. faulty crossbars in two different
  dimensions);
* **reachability** -- with a feasible configuration, every pair of PEs with
  healthy routers is routed (each deflection is followed by a D-XB reset,
  and rule R2 keeps all post-reset turn routers healthy for every fault);
* **deadlock freedom** -- checked with the same tiered CDG analysis.

:func:`analyze_fault_set` runs all three for one fault set: ``make_config``
for feasibility, then the tiered judge
(:func:`~repro.core.cdg.analyze_deadlock_freedom`), whose walk of the
routing relation also checks that every healthy pair and broadcast is
routed and delivered, and raises naming the first flow that is not.
:func:`fault_pair_census` maps the entire two-fault landscape of a network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..topology.mdcrossbar import MDCrossbar
from .cdg import analyze_deadlock_freedom
from .config import ConfigError, DetourScheme, RoutingConfig, make_config
from .coords import all_coords, all_lines
from .fault import Fault, FaultKind
from .switch_logic import RoutingError, SwitchLogic


@dataclass
class ToleranceReport:
    """Outcome of analysing one fault set."""

    faults: Tuple[Fault, ...]
    feasible: bool
    #: why configuration failed (empty when feasible)
    infeasible_reason: str = ""
    config: Optional[RoutingConfig] = None
    #: ordered pairs of PEs with healthy routers
    total_pairs: int = 0
    #: the judge's message naming the first flow it cannot route (empty
    #: when every flow routes)
    routing_error: str = ""
    #: the judge's verdict (``None`` when routing failed first)
    deadlock_free: Optional[bool] = None

    @property
    def fully_tolerant(self) -> bool:
        """The facility keeps the machine fully operational: a valid
        configuration exists, every healthy flow is routed and delivered,
        and the routing relation is deadlock free."""
        return self.feasible and not self.routing_error and bool(self.deadlock_free)

    def row(self) -> str:
        names = " + ".join(str(f) for f in self.faults)
        if not self.feasible:
            return f"{names:<48} infeasible: {self.infeasible_reason}"
        if self.routing_error:
            return f"{names:<48} not routed: {self.routing_error} -> DEGRADED"
        verdict = "TOLERATED" if self.fully_tolerant else "DEGRADED"
        return (
            f"{names:<48} routed {self.total_pairs}/{self.total_pairs} "
            f"deadlock_free={self.deadlock_free} -> {verdict}"
        )


def analyze_fault_set(
    topo: MDCrossbar,
    faults: Sequence[Fault],
    *,
    detour_scheme: DetourScheme = DetourScheme.SAFE,
) -> ToleranceReport:
    """Full tolerance analysis of one fault set on one network:
    ``make_config``, then the tiered judge over every healthy pair and
    broadcast."""
    faults = tuple(faults)
    try:
        cfg = make_config(
            topo.shape, faults=faults, detour_scheme=detour_scheme
        )
    except ConfigError as e:
        return ToleranceReport(
            faults=faults, feasible=False, infeasible_reason=str(e)
        )
    logic = SwitchLogic(topo, cfg)
    live = len(topo.node_coords()) - len(set(logic.registry.dead_pes()))
    report = ToleranceReport(
        faults=faults, feasible=True, config=cfg, total_pairs=live * (live - 1)
    )
    try:
        report.deadlock_free = analyze_deadlock_freedom(topo, logic).deadlock_free
    except RoutingError as e:
        report.routing_error = str(e)
    return report


def all_single_faults(shape) -> List[Fault]:
    out: List[Fault] = [Fault.router(c) for c in all_coords(shape)]
    for dim in range(len(shape)):
        out.extend(Fault.crossbar(dim, line) for line in all_lines(shape, dim))
    return out


@dataclass
class CensusSummary:
    """Aggregate of a fault-set census."""

    total: int = 0
    tolerated: int = 0
    degraded: int = 0
    infeasible: int = 0
    infeasible_reasons: Dict[str, int] = field(default_factory=dict)
    degraded_examples: List[ToleranceReport] = field(default_factory=list)

    def add(self, report: ToleranceReport) -> None:
        self.total += 1
        if not report.feasible:
            self.infeasible += 1
            key = report.infeasible_reason.split(":")[0]
            self.infeasible_reasons[key] = self.infeasible_reasons.get(key, 0) + 1
        elif report.fully_tolerant:
            self.tolerated += 1
        else:
            self.degraded += 1
            if len(self.degraded_examples) < 5:
                self.degraded_examples.append(report)

    def rows(self) -> List[str]:
        lines = [
            f"fault sets analysed : {self.total}",
            f"fully tolerated     : {self.tolerated}"
            f" ({100 * self.tolerated / max(1, self.total):.0f}%)",
            f"degraded            : {self.degraded}",
            f"infeasible          : {self.infeasible}",
        ]
        for reason, n in sorted(self.infeasible_reasons.items()):
            lines.append(f"  infeasible by {reason}: {n}")
        for r in self.degraded_examples:
            lines.append(f"  degraded e.g.: {r.row()}")
        return lines


def fault_pair_census(
    shape,
    *,
    kinds: str = "all",
    detour_scheme: DetourScheme = DetourScheme.SAFE,
    max_pairs: Optional[int] = None,
) -> CensusSummary:
    """Analyse every unordered pair of single faults on ``shape``.

    ``kinds`` restricts the universe: ``"router"`` (router pairs only),
    ``"xb"`` (crossbar pairs only) or ``"all"``.  ``max_pairs`` caps the
    census for large networks (pairs are taken in deterministic order).
    """
    topo = MDCrossbar(shape)
    singles = all_single_faults(shape)
    if kinds == "router":
        singles = [f for f in singles if f.kind is FaultKind.ROUTER]
    elif kinds == "xb":
        singles = [f for f in singles if f.kind is FaultKind.XB]
    elif kinds != "all":
        raise ValueError(f"unknown kinds {kinds!r}")
    summary = CensusSummary()
    for n, pair in enumerate(combinations(singles, 2)):
        if max_pairs is not None and n >= max_pairs:
            break
        summary.add(analyze_fault_set(topo, pair, detour_scheme=detour_scheme))
    return summary
