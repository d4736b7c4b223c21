"""The adaptive comparator as a registered plug-in: ``adaptive``.

Duato-style minimal fully-adaptive routing on the fault-free MD crossbar
(:class:`~repro.sim.adaptive.AdaptiveMDAdapter`): two virtual channels,
VC 1 fully adaptive, VC 0 a strict dimension-order escape lane, grant
semantics "first free of [adaptive..., escape]" (``policy="any"``).

CDG contribution: the adaptive lane is cyclic by construction, so the
scheme contributes only the *escape restriction* -- the escape lane on
VC 0, dimension-order routing (the paper's relation on the fault-free
network).  Acyclicity of that restriction plus the escape branch always
being in the wait set is Duato's deadlock-freedom condition.
"""

from __future__ import annotations

from typing import Tuple

from ..core.switch_logic import SwitchLogic
from ..sim.adaptive import AdaptiveMDAdapter
from ..topology.base import Topology
from ..topology.mdcrossbar import MDCrossbar
from .base import RoutingScheme
from .registry import register_scheme


class AdaptiveScheme(RoutingScheme):
    """Minimal fully-adaptive MD crossbar routing (escape on VC 0)."""

    name = "adaptive"
    kind = "md-crossbar"
    supports_faults = False
    doctor_shape = (3, 3)
    bench_shape = (4, 3)

    def build(self) -> Tuple[Topology, AdaptiveMDAdapter, int]:
        topo = MDCrossbar(self.shape)
        adapter = AdaptiveMDAdapter(topo)
        return topo, adapter, adapter.required_vcs

    def dependency_relation(self) -> SwitchLogic:
        # the escape lane: dimension-order routing on VC 0
        return SwitchLogic(self.topo, self.adapter.config)


register_scheme(AdaptiveScheme)
