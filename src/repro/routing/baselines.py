"""The comparison fabrics as registered plug-ins: ``mesh``, ``torus``,
``hypercube``.

Each scheme names its topology and its :mod:`repro.baselines` adapter:
dimension-order routing on the mesh, dateline virtual-channel DOR on the
torus (VC 1 after the wrap crossing breaks the ring cycle), and e-cube
routing on the hypercube, whose shape is ``2x...x2`` (one extent of 2 per
dimension).  All three are deterministic, so their full routing relation
is their CDG contribution and the generic cycle check applies as-is --
for the torus the (channel, vc) resolution is what proves the dateline
split: the same physical ring is cyclic at channel level and acyclic at
(channel, vc) level.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..baselines import HypercubeAdapter, MeshAdapter, TorusAdapter
from ..core.config import ConfigError
from ..core.coords import num_nodes
from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh
from ..topology.torus import Torus
from .base import RoutingScheme
from .registry import register_scheme


class _BaselineScheme(RoutingScheme):
    supports_faults = False
    #: builds the network from the shape
    topology: Callable[..., Topology]
    #: the dimension-order adapter routing it
    adapter_class: type

    def build(self) -> Tuple[Topology, object, int]:
        topo = self.topology(self.shape)
        adapter = self.adapter_class(topo)
        return topo, adapter, adapter.required_vcs


class MeshScheme(_BaselineScheme):
    """Dimension-order routing on the 2D/ND mesh (single VC)."""

    name = "mesh"
    kind = "mesh"
    topology = Mesh
    adapter_class = MeshAdapter
    doctor_shape = (3, 3)
    bench_shape = (4, 3)


class TorusScheme(_BaselineScheme):
    """Dateline DOR on the torus (two VCs break the ring cycles)."""

    name = "torus"
    kind = "torus"
    topology = Torus
    adapter_class = TorusAdapter
    doctor_shape = (3, 3)
    bench_shape = (4, 3)


class HypercubeScheme(_BaselineScheme):
    """E-cube routing on the hypercube (single VC)."""

    name = "hypercube"
    kind = "hypercube"
    adapter_class = HypercubeAdapter
    doctor_shape = (2, 2, 2)
    bench_shape = (2, 2, 2)

    @staticmethod
    def topology(shape) -> Hypercube:
        """The ``len(shape)``-cube; any extent other than 2 is rejected."""
        if any(extent != 2 for extent in shape):
            n = num_nodes(shape)
            hint = ""
            if n > 1 and not n & (n - 1):
                hint = f"; the {n}-node hypercube is " + "x".join(
                    ["2"] * (n.bit_length() - 1)
                )
            raise ConfigError(
                "a hypercube shape is 2x...x2 (one extent of 2 per "
                f"dimension), not {'x'.join(map(str, shape))}{hint}"
            )
        return Hypercube(len(shape))


register_scheme(MeshScheme, default_for_kind=True)
register_scheme(TorusScheme, default_for_kind=True)
register_scheme(HypercubeScheme, default_for_kind=True)
