"""Baseline networks the paper compares against (Sections 1 and 3.1).

Dimension-order routing adapters for the mesh (static, VC-free), the torus
(CRAY T3D-style, with the classic dateline virtual-channel split) and the
hypercube (e-cube routing), so the same flit-level simulator drives all
topologies in the performance benches.  The ``mesh``, ``torus`` and
``hypercube`` routing schemes in :mod:`repro.routing` pair each adapter
with its topology; build a baseline network through that registry.
"""

from .dor import HypercubeAdapter, MeshAdapter, TorusAdapter

__all__ = ["HypercubeAdapter", "MeshAdapter", "TorusAdapter"]
