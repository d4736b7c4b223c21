"""Simulator tests: the mesh / torus / hypercube baselines under the same
flit engine."""

import pytest

from repro.baselines import HypercubeAdapter, MeshAdapter, TorusAdapter
from repro.core import Header, Packet, RC
from repro.core.config import ConfigError
from repro.routing import make_scheme
from repro.sim import NetworkSimulator, SimConfig
from repro.topology import Hypercube, Mesh, Torus


def p2p(src, dst, length=4):
    return Packet(Header(source=src, dest=dst), length=length)


class TestMeshSim:
    def test_single_transfer(self):
        topo = Mesh((4, 3))
        sim = NetworkSimulator(MeshAdapter(topo), SimConfig())
        sim.send(p2p((0, 0), (3, 2)))
        res = sim.run()
        assert len(res.delivered) == 1
        # 5 router hops + PE hops, each >= 1 cycle
        assert res.delivered[0].latency >= 5

    def test_all_pairs(self):
        topo = Mesh((3, 3))
        sim = NetworkSimulator(MeshAdapter(topo), SimConfig())
        n = 0
        for s in topo.node_coords():
            for t in topo.node_coords():
                if s != t:
                    sim.send(p2p(s, t))
                    n += 1
        res = sim.run()
        assert len(res.delivered) == n
        assert not res.deadlocked

    def test_rejects_broadcast(self):
        topo = Mesh((3, 3))
        sim = NetworkSimulator(MeshAdapter(topo), SimConfig())
        sim.send(
            Packet(Header(source=(0, 0), dest=(0, 0), rc=RC.BROADCAST_REQUEST))
        )
        with pytest.raises(ValueError):
            sim.run()


class TestTorusSim:
    def test_single_transfer_uses_wrap(self):
        topo = Torus((4, 4))
        sim = NetworkSimulator(TorusAdapter(topo), SimConfig(num_vcs=2))
        sim.send(p2p((0, 0), (3, 3)))  # shortest way wraps both dims
        res = sim.run()
        assert len(res.delivered) == 1
        assert res.delivered[0].latency < 20

    def test_all_pairs_no_deadlock(self):
        # the dateline VCs keep dimension-order torus routing deadlock free
        topo = Torus((4, 4))
        sim = NetworkSimulator(
            TorusAdapter(topo), SimConfig(num_vcs=2, stall_limit=500)
        )
        n = 0
        for s in topo.node_coords():
            for t in topo.node_coords():
                if s != t:
                    sim.send(p2p(s, t, length=6))
                    n += 1
        res = sim.run()
        assert len(res.delivered) == n
        assert not res.deadlocked

    def test_adversarial_ring_traffic_no_deadlock(self):
        """All nodes of one ring send halfway around simultaneously -- the
        classic pattern that deadlocks a VC-free torus."""
        topo = Torus((8, 1))
        sim = NetworkSimulator(
            TorusAdapter(topo), SimConfig(num_vcs=2, stall_limit=500)
        )
        for x in range(8):
            sim.send(p2p((x, 0), ((x + 4) % 8, 0), length=8))
        res = sim.run()
        assert len(res.delivered) == 8
        assert not res.deadlocked


class TestHypercubeSim:
    def test_single_transfer(self):
        topo = Hypercube(4)
        sim = NetworkSimulator(HypercubeAdapter(topo), SimConfig())
        sim.send(p2p((0, 0, 0, 0), (1, 1, 1, 1)))
        res = sim.run()
        assert len(res.delivered) == 1

    def test_all_pairs(self):
        topo = Hypercube(3)
        sim = NetworkSimulator(HypercubeAdapter(topo), SimConfig())
        n = 0
        for s in topo.node_coords():
            for t in topo.node_coords():
                if s != t:
                    sim.send(p2p(s, t))
                    n += 1
        res = sim.run()
        assert len(res.delivered) == n


class TestFactory:
    def test_make_scheme_mesh(self):
        sch = make_scheme("mesh", (4, 4))
        assert isinstance(sch.adapter, MeshAdapter)
        assert sch.num_vcs == 1

    def test_make_scheme_torus(self):
        sch = make_scheme("torus", (4, 4))
        assert isinstance(sch.adapter, TorusAdapter)
        assert sch.num_vcs == 2

    def test_make_scheme_hypercube(self):
        sch = make_scheme("hypercube", (2, 2, 2, 2))
        assert isinstance(sch.adapter, HypercubeAdapter)
        assert sch.topo.num_nodes == 16
        assert sch.num_vcs == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scheme("ring", (4,))


class TestHypercubeShape:
    """A hypercube shape is 2x...x2; any other extent is refused instead
    of being reread as ``len(shape)`` dimensions."""

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5, 7), (2, 4), 4])
    def test_rejects_other_extents(self, shape):
        with pytest.raises(ConfigError, match="2x...x2"):
            make_scheme("hypercube", shape)

    def test_names_the_equivalent_shape(self):
        with pytest.raises(ConfigError, match="16-node hypercube is 2x2x2x2"):
            make_scheme("hypercube", (4, 4))

    def test_no_hint_without_a_power_of_two(self):
        with pytest.raises(ConfigError) as e:
            make_scheme("hypercube", (3, 5, 7))
        assert "node hypercube" not in str(e.value)
