"""Per-scheme behavior: CDG cycle-freedom for the whole zoo, the HyperX
and full-mesh decision rules, and full delivery under the single-fault
enumeration (the e11-style acceptance bar for the fault-tolerant
schemes)."""

import re

import pytest

from repro.baselines.dor import MeshAdapter, TorusAdapter
from repro.core import Fault, Header, Packet
from repro.core.config import ConfigError
from repro.core.multifault import all_single_faults
from repro.core.packet import RC
from repro.core.switch_logic import UnreachableDestinationError
from repro.routing import get_scheme, make_scheme, scheme_names
from repro.routing.hyperx import ADAPTIVE_VC, ESCAPE_VC
from repro.runtime import RunSpec, result_identity
from repro.sim import NetworkSimulator, SimConfig
from repro.sim.adapter import SimDecision
from repro.topology.base import pe, rtr


def sim_for(scheme):
    return NetworkSimulator(
        scheme.adapter, SimConfig(num_vcs=scheme.num_vcs, stall_limit=5000)
    )


def total_exchange(scheme):
    """Every live pair sends one packet at cycle 0; the run must drain
    with nothing dropped and nothing deadlocked."""
    sim = sim_for(scheme)
    live = sorted(scheme.live_nodes())
    sent = 0
    for s in live:
        for d in live:
            if s != d:
                sim.send(Packet(Header(source=s, dest=d), length=4))
                sent += 1
    res = sim.run(max_cycles=50_000)
    assert not res.deadlocked
    assert not res.dropped
    assert len(res.delivered) == sent


class TestZooCycleFreedom:
    @pytest.mark.parametrize("name", sorted(
        {"dxb", "adaptive", "hyperx_ft", "mesh", "torus", "hypercube",
         "fullmesh_novc"}
    ))
    def test_cdg_is_acyclic_on_the_doctor_grid(self, name):
        audit = make_scheme(name, get_scheme(name).doctor_shape).check_cycle_free()
        assert audit.cycle_free, audit.row()
        assert audit.num_edges > 0

    def test_every_registered_scheme_is_covered(self):
        # a scheme someone registers later must still pass the doctor
        for name in scheme_names():
            cls = get_scheme(name)
            assert make_scheme(name, cls.doctor_shape).check_cycle_free().cycle_free

    @pytest.mark.parametrize("name,fault", [
        ("dxb", Fault.router((1, 1))),
        ("hyperx_ft", Fault.router((1, 1))),
        ("hyperx_ft", Fault.crossbar(0, (1,))),
        ("fullmesh_novc", Fault.router((2,))),
    ])
    def test_cdg_stays_acyclic_under_faults(self, name, fault):
        shape = get_scheme(name).doctor_shape
        audit = make_scheme(name, shape, faults=(fault,)).check_cycle_free()
        assert audit.cycle_free, audit.row()

    def test_a_torus_without_its_dateline_is_cyclic(self, monkeypatch):
        """The CYCLIC verdict: with every hop on VC 0 (no dateline), the
        rings of a 4x4 torus close a dependency cycle, and the audit
        names it channel by channel."""
        assert make_scheme("torus", (4, 4)).check_cycle_free().cycle_free
        next_hop = TorusAdapter.next_hop
        monkeypatch.setattr(
            TorusAdapter, "next_hop", lambda self, *a: (next_hop(self, *a)[0], 0)
        )
        audit = make_scheme("torus", (4, 4)).check_cycle_free()
        assert audit.cycle_free is False
        assert "CYCLIC" in audit.row()
        assert re.fullmatch(r"cycle through c\d+/vc0( -> c\d+/vc0)+", audit.detail)

    def test_a_relation_that_loses_a_pair_is_refused(self, monkeypatch):
        """A scheme whose decisions drop a pair is not certified: with
        router (1, 2) of a 3x3 mesh dropping every packet for (2, 2), the
        audit raises, naming the first pair that is not delivered."""
        decide = MeshAdapter.decide

        def dropping(self, el, in_from, in_vc, header):
            if el == rtr((1, 2)) and header.dest == (2, 2):
                return SimDecision(outputs=(), rc=header.rc, drop=True)
            return decide(self, el, in_from, in_vc, header)

        monkeypatch.setattr(MeshAdapter, "decide", dropping)
        with pytest.raises(UnreachableDestinationError) as exc:
            make_scheme("mesh", (3, 3)).check_cycle_free()
        assert str(exc.value).startswith(
            "flow p2p (0, 2)->(2, 2) is not delivered: dropped at [('RTR', (1, 2))]"
        )


class TestFaultCoverage:
    def test_hyperx_ft_delivers_under_every_single_fault(self):
        for fault in all_single_faults((3, 3)):
            total_exchange(make_scheme("hyperx_ft", (3, 3), faults=(fault,)))

    def test_dxb_delivers_under_every_single_fault(self):
        for fault in all_single_faults((3, 3)):
            total_exchange(make_scheme("dxb", (3, 3), faults=(fault,)))

    def test_fullmesh_delivers_under_every_router_fault(self):
        for i in range(5):
            total_exchange(
                make_scheme("fullmesh_novc", (5,),
                            faults=(Fault.router((i,)),))
            )


class TestHyperXDecisions:
    def test_fault_free_router_offers_adaptive_then_escape(self):
        sch = make_scheme("hyperx_ft", (3, 3))
        h = Header(source=(0, 0), dest=(2, 2), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((0, 0)), pe((0, 0)), 0, h)
        assert d.policy == "any"
        # both differing dimensions as adaptive candidates, escape last
        vcs = [vc for _, vc in d.outputs]
        assert vcs[:-1] == [ADAPTIVE_VC] * (len(vcs) - 1)
        assert vcs[-1] == ESCAPE_VC
        assert len(d.outputs) == 3  # 2 adaptive dims + 1 escape

    def test_faulty_dimension_is_filtered_from_the_adaptive_set(self):
        sch = make_scheme(
            "hyperx_ft", (3, 3), faults=(Fault.crossbar(0, (0,)),)
        )
        h = Header(source=(0, 0), dest=(2, 2), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((0, 0)), pe((0, 0)), 0, h)
        adaptive = [el for el, vc in d.outputs if vc == ADAPTIVE_VC]
        assert all(el[1] != 0 for el in adaptive)  # dim 0's XB is faulty

    def test_faulty_exit_router_is_filtered(self):
        sch = make_scheme(
            "hyperx_ft", (3, 3), faults=(Fault.router((2, 0)),)
        )
        h = Header(source=(0, 0), dest=(2, 2), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((0, 0)), pe((0, 0)), 0, h)
        # hopping dim 0 first would exit at the dead router (2, 0)
        adaptive = [el for el, vc in d.outputs if vc == ADAPTIVE_VC]
        assert all(el[1] != 0 for el in adaptive)

    def test_detour_legs_run_escape_only(self):
        """When the escape decision rewrites RC (a detour start), no
        adaptive candidate may ride along (one RC per decision)."""
        sch = make_scheme(
            "hyperx_ft", (3, 3), faults=(Fault.crossbar(0, (0,)),)
        )
        h = Header(source=(0, 0), dest=(2, 0), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((0, 0)), pe((0, 0)), 0, h)
        assert d.rc is RC.DETOUR
        assert all(vc == ESCAPE_VC for _, vc in d.outputs)

    def test_cdg_escape_restriction(self):
        """The CDG is the escape relation's: the last (escape) branch of
        the router's decision is that relation's decision, on VC 0."""
        sch = make_scheme("hyperx_ft", (3, 3))
        h = Header(source=(0, 0), dest=(2, 2), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((0, 0)), pe((0, 0)), 0, h)
        escape = sch.dependency_relation().decide(rtr((0, 0)), pe((0, 0)), h)
        assert d.outputs[-1:] == tuple((el, ESCAPE_VC) for el in escape.outputs)


class TestFullMeshDecisions:
    def test_source_router_offers_direct_then_valleys_in_index_order(self):
        sch = make_scheme("fullmesh_novc", (6,))
        h = Header(source=(4,), dest=(3,), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((4,)), pe((4,)), 0, h)
        assert d.policy == "any"
        assert d.outputs == (
            (rtr((3,)), 0), (rtr((0,)), 0), (rtr((1,)), 0), (rtr((2,)), 0),
        )

    def test_valleys_require_v_below_both_endpoints(self):
        sch = make_scheme("fullmesh_novc", (6,))
        h = Header(source=(0,), dest=(5,), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((0,)), pe((0,)), 0, h)
        # min(s, d) == 0: no valley qualifies, direct only, no wait set
        assert d.outputs == ((rtr((5,)), 0),)
        assert d.policy != "any"

    def test_relayed_packet_goes_straight_home(self):
        sch = make_scheme("fullmesh_novc", (6,))
        h = Header(source=(4,), dest=(3,), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((1,)), rtr((4,)), 0, h)
        assert d.outputs == ((rtr((3,)), 0),)

    def test_faulty_valley_is_skipped(self):
        sch = make_scheme(
            "fullmesh_novc", (6,), faults=(Fault.router((1,)),)
        )
        h = Header(source=(4,), dest=(3,), rc=RC.NORMAL)
        d = sch.adapter.decide(rtr((4,)), pe((4,)), 0, h)
        assert (rtr((1,)), 0) not in d.outputs
        assert d.outputs[0] == (rtr((3,)), 0)

    def test_single_vc(self):
        assert make_scheme("fullmesh_novc", (5,)).num_vcs == 1

    def test_rejects_multidimensional_shapes(self):
        with pytest.raises(ConfigError, match="one-dimensional"):
            make_scheme("fullmesh_novc", (3, 3))

    def test_rejects_crossbar_faults(self):
        with pytest.raises(ConfigError, match="no crossbar"):
            make_scheme(
                "fullmesh_novc", (5,), faults=(Fault.crossbar(0, ()),)
            )


class TestRunSpecIntegration:
    def spec(self, scheme, **kw):
        kind = get_scheme(scheme).kind
        shape = get_scheme(scheme).doctor_shape
        base = dict(
            kind=kind, shape=shape, load=0.1, warmup=20, window=50,
            drain=500, scheme=scheme,
        )
        base.update(kw)
        return RunSpec(**base)

    @pytest.mark.parametrize("name", ["hyperx_ft", "fullmesh_novc", "adaptive"])
    def test_specs_execute_and_repeat_deterministically(self, name):
        a = self.spec(name).execute()
        b = self.spec(name).execute()
        assert result_identity([a]) == result_identity([b])
        assert not a.point.deadlocked
        assert a.point.latency.count > 0

    def test_scheme_changes_the_simulated_result(self):
        """dxb and hyperx_ft on identical specs produce different traffic
        outcomes -- the cache-key separation is load-bearing."""
        a = self.spec("dxb", kind="md-crossbar").execute()
        b = self.spec("hyperx_ft", kind="md-crossbar").execute()
        assert result_identity([a]) != result_identity([b])

    def test_faulted_hyperx_spec_does_not_deadlock(self):
        res = self.spec(
            "hyperx_ft", faults=(Fault.router((1, 1)),)
        ).execute()
        assert not res.point.deadlocked
