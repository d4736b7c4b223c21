"""Unit tests for the channel-ordering certificates."""

import pytest

from repro.core import Fault
from repro.core.ordering import (
    CertificateError,
    OrderingCertificate,
    build_certificate,
    verify_certificate,
)
from tests.conftest import make_logic


class TestBuild:
    def test_fault_free(self, topo43, logic43):
        cert = build_certificate(topo43, logic43)
        assert cert.num_flows_verified == 12 * 11 + 12
        assert len(cert.rank) == topo43.num_channels

    def test_safe_scheme_with_fault(self, topo43, logic43_faulty_rtr):
        cert = build_certificate(topo43, logic43_faulty_rtr)
        assert cert.num_flows_verified == 11 * 10 + 11

    def test_3d(self, topo333, logic333):
        cert = build_certificate(topo333, logic333)
        assert cert.num_flows_verified > 0

    def test_ranks_are_a_permutation(self, topo43, logic43):
        cert = build_certificate(topo43, logic43)
        assert sorted(cert.rank.values()) == list(range(len(cert.rank)))

    def test_atomic_set_is_sxb_outputs(self, topo43, logic43):
        cert = build_certificate(topo43, logic43)
        sxb_outs = {
            c.cid for c in topo43.channels_from(logic43.config.sxb_element)
        }
        assert cert.atomic == sxb_outs

    def test_describe(self, topo43, logic43):
        cert = build_certificate(topo43, logic43)
        text = cert.describe(topo43, limit=3)
        assert "rank" in text and "..." in text


class TestRefusals:
    def test_naive_detour_with_broadcasts_refused(self, topo43, logic43_naive_detour):
        with pytest.raises(CertificateError):
            build_certificate(topo43, logic43_naive_detour)

    def test_naive_broadcast_refused(self, topo43, logic43_naive_broadcast):
        with pytest.raises(CertificateError):
            build_certificate(topo43, logic43_naive_broadcast)


class TestVerification:
    def test_tampered_certificate_detected(self, topo43, logic43):
        cert = build_certificate(topo43, logic43)
        # swap the first two hops of some route: verification must fail
        from repro.core import Unicast, compute_route

        tree = compute_route(topo43, logic43, Unicast((0, 0), (3, 2)))
        chain = tree.path_to((3, 2))
        a, b = chain[0].cid, chain[1].cid
        bad = OrderingCertificate(
            rank={**cert.rank, a: cert.rank[b], b: cert.rank[a]},
            atomic=set(cert.atomic),
        )
        with pytest.raises(CertificateError):
            verify_certificate(topo43, logic43, bad)

    def test_verify_returns_flow_count(self, topo43, logic43):
        cert = build_certificate(topo43, logic43)
        assert verify_certificate(topo43, logic43, cert) == 144

    def test_certify_one_call(self, topo43):
        logic = make_logic(topo43, fault=Fault.crossbar(0, (1,)))
        cert = build_certificate(topo43, logic)
        assert cert.num_flows_verified > 0


class TestAgreementWithCDG:
    """The certificate and the tiered CDG must agree on every config."""

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"fault": Fault.router((2, 0))},
            {"fault": Fault.router((0, 2))},
            {"fault": Fault.crossbar(0, (2,))},
            {"fault": Fault.crossbar(1, (1,))},
        ],
        ids=str,
    )
    def test_safe_configs_certifiable(self, topo43, kw):
        from repro.core import analyze_deadlock_freedom

        logic = make_logic(topo43, **kw)
        assert analyze_deadlock_freedom(topo43, logic).deadlock_free
        cert = build_certificate(topo43, logic)
        assert cert.num_flows_verified > 0
