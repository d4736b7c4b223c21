"""Unit tests for the multi-fault facility extension."""

import contextlib
import io
import json
import os

import pytest

from repro.cli import main, parse_fault
from repro.core import Fault, FaultRegistry, make_config
from repro.core.config import ConfigError, DetourScheme
from repro.core.multifault import (
    all_single_faults,
    analyze_fault_set,
    fault_pair_census,
)
from repro.topology import MDCrossbar, rtr, xb

with open(os.path.join(os.path.dirname(__file__), "census_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


class TestMultiFaultRegistry:
    def test_two_router_faults_merge(self, topo43):
        reg = FaultRegistry(
            topo43, faults=(Fault.router((1, 0)), Fault.router((3, 0)))
        )
        # both routers sit on X-XB row 0: the XB learns both ports
        assert reg.info(xb(0, (0,))).faulty_ports == {1, 3}
        assert reg.dead_pes() == ((1, 0), (3, 0))

    def test_mixed_fault_kinds(self, topo43):
        reg = FaultRegistry(
            topo43, faults=(Fault.router((1, 0)), Fault.crossbar(0, (2,)))
        )
        assert reg.info(xb(0, (0,))).faulty_ports == {1}
        assert reg.info(rtr((0, 2))).faulty_xb_dims == {0}
        assert reg.is_faulty(rtr((1, 0)))
        assert reg.is_faulty(xb(0, (2,)))

    def test_single_fault_back_compat(self, topo43):
        reg = FaultRegistry(topo43, Fault.router((2, 1)))
        assert reg.faults == (Fault.router((2, 1)),)
        assert reg.fault == Fault.router((2, 1))

    def test_conflicting_args_rejected(self, topo43):
        with pytest.raises(ValueError):
            FaultRegistry(
                topo43,
                fault=Fault.router((0, 0)),
                faults=(Fault.router((1, 1)),),
            )


class TestMultiFaultConfig:
    def test_two_routers_config(self):
        cfg = make_config(
            (4, 3), faults=(Fault.router((1, 0)), Fault.router((3, 2)))
        )
        assert len(cfg.all_faults()) == 2
        # S-XB row avoids both fault rows -> row 1
        assert cfg.sxb_line == (1,)

    def test_xb_faults_two_dims_infeasible(self):
        with pytest.raises(ConfigError, match="R1"):
            make_config(
                (4, 3),
                faults=(Fault.crossbar(0, (0,)), Fault.crossbar(1, (1,))),
            )

    def test_xb_faults_same_dim_ok(self):
        cfg = make_config(
            (4, 3), faults=(Fault.crossbar(0, (0,)), Fault.crossbar(0, (2,)))
        )
        assert cfg.sxb_line == (1,)

    def test_fault_and_faults_both_rejected(self):
        with pytest.raises(ConfigError):
            make_config(
                (4, 3), fault=Fault.router((0, 0)), faults=(Fault.router((1, 1)),)
            )

    def test_too_many_router_rows_exhaust_r2(self):
        # faults in every row: no admissible S-XB line remains
        with pytest.raises(ConfigError, match="R2|S-XB"):
            make_config(
                (4, 3),
                faults=tuple(Fault.router((0, y)) for y in range(3)),
            )

    def test_with_faults(self):
        cfg = make_config((4, 3))
        cfg2 = cfg.with_faults((Fault.router((1, 0)), Fault.router((2, 2))))
        assert len(cfg2.all_faults()) == 2


class TestAnalyzeFaultSet:
    def test_two_router_faults_tolerated(self, topo43):
        report = analyze_fault_set(
            topo43, (Fault.router((1, 0)), Fault.router((3, 2)))
        )
        assert report.fully_tolerant
        assert report.total_pairs == 10 * 9
        assert report.deadlock_free

    def test_infeasible_set_reported(self, topo43):
        report = analyze_fault_set(
            topo43, (Fault.crossbar(0, (0,)), Fault.crossbar(1, (1,)))
        )
        assert not report.feasible
        assert "R1" in report.infeasible_reason
        assert not report.fully_tolerant
        assert "infeasible" in report.row()

    def test_single_fault_equivalent_to_paper(self, topo43):
        report = analyze_fault_set(topo43, (Fault.router((2, 0)),))
        assert report.fully_tolerant

    def test_three_faults(self, topo43):
        report = analyze_fault_set(
            topo43,
            (
                Fault.router((0, 0)),
                Fault.router((1, 0)),
                Fault.router((2, 0)),
            ),
        )
        # all in row 0; S-XB in another row; all remaining pairs must route
        assert report.fully_tolerant
        assert report.routing_error == ""
        assert report.total_pairs == 9 * 8

    def test_row_render(self, topo43):
        report = analyze_fault_set(topo43, (Fault.router((2, 0)),))
        assert "TOLERATED" in report.row()


class TestCensus:
    def test_pair_census_4x3(self):
        summary = fault_pair_census((4, 3))
        assert summary.total == 19 * 18 // 2
        assert summary.degraded == 0
        assert summary.infeasible > 0  # cross-dimension XB pairs
        assert summary.tolerated + summary.infeasible == summary.total

    def test_router_only_census_all_tolerated(self):
        summary = fault_pair_census((4, 4), kinds="router")
        assert summary.total == 16 * 15 // 2
        assert summary.tolerated == summary.total

    def test_max_pairs_cap(self):
        summary = fault_pair_census((4, 3), max_pairs=5)
        assert summary.total == 5

    def test_bad_kinds(self):
        with pytest.raises(ValueError):
            fault_pair_census((4, 3), kinds="links")

    def test_summary_rows(self):
        summary = fault_pair_census((4, 3), max_pairs=10)
        rows = summary.rows()
        assert any("tolerated" in r for r in rows)

    def test_all_single_faults_count(self):
        assert len(all_single_faults((4, 3))) == 12 + 3 + 4


class TestCensusGolden:
    """What the census says, recorded before it was rebased on the
    tiered judge's walk: ``repro census`` on 4x3, 3x3x2 and 4x4x2 under
    both detour schemes, E16's three pair censuses (E16b's with the
    deadlock check, the census default) and the five fault sets of
    ``examples/multifault_reliability.py``."""

    @pytest.mark.parametrize(
        "case", GOLDEN["census"], ids=lambda c: " ".join(c["argv"][2::2])
    )
    def test_cli_census(self, case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(case["argv"])
        assert (rc, out.getvalue().splitlines()) == (case["exit"], case["stdout"])

    @pytest.mark.parametrize(
        "case", GOLDEN["pair_census"], ids=lambda c: json.dumps(c["args"])
    )
    def test_pair_census(self, case):
        args = dict(case["args"])
        shape = tuple(args.pop("shape"))
        if "detour" in args:
            args["detour_scheme"] = DetourScheme(args.pop("detour"))
        assert fault_pair_census(shape, **args).rows() == case["rows"]

    def test_fault_sets(self):
        for case in GOLDEN["fault_sets"]:
            topo = MDCrossbar(tuple(case["shape"]))
            faults = [parse_fault(f) for f in case["faults"]]
            assert analyze_fault_set(topo, faults).row() == case["row"], case
