"""Unit tests for the application communication kernels."""

import pytest

from repro.core.config import ConfigError
from repro.core.coords import num_nodes
from repro.traffic.applications import (
    KERNELS,
    PhasedWorkload,
    alltoall_phases,
    compare_topologies,
    fft_phases,
    stencil_phases,
    sweep_phases,
)


class TestPhaseGenerators:
    def test_stencil_counts(self):
        phases = stencil_phases((4, 3))
        assert len(phases) == 4
        assert sum(len(p) for p in phases) == 2 * (3 * 3 + 2 * 4)

    def test_stencil_skips_degenerate_dim(self):
        phases = stencil_phases((4, 1))
        assert len(phases) == 2

    def test_stencil_no_self_sends(self):
        for phase in stencil_phases((3, 3)):
            assert all(s != t for s, t in phase)

    def test_fft_pairs_are_involutions(self):
        phases = fft_phases((4, 4))
        assert len(phases) == 4
        for phase in phases:
            pairs = {(s, t) for s, t in phase}
            assert all((t, s) in pairs for s, t in pairs)

    def test_fft_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft_phases((4, 3))

    def test_alltoall_is_full(self):
        shape = (3, 2)
        phases = alltoall_phases(shape)
        n = num_nodes(shape)
        assert len(phases) == n - 1
        seen = set()
        for phase in phases:
            assert len(phase) == n
            seen.update(phase)
        assert len(seen) == n * (n - 1)

    def test_sweep_wavefront(self):
        phases = sweep_phases((4, 3))
        assert len(phases) == 3
        assert all(len(p) == 3 for p in phases)

    def test_each_phase_is_partial_permutation(self):
        for kernel, fn in KERNELS.items():
            shape = (4, 4)
            for phase in fn(shape):
                srcs = [s for s, _ in phase]
                dsts = [t for _, t in phase]
                assert len(set(srcs)) == len(srcs), kernel
                assert len(set(dsts)) == len(dsts), kernel


class TestPhasedWorkload:
    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            PhasedWorkload("lu", (4, 4)).phases()

    def test_run_on_md_crossbar(self):
        out = compare_topologies("stencil", (3, 3), kinds=("md-crossbar",))
        res = out["md-crossbar"]
        assert not res.deadlocked
        assert len(res.phases) == 4
        assert res.total_cycles > 0
        assert "stencil" in res.row()

    def test_fault_aware_skips_dead_pes(self):
        from repro.core import Fault, SwitchLogic, make_config
        from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
        from repro.topology import MDCrossbar

        shape = (4, 3)
        topo = MDCrossbar(shape)
        logic = SwitchLogic(topo, make_config(shape, fault=Fault.router((2, 0))))
        wl = PhasedWorkload("stencil", shape)
        res = wl.run(
            lambda: NetworkSimulator(MDCrossbarAdapter(logic), SimConfig())
        )
        assert not res.deadlocked
        full = PhasedWorkload("stencil", shape).run(
            lambda: NetworkSimulator(
                MDCrossbarAdapter(
                    SwitchLogic(topo, make_config(shape))
                ),
                SimConfig(),
            )
        )
        assert res.total_transfers < full.total_transfers


class TestComparisons:
    def test_fft_favours_md_crossbar(self):
        out = compare_topologies("fft", (4, 4), kinds=("md-crossbar", "mesh"))
        assert (
            out["md-crossbar"].total_cycles < out["mesh"].total_cycles
        )

    def test_alltoall_favours_md_crossbar(self):
        out = compare_topologies(
            "alltoall", (4, 4), kinds=("md-crossbar", "mesh")
        )
        assert out["md-crossbar"].total_cycles < out["mesh"].total_cycles

    def test_stencil_close_to_mesh(self):
        out = compare_topologies(
            "stencil", (4, 4), kinds=("md-crossbar", "mesh")
        )
        md, mesh = out["md-crossbar"], out["mesh"]
        # neighbour traffic is the mesh's home turf: the MD crossbar ties
        # within a small constant
        assert md.total_cycles <= 1.3 * mesh.total_cycles

    def test_hypercube_runs_every_transfer(self):
        out = compare_topologies(
            "stencil", (2, 2, 2, 2), kinds=("md-crossbar", "hypercube")
        )
        md, cube = out["md-crossbar"], out["hypercube"]
        assert md.total_transfers == cube.total_transfers == 64

    def test_hypercube_refuses_other_extents(self):
        with pytest.raises(ConfigError, match="2x2x2x2"):
            compare_topologies("stencil", (4, 4), kinds=("hypercube",))
