"""Bench harness tests: the suite pins simulated counts only (nothing
clock-derived), bench files round-trip, and the comparison is exact --
any moved value, missing case or unknown case is a regression."""

import copy
import json
import os

import pytest

import repro.bench
from repro.bench import (
    BENCH_CASES,
    BENCH_SCHEMA,
    compare_bench,
    load_bench,
    render_bench,
    run_case,
    run_suite,
    write_bench,
)
from tests.sim.dirty_sets import exact_twin

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "BENCH_baseline.json"
)

ENGINE_CASES = (
    "p2p_4x3_low",
    "broadcast_4x3",
    "detour_4x3_fault",
    "stream_8x1_long",
    "p2p_8x8_mid",
)


@pytest.fixture(scope="module")
def doc():
    return run_suite(label="test")


def _keys(obj):
    """Every dict key anywhere inside ``obj``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


class TestSuite:
    def test_doc_shape(self, doc):
        assert doc["kind"] == "bench"
        assert doc["schema"] == BENCH_SCHEMA
        assert list(doc["cases"]) == [c.name for c in BENCH_CASES]
        for case in doc["cases"].values():
            assert case["cycles"] > 0
            assert case["delivered"] > 0
            assert not case["deadlocked"]

    def test_document_is_clock_free(self, doc):
        """No field derived from a clock or from the process's memory:
        the committed baseline must mean the same on every machine."""
        for key in _keys(doc):
            assert not key.endswith(("_s", "_sec", "_per_sec", "_kb")), key
            assert not key.startswith("speedup"), key

    def test_suite_is_reproducible(self, doc):
        assert run_suite(label="again")["cases"] == doc["cases"]

    def test_span_aggregates_are_present(self, doc):
        bc = doc["cases"]["broadcast_4x3"]
        assert bc["sxb_wait_cycles"] > 0  # serialized broadcasts waited
        det = doc["cases"]["detour_4x3_fault"]
        assert det["detour_overhead_cycles"] > 0  # detours cost cycles

    def test_single_case_is_deterministic_in_simulated_quantities(self):
        case = next(c for c in BENCH_CASES if c.name == "p2p_4x3_low")
        assert run_case(case) == run_case(case)

    def test_exact_twin_equals_every_engine_case(self, doc, monkeypatch):
        """Each engine case again, stepping every cycle under the
        dirty-set law: every pinned quantity must match the default
        driver's."""
        laws = []
        md_sim = repro.bench._md_sim

        def twin_sim(*args, **kwargs):
            sim = md_sim(*args, **kwargs)
            laws.append(exact_twin(sim))
            return sim

        monkeypatch.setattr(repro.bench, "_md_sim", twin_sim)
        engine_cases = [c for c in BENCH_CASES if c.runner is None]
        assert [c.name for c in engine_cases] == list(ENGINE_CASES)
        for case in engine_cases:
            del laws[:]
            assert run_case(case) == doc["cases"][case.name], case.name
            assert laws and all(law.cycles for law in laws), case.name

    def test_stream_case_exercises_bulk_and_fast_forward(self, doc):
        st = doc["cases"]["stream_8x1_long"]
        assert st["delivered"] == 12
        assert st["flit_moves"] > 12 * 64  # long bodies actually streamed

    def test_render(self, doc):
        out = render_bench(doc)
        for name in doc["cases"]:
            assert name in out


class TestSchemeShootoutCase:
    """The cross-scheme runner case: one deterministic table over every
    registered routing scheme."""

    def test_every_registered_scheme_appears(self, doc):
        from repro.routing import scheme_names

        table = doc["cases"]["scheme_shootout"]["schemes"]
        assert sorted(table) == scheme_names()

    def test_per_scheme_row_shape(self, doc):
        from repro.routing import get_scheme

        table = doc["cases"]["scheme_shootout"]["schemes"]
        for name, row in table.items():
            assert row["cycle_free"] is True
            assert row["cdg_edges"] > 0
            assert row["delivered"] > 0
            assert row["stretch"] >= 1.0
            if get_scheme(name).supports_faults:
                assert row["faults_covered"] > 0
                assert row["fault_delivered"] > 0
            else:
                assert row["faults_covered"] is None

    def test_identity_hash_present(self, doc):
        case = doc["cases"]["scheme_shootout"]
        assert len(case["identity_sha256"]) == 64

    def test_scheme_table_drift_is_a_regression(self, doc):
        new = copy.deepcopy(doc)
        new["cases"]["scheme_shootout"]["schemes"]["dxb"]["delivered"] += 1
        regs = compare_bench(new, doc)
        assert [(r.case, r.field) for r in regs] == [
            ("scheme_shootout", "schemes")
        ]


class TestRecoveryShootoutCase:
    """The avoidance-vs-recovery-vs-halt runner case on the Fig. 9
    deadlock workload."""

    def test_three_legs_with_expected_outcomes(self, doc):
        legs = doc["cases"]["recovery_shootout"]["legs"]
        assert sorted(legs) == ["avoidance", "halt", "recovery"]
        av, rec, halt = legs["avoidance"], legs["recovery"], legs["halt"]
        # safe detours: no deadlock, nothing to recover
        assert not av["deadlocked"] and av["recoveries"] == 0
        assert av["delivered"] == 4
        # naive detours + recovery: full delivery via >=1 rotation
        assert not rec["deadlocked"] and rec["recoveries"] >= 1
        assert rec["delivered"] == 4 and rec["in_flight"] == 0
        assert len(rec["victims"]) == rec["recoveries"]
        # naive detours bare: the run halts with a report
        assert halt["deadlocked"] and halt["deadlock_cycle"] is not None
        assert halt["recoveries"] == 0 and halt["delivered"] == 0

    def test_recovery_costs_cycles_but_saves_the_run(self, doc):
        legs = doc["cases"]["recovery_shootout"]["legs"]
        # the rotation detour is not free: the recovered run takes longer
        # than avoidance, and longer than the halt took to give up
        assert legs["recovery"]["cycles"] > legs["avoidance"]["cycles"]
        assert legs["recovery"]["cycles"] > legs["halt"]["cycles"]

    def test_identity_hash_present(self, doc):
        case = doc["cases"]["recovery_shootout"]
        assert len(case["identity_sha256"]) == 64
        assert not case["deadlocked"]  # halt leg's report is by design

    def test_leg_table_drift_is_a_regression(self, doc):
        new = copy.deepcopy(doc)
        new["cases"]["recovery_shootout"]["legs"]["recovery"][
            "recoveries"
        ] += 1
        regs = compare_bench(new, doc)
        assert [(r.case, r.field) for r in regs] == [
            ("recovery_shootout", "legs")
        ]


class TestBenchFiles:
    def test_write_load_roundtrip(self, doc, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_bench(doc, str(path))
        assert load_bench(str(path)) == doc

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "trace"}))
        with pytest.raises(ValueError):
            load_bench(str(path))

    def test_load_rejects_older_schema(self, doc, tmp_path):
        """A schema-8 file carries machine-specific walls and cases that
        no longer exist: it is not comparable, and the error says how to
        get one that is."""
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({**doc, "schema": 8}))
        with pytest.raises(ValueError, match="regenerate with `repro bench"):
            load_bench(str(path))


class TestCompare:
    def test_no_regression_against_self(self, doc):
        assert compare_bench(doc, doc) == []

    def test_deterministic_drift_is_always_a_regression(self, doc):
        baseline = copy.deepcopy(doc)
        baseline["cases"]["p2p_4x3_low"]["delivered"] += 1
        regs = compare_bench(doc, baseline)
        assert [(r.case, r.field) for r in regs] == [
            ("p2p_4x3_low", "delivered")
        ]

    def test_missing_case_is_a_regression(self, doc):
        new = copy.deepcopy(doc)
        del new["cases"]["p2p_4x3_low"]
        regs = compare_bench(new, doc)
        assert [(r.case, r.field, r.old, r.new) for r in regs] == [
            ("p2p_4x3_low", "presence", "present", "missing")
        ]

    def test_case_absent_from_baseline_is_a_regression(self, doc):
        """The other direction: a new or renamed case must not run
        ungated until someone remembers to refresh the baseline."""
        baseline = copy.deepcopy(doc)
        del baseline["cases"]["p2p_4x3_low"]
        regs = compare_bench(doc, baseline)
        assert [(r.case, r.field, r.old, r.new) for r in regs] == [
            ("p2p_4x3_low", "presence", "missing", "present")
        ]


class TestCli:
    def test_bench_cli_writes_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path)
        # the committed baseline is exact on every machine
        assert main(["bench", "--label", "a", "--out-dir", out_dir,
                     "--compare", BASELINE]) == 0
        assert load_bench(str(tmp_path / "BENCH_a.json"))["label"] == "a"
        assert "no regressions" in capsys.readouterr().out
        # one moved count in a copy of it trips the gate, by name
        doctored = load_bench(BASELINE)
        doctored["cases"]["broadcast_4x3"]["sxb_wait_cycles"] += 1
        path = tmp_path / "BENCH_doctored.json"
        write_bench(doctored, str(path))
        assert main(["bench", "--label", "b", "--out-dir", out_dir,
                     "--compare", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "broadcast_4x3.sxb_wait_cycles" in out
