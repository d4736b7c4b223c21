"""The campaign engine's contracts: the closed-form R1/R2 oracle is
exactly ``make_config``, the vectorized kernel's walks are legal scalar
walks, and the merged estimate is invariant under chunking, worker count
and checkpoint/resume."""

import io
import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.campaign import (
    BlockState,
    CampaignCheckpoint,
    CampaignSpec,
    SwitchUniverse,
    campaign_mttf_estimate,
    empty_state,
    merge_states,
    run_campaign,
    sample_block,
    wilson_interval,
    worker_universe,
)
from repro.core.config import ConfigError, DetourScheme, make_config
from repro.core.multifault import all_single_faults

SHAPES = [(4, 3), (3, 2, 2), (8, 1), (2, 2), (5,), (4, 4)]

#: identities and means recorded at the commit before the compact block
#: kernel (CI's campaign smoke reads the same file)
with open(
    os.path.join(os.path.dirname(__file__), "campaign_golden.json")
) as _fh:
    GOLDEN = json.load(_fh)

#: extents at and past one 64-bit occupancy word, extent-1 and
#: no-wide-dimension shapes, four dimensions: what a mask kernel can get
#: wrong and nothing small exercises
MASK_SHAPES = [(70, 2), (1, 130), (65, 3), (64, 2), (1,), (1, 1), (2, 2, 2, 2)]


def _make_config_judge(uni, indices, need=1):
    """Ground truth for the SAFE scheme (``need == 1``): ``make_config``
    on the fault set itself (``uni.fault`` order is pinned by
    ``test_index_order_matches_all_single_faults``)."""
    assert need == 1
    try:
        make_config(uni.shape, faults=tuple(uni.fault(j) for j in sorted(indices)))
        return True
    except ConfigError:
        return False


#: the closed-form oracle -- pinned == ``make_config`` by
#: ``test_oracle_matches_make_config_exactly`` and cheap enough for
#: shapes where ``make_config`` per prefix is not
_oracle_judge = SwitchUniverse.feasible


def assert_legal_scalar_walks(shape, rng, size, cap, need, judge):
    """Every proper prefix of a walk's failure order is feasible, the
    full order infeasible exactly when the kernel says the walk died
    (capped walks end feasible at the cap)."""
    uni = SwitchUniverse(shape)
    n = uni.num_switches
    times, depth, infeasible, orders = sample_block(
        uni, rng, size, max_faults=cap, need=need, debug=True
    )
    assert (times > 0).all()
    for i in range(size):
        order = orders[i]
        assert len(order) == depth[i]
        assert len(set(order)) == len(order)  # without replacement
        assert all(0 <= j < n for j in order)
        for plen in range(1, len(order) + 1):
            ok = judge(uni, order[:plen], need)
            if plen < len(order):
                assert ok, (shape, need, cap, order[:plen])
            else:
                assert ok != bool(infeasible[i]), (shape, need, cap, order)
        if not infeasible[i]:
            assert len(order) == (n if cap is None else min(cap, n))


@st.composite
def small_universe_shapes(draw):
    """<= 4 dimensions in any order, extents 1-70 (every other shape
    has one in 60-70, around the 64-bit word edge), <= 300 switches."""
    shape = [draw(st.one_of(st.integers(1, 70), st.integers(60, 70)))]
    routers = shape[0]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        shape.append(draw(st.integers(1, min(70, 150 // routers))))
        routers *= shape[-1]
    assume(routers + sum(routers // e for e in shape) <= 300)
    return tuple(draw(st.permutations(shape)))


class TestSwitchUniverse:
    def test_index_order_matches_all_single_faults(self):
        for shape in SHAPES:
            uni = SwitchUniverse(shape)
            singles = all_single_faults(shape)
            assert uni.num_switches == len(singles)
            for i, fault in enumerate(singles):
                assert uni.fault(i) == fault

    def test_index_out_of_range(self):
        uni = SwitchUniverse((4, 3))
        with pytest.raises(ValueError):
            uni.fault(uni.num_switches)

    def test_oracle_matches_make_config_exactly(self):
        """The closed-form feasibility count against ground truth:
        random fault sets on every shape, both detour schemes (the
        naive scheme needs a second admissible line, so need=2)."""
        rnd = random.Random(7)
        for shape in SHAPES:
            uni = SwitchUniverse(shape)
            singles = all_single_faults(shape)
            n = uni.num_switches
            for _ in range(150):
                k = rnd.randint(0, min(n, 8))
                idxs = tuple(sorted(rnd.sample(range(n), k)))
                faults = tuple(singles[i] for i in idxs)
                for scheme, need in (
                    (DetourScheme.SAFE, 1),
                    (DetourScheme.NAIVE, 2),
                ):
                    try:
                        make_config(shape, faults=faults, detour_scheme=scheme)
                        truth = True
                    except ConfigError:
                        truth = False
                    assert uni.feasible(idxs, need=need) == truth, (
                        shape, idxs, scheme,
                    )

    def test_worker_universe_is_memoized_per_shape(self):
        assert worker_universe((4, 3)) is worker_universe((4, 3))
        assert worker_universe((4, 3)) is not worker_universe((3, 4))


class TestSampleBlock:
    def test_walks_are_legal_scalar_walks(self):
        """Debug mode exposes each sample's failure order; the small
        shapes are judged by ``make_config`` itself, the shapes the
        occupancy masks can get wrong by the closed-form oracle."""
        cases = [
            ((4, 3), None, 1, _make_config_judge),
            ((3, 2, 2), None, 1, _make_config_judge),
            ((5,), None, 1, _make_config_judge),
            ((4, 3), 3, 1, _make_config_judge),
        ] + [
            (shape, cap, need, _oracle_judge)
            for shape in MASK_SHAPES
            for need in (1, 2)
            for cap in (None, 3)
        ]
        for shape, cap, need, judge in cases:
            assert_legal_scalar_walks(
                shape, np.random.default_rng(42), 60, cap, need, judge
            )

    @given(
        shape=small_universe_shapes(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        need=st.sampled_from([1, 2]),
        cap=st.sampled_from([None, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_walks_are_legal_on_random_shapes(self, shape, seed, need, cap):
        assert_legal_scalar_walks(
            shape, np.random.default_rng(seed), 12, cap, need, _oracle_judge
        )

    def test_times_are_positive_and_increasing_with_depth(self):
        uni = SwitchUniverse((4, 3))
        times, depth, _ = sample_block(
            uni, np.random.default_rng(1), 200
        )
        assert (times > 0).all()
        assert (depth >= 1).all()
        assert (depth <= uni.num_switches).all()

    def test_same_stream_reproduces(self):
        uni = SwitchUniverse((4, 3))
        a = sample_block(uni, np.random.default_rng(9), 100)
        b = sample_block(uni, np.random.default_rng(9), 100)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestReducers:
    def test_merge_matches_direct_welford(self):
        rng = np.random.default_rng(3)
        xs = rng.exponential(size=1000)
        from repro.analysis.campaign import _reduce_block

        def state_of(arr):
            depth = np.ones(len(arr), dtype=np.int64)
            return _reduce_block(arr, depth, np.zeros(len(arr), dtype=bool))

        merged = empty_state()
        for lo in range(0, 1000, 100):
            merged = merge_states(merged, state_of(xs[lo:lo + 100]))
        assert merged.samples == 1000
        assert merged.mean == pytest.approx(float(xs.mean()), rel=1e-12)
        var = merged.m2 / (merged.samples - 1)
        assert var == pytest.approx(float(xs.var(ddof=1)), rel=1e-9)

    def test_merge_with_empty_is_identity(self):
        s = BlockState(5, 1.5, 0.25, 10, (0, 2, 3), (0, 1, 1))
        assert merge_states(empty_state(), s) == s
        assert merge_states(s, empty_state()) == s

    def test_state_json_round_trip(self):
        s = BlockState(5, 1.5, 0.25, 10, (0, 2, 3), (0, 1, 1))
        assert BlockState.from_dict(json.loads(json.dumps(s.to_dict()))) == s


class TestWilsonInterval:
    def test_rejects_bad_tallies(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 2)
        with pytest.raises(ValueError):
            wilson_interval(-1, 2)

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @given(
        trials=st.integers(min_value=1, max_value=10_000),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_coverage(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= hi <= 1.0
        assert lo <= successes / trials <= hi

    @given(
        trials=st.integers(min_value=1, max_value=5_000),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_successes(self, trials, data):
        s = data.draw(st.integers(min_value=0, max_value=trials - 1))
        lo1, hi1 = wilson_interval(s, trials)
        lo2, hi2 = wilson_interval(s + 1, trials)
        assert lo2 >= lo1
        assert hi2 >= hi1


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(shape=(4, 3), samples=0).validated()
        with pytest.raises(ValueError):
            CampaignSpec(shape=(4, 3), samples=5, block_samples=0).validated()
        with pytest.raises(ValueError):
            CampaignSpec(shape=(4, 3), samples=5, rate=0.0).validated()
        with pytest.raises(ConfigError):
            CampaignSpec(shape=(4, 3), samples=5, scheme="hyperx_ft").validated()

    def test_block_grid(self):
        spec = CampaignSpec(shape=(4, 3), samples=1000, block_samples=300)
        assert spec.num_blocks == 4
        assert [spec.block_size(b) for b in range(4)] == [300, 300, 300, 100]
        with pytest.raises(ValueError):
            spec.block_size(4)

    def test_spec_json_round_trip(self):
        spec = CampaignSpec(
            shape=(4, 3), samples=1000, seed=5, rate=2.0, max_faults=4,
            block_samples=128,
        )
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_block_rng_depends_on_block_only(self):
        """The SeedSequence sub-stream is a function of (seed, block):
        the same block draws the same numbers no matter what chunk or
        worker runs it."""
        spec = CampaignSpec(shape=(4, 3), samples=1000, block_samples=100)
        a = spec.block_rng(3).standard_exponential(8)
        b = spec.block_rng(3).standard_exponential(8)
        c = spec.block_rng(4).standard_exponential(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCampaignInvariance:
    SPEC = CampaignSpec(shape=(4, 3), samples=4000, seed=13, block_samples=512)

    def test_serial_chunked_jobs_identical(self):
        serial = run_campaign(self.SPEC, jobs=1)
        par2 = run_campaign(self.SPEC, jobs=2)
        par3 = run_campaign(self.SPEC, jobs=3)
        assert (
            serial.identity_sha256
            == par2.identity_sha256
            == par3.identity_sha256
        )
        assert serial.state == par2.state == par3.state

    def test_resume_is_byte_identical(self):
        one_shot = run_campaign(self.SPEC, jobs=2)
        partial = run_campaign(self.SPEC, jobs=1, until_block=3)
        assert not partial.complete
        resumed = run_campaign(
            self.SPEC, jobs=2, resume=partial.checkpoint()
        )
        assert resumed.complete
        assert resumed.identity_sha256 == one_shot.identity_sha256
        assert resumed.state == one_shot.state

    def test_checkpoint_json_round_trip_resumes(self):
        partial = run_campaign(self.SPEC, jobs=1, until_block=2)
        doc = json.loads(json.dumps(partial.checkpoint().to_dict()))
        resumed = run_campaign(
            self.SPEC, resume=CampaignCheckpoint.from_dict(doc)
        )
        assert resumed.identity_sha256 == run_campaign(self.SPEC).identity_sha256

    def test_resume_rejects_foreign_checkpoint(self):
        other = CampaignSpec(shape=(4, 3), samples=4000, seed=14,
                             block_samples=512)
        ckpt = run_campaign(other, until_block=1).checkpoint()
        with pytest.raises(ValueError):
            run_campaign(self.SPEC, resume=ckpt)

    def test_block_size_changes_the_identity_not_the_validity(self):
        """Chunking (jobs) must not change the estimate; the block grid
        legitimately does -- it decides which sub-stream draws which
        sample -- and the identity hash says so."""
        other = CampaignSpec(shape=(4, 3), samples=4000, seed=13,
                             block_samples=1000)
        a = run_campaign(self.SPEC)
        b = run_campaign(other)
        assert a.identity_sha256 != b.identity_sha256
        # both are estimates of the same quantity
        assert a.estimate().mean == pytest.approx(b.estimate().mean, rel=0.1)

    def test_estimate_against_scalar_loop(self):
        """The kernel and the scalar make_config walker sample the same
        process: at matched sample counts the estimates must agree
        statistically (means within a few joint standard errors)."""
        from tests.analysis.test_reliability import legacy_simulate

        kern = run_campaign(self.SPEC).estimate()
        mean, std_error, survived = legacy_simulate(
            (4, 3), samples=4000, seed=99
        )
        joint = math.hypot(kern.std_error, std_error)
        assert abs(kern.mean - mean) < 5 * joint
        assert abs(kern.mean_faults_survived - survived) < 0.2


class TestKernelGolden:
    """The sample stream against the past, not against itself: every
    value here was recorded before the compact kernel was written.  The
    (16, 16, 8) case walks 65 faults deep with up to 12 faulty crossbars
    in one walk: both of the kernel's growth paths."""

    @pytest.mark.parametrize(
        "golden", GOLDEN["specs"], ids=lambda g: json.dumps(g["spec"])
    )
    def test_identity_and_mean(self, golden):
        result = run_campaign(CampaignSpec(**golden["spec"]), jobs=1)
        assert result.identity_sha256 == golden["identity_sha256"]
        assert result.estimate().mean.hex() == golden["mean_hex"]

    def test_cli_machine_campaign(self, capsys):
        from repro.cli import main

        assert main(GOLDEN["cli"]["argv"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identity_sha256"] == GOLDEN["cli"]["identity_sha256"]
        assert doc["mean_mttf"] == GOLDEN["cli"]["mean_mttf"]


class TestCampaignResult:
    def test_single_sample_std_error_is_nan(self):
        result = run_campaign(CampaignSpec(shape=(4, 3), samples=1))
        est = result.estimate()
        assert est.samples == 1
        assert math.isnan(est.std_error)
        assert result.to_dict()["std_error"] is None

    def test_disconnect_table_tallies_are_consistent(self):
        result = run_campaign(CampaignSpec(shape=(4, 3), samples=2000))
        table = result.disconnect_table()
        assert table[0]["k"] == 1 and table[0]["trials"] == 2000
        assert sum(r["disconnects"] for r in table) <= 2000
        for row in table:
            assert 0.0 <= row["wilson_lo"] <= row["p"] <= row["wilson_hi"] <= 1.0
        # trials at k are the walks that reached k faults
        for prev, cur in zip(table, table[1:]):
            assert cur["trials"] <= prev["trials"]

    def test_ledger_records_campaign_lifecycle(self):
        from repro.obs import SweepLedger, ledger_identity, read_ledger

        ids = []
        for jobs in (1, 2):
            buf = io.StringIO()
            ledger = SweepLedger(sink=buf)
            run_campaign(
                CampaignSpec(shape=(4, 3), samples=1500, block_samples=256),
                jobs=jobs,
                ledger=ledger,
            )
            kinds = [r["kind"] for r in ledger.records]
            assert kinds[0] == "ledger_header"
            assert kinds[1] == "campaign_start"
            assert kinds[-1] == "campaign_end"
            assert kinds.count("campaign_chunk") >= 1
            buf.seek(0)
            _, records, malformed = read_ledger(buf)
            assert not malformed
            ids.append(ledger_identity(records))
        # chunk records are runtime; stripped ledgers are jobs-invariant
        assert ids[0] == ids[1]

    def test_progress_callback_reaches_total(self):
        seen = []
        run_campaign(
            CampaignSpec(shape=(4, 3), samples=1500, block_samples=256),
            jobs=2,
            progress=lambda _r, done, total: seen.append((done, total)),
        )
        assert seen[-1][0] == seen[-1][1]
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_campaign_mttf_estimate_shape(self):
        est = campaign_mttf_estimate((4, 3), samples=500)
        assert est.samples == 500
        assert est.mean > 0
        assert est.std_error > 0
