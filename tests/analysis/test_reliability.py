"""Unit tests for the reliability (MTTF) model."""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.analysis.campaign import campaign_mttf_estimate
from repro.analysis.reliability import (
    mttf_comparison,
    mttf_no_facility,
    mttf_single_fault_facility,
)


class TestAnalytic:
    def test_no_facility(self):
        assert mttf_no_facility(10, rate=1.0) == pytest.approx(0.1)

    def test_rate_scales(self):
        assert mttf_no_facility(10, rate=2.0) == pytest.approx(0.05)

    def test_single_fault_facility_adds_second_gap(self):
        v = mttf_single_fault_facility(10)
        assert v == pytest.approx(0.1 + 1 / 9)

    def test_facility_always_helps(self):
        for n in (5, 19, 100):
            assert mttf_single_fault_facility(n) > mttf_no_facility(n)


class TestMonteCarlo:
    def test_extended_beats_single_fault(self):
        est = campaign_mttf_estimate((4, 3), samples=150, seed=3)
        assert est.mean > mttf_single_fault_facility(19)
        assert est.mean_faults_survived >= 1.0

    def test_reproducible(self):
        a = campaign_mttf_estimate((4, 3), samples=50, seed=5)
        b = campaign_mttf_estimate((4, 3), samples=50, seed=5)
        assert a == b

    def test_max_faults_caps_survival(self):
        est = campaign_mttf_estimate((4, 3), samples=50, seed=7, max_faults=1)
        assert est.mean_faults_survived <= 1.0

    def test_std_error_positive(self):
        est = campaign_mttf_estimate((4, 3), samples=50, seed=9)
        assert est.std_error > 0

    def test_std_error_single_sample_is_nan_without_warning(self):
        """One observation has no spread: explicit NaN, not a
        ddof RuntimeWarning that happens to produce one."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = campaign_mttf_estimate((4, 3), samples=1, seed=9)
        assert math.isnan(est.std_error)
        assert est.samples == 1
        assert est.mean > 0


def legacy_simulate(shape, rate=1.0, samples=200, seed=13, max_faults=None):
    """The pre-campaign implementation, verbatim: one failure order at a
    time, make_config per step, full re-sort of the fault list per step.
    Returns the mean death time, its standard error and the mean number
    of faults survived."""
    from repro.core.config import ConfigError, make_config
    from repro.core.multifault import all_single_faults

    rng = np.random.default_rng(seed)
    singles = all_single_faults(shape)
    n = len(singles)
    cap = max_faults if max_faults is not None else n
    times: List[float] = []
    survived: List[int] = []
    feasibility_cache: Dict[Tuple[int, ...], bool] = {}
    for _ in range(samples):
        order = rng.permutation(n)
        t = 0.0
        alive = n
        faults: List[int] = []
        death: Optional[float] = None
        for step, idx in enumerate(order):
            t += float(rng.exponential(1.0 / (alive * rate)))
            alive -= 1
            faults.append(int(idx))
            key = tuple(sorted(faults))
            feasible = feasibility_cache.get(key)
            if feasible is None:
                try:
                    make_config(shape, faults=tuple(singles[i] for i in key))
                    feasible = True
                except ConfigError:
                    feasible = False
                feasibility_cache[key] = feasible
            if not feasible or len(faults) >= cap:
                death = t
                survived.append(
                    len(faults) - 1 if not feasible else len(faults)
                )
                break
        times.append(death if death is not None else t)
        if death is None:
            survived.append(len(faults))
    arr = np.asarray(times)
    return (
        float(arr.mean()),
        float(arr.std(ddof=1) / np.sqrt(len(arr))),
        float(np.mean(survived)),
    )


class TestLegacyWalker:
    """The campaign engine and the make_config walker sample the same
    process from different streams: at a few thousand samples each the
    estimates agree statistically, the means within 5 joint standard
    errors and the faults survived within 0.2."""

    @pytest.mark.parametrize(
        "shape,kwargs",
        [
            ((4, 3), {"samples": 3000}),
            ((4, 3), {"seed": 5, "samples": 3000}),
            ((3, 2, 2), {"samples": 2000}),
            ((4, 3), {"max_faults": 2, "samples": 2000}),
            ((8, 1), {"samples": 4000, "rate": 2.5}),
        ],
    )
    def test_campaign_agrees(self, shape, kwargs):
        mean, std_error, survived = legacy_simulate(shape, **kwargs)
        est = campaign_mttf_estimate(shape, **kwargs)
        assert abs(est.mean - mean) < 5 * math.hypot(est.std_error, std_error)
        assert abs(est.mean_faults_survived - survived) < 0.2


class TestComparison:
    def test_rows_and_ordering(self):
        cmp = mttf_comparison((4, 3), samples=80, seed=11)
        assert cmp.num_switches == 19
        assert cmp.no_facility < cmp.single_fault < cmp.extended.mean
        rows = cmp.rows()
        assert any("paper facility" in r for r in rows)
        assert any("extended" in r for r in rows)

    def test_campaign_engine(self):
        cmp = mttf_comparison((4, 3), samples=500, seed=11)
        assert cmp.extended == campaign_mttf_estimate((4, 3), samples=500, seed=11)
        assert cmp.no_facility < cmp.single_fault < cmp.extended.mean
