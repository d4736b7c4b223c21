"""E16 (paper Section 6, future work): how far does the facility stretch
beyond one fault?  Exhaustive two-fault tolerance census."""

from repro.core.config import DetourScheme
from repro.core.multifault import fault_pair_census


def test_e16_two_fault_census_2d(benchmark, report):
    def kernel():
        return fault_pair_census((4, 3))

    summary = benchmark.pedantic(kernel, rounds=1, iterations=1)
    lines = [
        "E16 / Section 6 future work: exhaustive two-fault census, 4x3, "
        "generalized rules R1/R2, D-XB = S-XB",
    ]
    lines.extend(summary.rows())
    lines.append(
        "every feasible pair is fully tolerated; the only losses are fault "
        "pairs hitting crossbars of two different dimensions, which no "
        "routing order can put first simultaneously (rule R1)"
    )
    report(*lines)
    assert summary.degraded == 0
    assert summary.tolerated > 0
    assert summary.infeasible > 0
    assert set(summary.infeasible_reasons) == {"R1"} or all(
        k.startswith("R") or "S-XB" in k for k in summary.infeasible_reasons
    )


def test_e16_router_pairs_all_tolerated(benchmark, report):
    def kernel():
        return fault_pair_census((4, 4), kinds="router")

    summary = benchmark.pedantic(kernel, rounds=1, iterations=1)
    report(
        "E16b: all router-fault pairs on 4x4",
        *summary.rows(),
    )
    assert summary.tolerated == summary.total


def test_e16_naive_scheme_pairs_hazardous(benchmark, report):
    def kernel():
        return fault_pair_census(
            (4, 3),
            kinds="router",
            detour_scheme=DetourScheme.NAIVE,
            max_pairs=20,
        )

    summary = benchmark.pedantic(kernel, rounds=1, iterations=1)
    report(
        "E16c: the naive scheme under two router faults (first 20 pairs)",
        *summary.rows(),
    )
    # with broadcasts in the mix the naive scheme stays hazardous
    assert summary.tolerated == 0
