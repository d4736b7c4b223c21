"""E19 (paper Sections 1/4/6): what the facility buys in system
reliability -- MTTF without the facility, with the paper's single-fault
facility, and with the multi-fault extension.

The extended column comes from the campaign engine
(:mod:`repro.analysis.campaign`), the repo's one MTTF estimator: the
``repro campaign`` CLI and the ``campaign_mttf`` sysbench workload use
it too."""

from repro.analysis import mttf_comparison


def test_e19_mttf_comparison(benchmark, report):
    def kernel():
        return {
            shape: mttf_comparison(shape, samples=150, seed=13)
            for shape in [(4, 3), (4, 4)]
        }

    out = benchmark.pedantic(kernel, rounds=1, iterations=1)
    lines = ["E19 / Sections 1, 4, 6: network MTTF (unit per-switch rate)"]
    for shape, cmp in out.items():
        lines.extend(cmp.rows())
        lines.append("")
    report(*lines)
    for cmp in out.values():
        assert cmp.no_facility < cmp.single_fault < cmp.extended.mean
        # the paper's facility roughly doubles MTTF (survive one fault);
        # the extension multiplies it further
        assert cmp.single_fault / cmp.no_facility > 1.9
        assert cmp.extended.mean / cmp.no_facility > 3.0
