"""System reliability model (paper Sections 1 and 4: "to maintain high
reliability while the system is operational it is very important to avoid
any faults in the network").

Switch lifetimes are modelled as independent exponentials with rate
``rate`` per switch; the machine runs until its accumulated fault set stops
being *operable*:

* **no facility** -- the first network-switch failure stops hardware
  routing (the IBM SP2 situation the paper cites: one faulty switch forces
  software-controlled transmission);
* **paper facility** -- the machine survives any single fault and stops at
  the second;
* **extended facility** -- the multi-fault generalization
  (:mod:`repro.core.multifault`) keeps going while a valid configuration
  exists (rules R1/R2 satisfiable), checked fault by fault.

:func:`mttf_comparison` returns analytic values for the first two and a
Monte-Carlo estimate for the third, as mean time to (operational) failure
in units of ``1/rate``.  The estimate comes from the campaign engine
(:func:`repro.analysis.campaign.campaign_mttf_estimate`), the one sampler
``repro campaign`` and E19 use too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..topology.mdcrossbar import MDCrossbar


def mttf_no_facility(num_switches: int, rate: float = 1.0) -> float:
    """Expected time of the first failure among ``num_switches`` switches."""
    return 1.0 / (num_switches * rate)


def mttf_single_fault_facility(num_switches: int, rate: float = 1.0) -> float:
    """Expected time of the second failure: the paper's facility keeps the
    machine operational through the first."""
    return 1.0 / (num_switches * rate) + 1.0 / ((num_switches - 1) * rate)


@dataclass
class MTTFEstimate:
    mean: float
    std_error: float
    mean_faults_survived: float
    samples: int

    def row(self) -> str:
        return (
            f"MTTF {self.mean:.4f} +/- {self.std_error:.4f} (1/rate units), "
            f"survives {self.mean_faults_survived:.2f} faults on average"
        )


@dataclass
class ReliabilityComparison:
    shape: Tuple[int, ...]
    num_switches: int
    no_facility: float
    single_fault: float
    extended: MTTFEstimate

    def rows(self) -> List[str]:
        base = self.no_facility
        return [
            f"network {self.shape}: {self.num_switches} switches "
            f"(routers + crossbars), unit failure rate per switch",
            f"no facility     : MTTF {self.no_facility:.4f}  (1.00x)",
            f"paper facility  : MTTF {self.single_fault:.4f}  "
            f"({self.single_fault / base:.2f}x)",
            f"extended (multi): {self.extended.row()} "
            f"({self.extended.mean / base:.2f}x)",
        ]


def mttf_comparison(
    shape, samples: int = 200, seed: int = 13
) -> ReliabilityComparison:
    """Analytic + Monte-Carlo MTTF comparison for one network shape."""
    from .campaign import campaign_mttf_estimate

    num_switches = len(MDCrossbar(shape).switch_elements())
    return ReliabilityComparison(
        shape=tuple(shape),
        num_switches=num_switches,
        no_facility=mttf_no_facility(num_switches),
        single_fault=mttf_single_fault_facility(num_switches),
        extended=campaign_mttf_estimate(shape, samples=samples, seed=seed),
    )
