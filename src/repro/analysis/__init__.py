"""Analytic models backing the paper's Section 3.1 claims."""

from .conflicts import (
    ConflictStats,
    measure_conflicts,
    permutation_conflict_comparison,
    random_permutation_pairs,
    summarize_conflicts,
)
from .cost_model import (
    ChannelBudget,
    channel_budget_table,
    crossover_message_size,
    diameter_hops,
    router_ports,
    scaling_series,
)
from .embedding import (
    GUESTS,
    EmbeddingReport,
    check_all_embeddings,
    check_embedding,
    snake_order,
)
from .saturation import (
    SaturationEstimate,
    channel_route_counts,
    estimate_saturation,
    saturation_comparison,
)
from .reliability import (
    MTTFEstimate,
    ReliabilityComparison,
    mttf_comparison,
    mttf_no_facility,
    mttf_single_fault_facility,
)
from .campaign import (
    CampaignCheckpoint,
    CampaignResult,
    CampaignSpec,
    SwitchUniverse,
    campaign_mttf_estimate,
    run_campaign,
    wilson_interval,
)
from .properties import (
    NetworkProfile,
    comparison_table,
    crosspoint_count,
    profile,
    verify_md_crossbar_distances,
)

__all__ = [
    "CampaignCheckpoint",
    "CampaignResult",
    "CampaignSpec",
    "SwitchUniverse",
    "campaign_mttf_estimate",
    "run_campaign",
    "wilson_interval",
    "ChannelBudget",
    "ConflictStats",
    "EmbeddingReport",
    "GUESTS",
    "NetworkProfile",
    "channel_budget_table",
    "check_all_embeddings",
    "check_embedding",
    "comparison_table",
    "crossover_message_size",
    "crosspoint_count",
    "diameter_hops",
    "measure_conflicts",
    "permutation_conflict_comparison",
    "profile",
    "random_permutation_pairs",
    "router_ports",
    "scaling_series",
    "snake_order",
    "summarize_conflicts",
    "verify_md_crossbar_distances",
    "MTTFEstimate",
    "ReliabilityComparison",
    "mttf_comparison",
    "mttf_no_facility",
    "mttf_single_fault_facility",
    "SaturationEstimate",
    "channel_route_counts",
    "estimate_saturation",
    "saturation_comparison",
]
