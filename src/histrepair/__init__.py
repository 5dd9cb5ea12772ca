"""History-aware automated program repair toolkit.

Pipeline: mine git blame history for each bug, turn the resolved blame
commit into one of three context heuristics, drive a guarded bash-tool
agent loop against a sandboxed checkout, and aggregate the outcomes
into repair metrics with significance tests.
"""

from .blame import BlameEntry, BlameSummary, summarize_blame
from .bugs import BugSpec, FaultLocation, categorize_bug, load_manifest
from .context import (
    HEURISTICS,
    HistoricalContext,
    PromptBundle,
    build_context,
    render_prompts,
    truncate,
)
from .loop import GuardConfig, RunRecord, parse_action, run
from .metrics import (
    OutcomeRow,
    overlap_regions,
    plausible_at_1,
    tradeoff_frontier,
    unique_pass,
)
from .patches import Patch
from .provider import HttpProvider, PricingTable, ScriptedProvider, accumulate_cost
from .sandbox import ProjectAdapter, provision, run_test, teardown
from .stats import friedman_test, wilcoxon_signed_rank

__version__ = "0.1.0"

__all__ = [
    "BlameEntry",
    "BlameSummary",
    "BugSpec",
    "FaultLocation",
    "GuardConfig",
    "HEURISTICS",
    "HistoricalContext",
    "HttpProvider",
    "OutcomeRow",
    "Patch",
    "PricingTable",
    "ProjectAdapter",
    "PromptBundle",
    "RunRecord",
    "ScriptedProvider",
    "accumulate_cost",
    "build_context",
    "categorize_bug",
    "friedman_test",
    "load_manifest",
    "overlap_regions",
    "parse_action",
    "plausible_at_1",
    "provision",
    "render_prompts",
    "run",
    "run_test",
    "summarize_blame",
    "teardown",
    "tradeoff_frontier",
    "truncate",
    "unique_pass",
    "wilcoxon_signed_rank",
]
