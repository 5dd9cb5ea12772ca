"""History-aware automated program repair toolkit.

Pipeline: mine git blame history for each bug, turn the resolved blame
commit into one of three context heuristics, drive a guarded bash-tool
agent loop against a sandboxed checkout, and aggregate the outcomes
into repair metrics with significance tests.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .blame import BlameEntry, BlameSummary, summarize_blame
    from .bugs import BugSpec, FaultLocation, categorize_bug, load_manifest
    from .config import HEURISTICS, GuardConfig
    from .context import (
        HistoricalContext,
        PromptBundle,
        build_context,
        render_prompts,
        truncate,
    )
    from .loop import RunRecord, parse_action, run
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

# the submodule that defines each public name; a name is imported on
# first access (PEP 562), so importing one layer does not import them all
_EXPORTS = {
    "blame": ("BlameEntry", "BlameSummary", "summarize_blame"),
    "bugs": ("BugSpec", "FaultLocation", "categorize_bug", "load_manifest"),
    "config": ("HEURISTICS", "GuardConfig"),
    "context": ("HistoricalContext", "PromptBundle", "build_context",
                "render_prompts", "truncate"),
    "loop": ("RunRecord", "parse_action", "run"),
    "metrics": ("OutcomeRow", "overlap_regions", "plausible_at_1",
                "tradeoff_frontier", "unique_pass"),
    "patches": ("Patch",),
    "provider": ("HttpProvider", "PricingTable", "ScriptedProvider", "accumulate_cost"),
    "sandbox": ("ProjectAdapter", "provision", "run_test", "teardown"),
    "stats": ("friedman_test", "wilcoxon_signed_rank"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
