"""Rendered prompts stay byte-identical to the recorded golden files.

The files under `golden_prompts/` were rendered by the earlier
jinja2-template renderer; the stdlib renderer must reproduce them
exactly. Cases: the toy bug under each heuristic, the history-note
branch, and a two-file spec with zero and two failing tests whose
values hold braces, `$`, tabs and form feeds.
"""

from pathlib import Path

import pytest

from histrepair import cli, synth
from histrepair.bugs import BugSpec, FaultLocation, LocalizedLine, load_manifest
from histrepair.config import HEURISTICS, load_campaign
from histrepair.context import (
    FlDiff,
    FnPair,
    FunctionSnapshot,
    HistoricalContext,
    render_prompts,
)
from histrepair.gitio import CallMemo

GOLDEN = Path(__file__).parent / "golden_prompts"

ODD = "braces {{ x }} {y} {% if %} $HOME ${z} tab\there form\x0cfeed"


def _spec(failing_tests: tuple[str, ...]) -> BugSpec:
    return BugSpec(
        bug_id="two-files",
        snapshot_ref="0" * 40,
        locations=(
            FaultLocation("src/a.c", (LocalizedLine(3, "modified"),
                                      LocalizedLine(9, "insertion_point"))),
            FaultLocation("lib/b {x}.c", (LocalizedLine(1, "deleted"),
                                          LocalizedLine(40, "modified"))),
        ),
        failing_tests=failing_tests,
        bug_report=f"Totals are wrong.\n{ODD}\n",
    )


def rendered_cases(tmp_path: Path) -> dict:
    """Case name -> PromptBundle, from the renderer under test."""
    toy = synth.build_toy_campaign(tmp_path / "toy")
    cfg = load_campaign(toy["campaign"])
    (rec,) = load_manifest(cfg.manifest)
    memo = CallMemo()
    cases = {f"toy__{h}": cli.prepare_bundle(cfg, rec, h, memo)[0] for h in HEURISTICS}
    cases["toy__fn_pair_note"] = render_prompts(
        rec.spec, None, repo_path=cli.AGENT_REPO_PATH, sentinel=cfg.sentinel,
        history_note=f"historical context unavailable: calc.py:{toy['buggy_line']}"
                     " is outside any function in both versions",
    )
    diff = HistoricalContext(
        kind="fl_diff", commit_id="a" * 40,
        commit_message=f"Fix totals\n\n{ODD}",
        payload=FlDiff(f"--- a/src/a.c\n+++ b/src/a.c\n@@ -3 +3 @@\n-{ODD}\n+x\n"),
    )
    cases["spec__no_tests"] = render_prompts(
        _spec(()), diff, repo_path="/work/{completion_sentinel}",
        sentinel="DONE_{repo_path}_$1",
    )
    side = FunctionSnapshot("src/a.c", "total", 2, 4, f"int total() {{\n\t{ODD}\n}}")
    pair = HistoricalContext(
        kind="fn_pair", commit_id="b" * 40, commit_message="", truncated=True,
        payload=FnPair(before=None, after=side),
    )
    cases["spec__two_tests"] = render_prompts(
        _spec(("T::{a}", f"T::b {ODD}")), pair, repo_path=".", sentinel="S",
    )
    return cases


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return rendered_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [
    *(f"toy__{h}" for h in HEURISTICS),
    "toy__fn_pair_note", "spec__no_tests", "spec__two_tests",
])
def test_prompts_match_golden_bytes(cases, name):
    bundle = cases[name]
    system = (GOLDEN / f"{name}.system.txt").read_bytes().decode()
    user = (GOLDEN / f"{name}.user.txt").read_bytes().decode()
    assert bundle.system_prompt == system
    assert bundle.user_prompt == user
    assert bundle.token_estimate == (len(system) + len(user)) // 4
