"""Rendered prompts and JSON outputs stay byte-identical to recorded golden files.

The files under `golden_prompts/` were rendered by the earlier
jinja2-template renderer; the stdlib renderer must reproduce them
exactly. Cases: the toy bug under each heuristic, the history-note
branch, and a two-file spec with zero and two failing tests whose
values hold braces, `$`, tabs and form feeds.

The files under `golden_json/` were written when the package's records
were dataclasses: the context sidecar of each case that carries a
context, and the toy study's records file and frozen config, whose temp
root reads `<root>`. JSON writers must keep every field name and order.
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
    save_context,
)
from histrepair.gitio import CallMemo

GOLDEN = Path(__file__).parent / "golden_prompts"
GOLDEN_JSON = Path(__file__).parent / "golden_json"

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
    """Case name -> (PromptBundle, context or None), from the code under test."""
    toy = synth.build_toy_campaign(tmp_path / "toy")
    cfg = load_campaign(toy["campaign"])
    (rec,) = load_manifest(cfg.manifest)
    memo = CallMemo()
    cases = {f"toy__{h}": cli.prepare_bundle(cfg, rec, h, memo) for h in HEURISTICS}
    cases["toy__fn_pair_note"] = render_prompts(
        rec.spec, None, repo_path=cli.AGENT_REPO_PATH, sentinel=cfg.sentinel,
        history_note=f"historical context unavailable: calc.py:{toy['buggy_line']}"
                     " is outside any function in both versions",
    ), None
    diff = HistoricalContext(
        kind="fl_diff", commit_id="a" * 40,
        commit_message=f"Fix totals\n\n{ODD}",
        payload=FlDiff(f"--- a/src/a.c\n+++ b/src/a.c\n@@ -3 +3 @@\n-{ODD}\n+x\n"),
    )
    cases["spec__no_tests"] = render_prompts(
        _spec(()), diff, repo_path="/work/{completion_sentinel}",
        sentinel="DONE_{repo_path}_$1",
    ), diff
    side = FunctionSnapshot("src/a.c", "total", 2, 4, f"int total() {{\n\t{ODD}\n}}")
    pair = HistoricalContext(
        kind="fn_pair", commit_id="b" * 40, commit_message="", truncated=True,
        payload=FnPair(before=None, after=side),
    )
    cases["spec__two_tests"] = render_prompts(
        _spec(("T::{a}", f"T::b {ODD}")), pair, repo_path=".", sentinel="S",
    ), pair
    return cases


def json_outputs(tmp_path: Path) -> dict:
    """Golden file name -> text each JSON writer gives on the golden cases."""
    outputs = {}
    for name, (_, ctx) in rendered_cases(tmp_path).items():
        if ctx is not None:
            path = tmp_path / f"{name}.context.json"
            save_context(ctx, path)
            outputs[path.name] = path.read_text()
    study = tmp_path / "study"
    assert cli.main(["study", "--config", str(tmp_path / "toy" / "campaign.yaml"),
                     "--out", str(study)]) == 0
    for name in ("availability_records.jsonl", "effective_config.json"):
        text = (study / name).read_text()
        outputs[f"toy__{name}"] = text.replace(str(tmp_path.resolve()), "<root>")
    return outputs


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return rendered_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [
    *(f"toy__{h}" for h in HEURISTICS),
    "toy__fn_pair_note", "spec__no_tests", "spec__two_tests",
])
def test_prompts_match_golden_bytes(cases, name):
    bundle, _ = cases[name]
    system = (GOLDEN / f"{name}.system.txt").read_bytes().decode()
    user = (GOLDEN / f"{name}.user.txt").read_bytes().decode()
    assert bundle.system_prompt == system
    assert bundle.user_prompt == user
    assert bundle.token_estimate == (len(system) + len(user)) // 4


def test_json_outputs_match_golden_bytes(tmp_path):
    outputs = json_outputs(tmp_path)
    assert sorted(outputs) == sorted(path.name for path in GOLDEN_JSON.iterdir())
    for name, text in outputs.items():
        assert text == (GOLDEN_JSON / name).read_bytes().decode(), name
