"""Self-tests of the campaign benchmark.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import campaign  # noqa: E402
import gate  # noqa: E402
import spantrace  # noqa: E402


@pytest.mark.parametrize("workload", campaign.WORKLOADS)
def test_generator_is_seeded(tmp_path, workload):
    first = campaign.build(workload, 5, tmp_path / "a").truth
    again = campaign.build(workload, 5, tmp_path / "b").truth
    other = campaign.build(workload, 6, tmp_path / "c").truth
    assert first == again
    assert first["heads"] != other["heads"]
    if workload == "history-large":
        assert set(campaign.HOT_SPOTS) <= set(first["bugs"]) & set(other["bugs"])


@pytest.fixture(scope="module")
def traced_repair_many(tmp_path_factory):
    """repair-many run once through cli.main with every layer traced."""
    from histrepair import cli

    root = tmp_path_factory.mktemp("rm")
    camp = campaign.build("repair-many", 7, root / "campaign")
    yaml = str(camp.yaml)
    tracer = spantrace.Tracer()
    spantrace.install(tracer)
    out = io.StringIO()
    try:
        for argv in (["study", "--config", yaml, "--out", str(root / "study")],
                     ["batch", "--config", yaml, "--out", str(root / "batch")],
                     ["report", "--config", yaml, "--records-dir",
                      str(root / "batch" / "records"), "--out", str(root / "report")]):
            tracer.begin_command(argv[0])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                assert cli.main(argv) == 0
    finally:
        tracer.restore()
    return root, camp.truth, tracer, out.getvalue()


def _check(root: Path, truth: dict, stdout: str) -> gate.Gate:
    g = gate.Gate()
    gate.check_study(g, root / "study", truth)
    gate.check_batch(g, root / "batch", stdout, truth)
    gate.check_contexts(g, root / "batch" / "context", truth, truth["bugs"],
                        [c for c in truth["configs"] if c != "non_history"])
    gate.check_report(g, root / "report", truth)
    return g


def test_gate_passes_on_truth_and_fires_on_corruption(traced_repair_many):
    root, truth, _, stdout = traced_repair_many
    clean = _check(root, truth, stdout)
    assert clean.failed == 0, clean.problems
    assert clean.attempted > len(truth["jobs"])

    bad = copy.deepcopy(truth)
    job = next(iter(bad["jobs"]))
    bad["jobs"][job]["termination"] = "Timeout"
    bug = next(iter(bad["bugs"]))
    bad["bugs"][bug]["resolved_commit"] = "0" * 40
    broken = _check(root, bad, stdout)
    assert broken.failed == 2
    assert any(job in p and "termination" in p for p in broken.problems)
    assert any(bug in p and "resolved_commit" in p for p in broken.problems)


def test_per_layer_summary_reports_every_metric(traced_repair_many):
    _, _, tracer, _ = traced_repair_many
    summary = spantrace.per_layer(tracer.spans, tracer.workers)
    named = [name for name, _, _ in spantrace.PER_LAYER]
    assert set(summary) | set(spantrace.IMPORTED) | {"trace.overhead_frac"} == set(named)
    assert summary["gitio.calls"] > 0 and summary["loop.steps"] > 0
    assert summary["stats.friedman.calls"] > 0 and summary["stats.wilcoxon.calls"] > 0
    assert summary["loop.malformed"] > 0 and summary["provider.failures"] > 0

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        spantrace.PER_LAYER)
    import run
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "repair-many",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
