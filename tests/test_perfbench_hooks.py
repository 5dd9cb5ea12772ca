"""The benchmark's tracer still finds every name it wraps, and puts each back.

`perfbench/spantrace.py` replaces package functions at the names their
callers look up. A rename or deletion of one of them should fail here,
not only in a traced benchmark run.
"""

import importlib.util
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (binds the lazy name)
from pathlib import Path

from histrepair import blame, cli, context, gitio, loop, metrics, sandbox, spans, synth

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"

HOOKED = (blame, cli, context, gitio, loop, metrics, sandbox, spans, futures)


def _spantrace():
    spec = importlib.util.spec_from_file_location("spantrace_under_test", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    spantrace = _spantrace()
    before = [dict(vars(module)) for module in HOOKED]
    tracer = spantrace.Tracer()
    try:
        spantrace.install(tracer)
        for owner, attr in ((blame, "most_recent_judge_factory"),
                            (blame, "summarize_blame"),
                            (cli, "prepare_bundle"),
                            (cli, "run_one_job"),
                            (loop, "write_run_record"),
                            (gitio, "subprocess"),
                            (futures, "ThreadPoolExecutor")):
            assert getattr(owner, attr) is not before[HOOKED.index(owner)][attr], attr
    finally:
        tracer.restore()
    for module, original in zip(HOOKED, before):
        assert vars(module) == original, module.__name__


def test_tracer_sees_the_calls_cli_makes_itself(toy_campaign, tmp_path):
    # cli defers its bugs, context and patches names; it must still call
    # them through the attributes the tracer wraps
    cfg = str(toy_campaign["campaign"])
    assert cli.main(["repair", "--config", cfg, "--bug", synth.TOY_BUG_ID,
                     "--heuristic", "non_history"]) == 0
    spantrace = _spantrace()
    tracer = spantrace.Tracer()
    try:
        spantrace.install(tracer)
        assert cli.main(["context", "--config", cfg, "--bug", synth.TOY_BUG_ID,
                         "--heuristic", "fl_diff", "--out", str(tmp_path / "context")]) == 0
        assert cli.main(["report", "--config", cfg, "--records-dir",
                         str(toy_campaign["root"] / "out" / "records"),
                         "--out", str(tmp_path / "report")]) == 0
    finally:
        tracer.restore()
    names = {span["name"] for span in tracer.spans}
    assert {"context.build_context", "context.render_prompts", "bugs.load_manifest",
            "patches.parse_unified_diff"} <= names
