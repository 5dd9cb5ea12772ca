"""End-to-end CLI behavior on the bundled toy campaign."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import histrepair
from histrepair import cli, synth
from histrepair.cli import main

BUG = synth.TOY_BUG_ID


def invoke(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- study ------------------------------------------------------------------

def test_study_runs_and_writes_outputs(toy_campaign, capsys):
    cfg = str(toy_campaign["campaign"])
    code, out, _ = invoke("study", "--config", cfg, capsys=capsys)
    assert code == 0
    assert "SL" in out and "100.0" in out
    study_dir = toy_campaign["root"] / "out" / "study"
    assert (study_dir / "availability.txt").exists()
    assert (study_dir / "availability_records.jsonl").exists()
    assert (study_dir / "effective_config.json").exists()


def test_study_exits_3_when_too_many_exclusions(toy_campaign, capsys, tmp_path):
    # strip the fix patch reference: the only bug becomes unclassifiable
    manifest = toy_campaign["manifest"]
    row = json.loads(manifest.read_text())
    del row["fix_patch_path"]
    bad_manifest = toy_campaign["root"] / "manifest_nofix.jsonl"
    bad_manifest.write_text(json.dumps(row) + "\n")
    cfg_text = toy_campaign["campaign"].read_text().replace(
        "manifest: manifest.jsonl", "manifest: manifest_nofix.jsonl",
    )
    cfg = toy_campaign["root"] / "campaign_nofix.yaml"
    cfg.write_text(cfg_text)
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 3
    assert "excluded" in err


# --- context ----------------------------------------------------------------

def test_context_writes_prompts_and_payload(toy_campaign, capsys):
    cfg = str(toy_campaign["campaign"])
    code, out, _ = invoke(
        "context", "--config", cfg, "--bug", BUG, "--heuristic", "fl_diff",
        capsys=capsys,
    )
    assert code == 0
    assert out.startswith("token estimate:")
    ctx_dir = toy_campaign["root"] / "out" / "context"
    system_text = (ctx_dir / f"{BUG}__fl_diff.system.txt").read_text()
    user_text = (ctx_dir / f"{BUG}__fl_diff.user.txt").read_text()
    payload = json.loads((ctx_dir / f"{BUG}__fl_diff.context.json").read_text())
    assert "# Historical Context" in user_text
    assert "fast path" in user_text            # the buggy commit's diff
    assert payload["kind"] == "fl_diff"
    assert "fast path" in payload["payload"]["diff_text"]
    assert "Historical Context Available" in system_text
    assert "COMPLETE_REPAIR_SIGNAL" in system_text


def test_context_non_history_writes_no_payload(toy_campaign, capsys):
    cfg = str(toy_campaign["campaign"])
    code, _, _ = invoke(
        "context", "--config", cfg, "--bug", BUG,
        "--heuristic", "non_history", capsys=capsys,
    )
    assert code == 0
    ctx_dir = toy_campaign["root"] / "out" / "context"
    assert (ctx_dir / f"{BUG}__non_history.user.txt").exists()
    assert not (ctx_dir / f"{BUG}__non_history.context.json").exists()


def test_context_unknown_bug_exits_3(toy_campaign, capsys):
    code, _, err = invoke(
        "context", "--config", str(toy_campaign["campaign"]),
        "--bug", "no-such-bug", "--heuristic", "fl_diff", capsys=capsys,
    )
    assert code == 3
    assert "not in the manifest" in err


def test_context_unknown_heuristic_is_a_usage_error(toy_campaign):
    with pytest.raises(SystemExit) as exc:
        main(["context", "--config", str(toy_campaign["campaign"]),
              "--bug", BUG, "--heuristic", "psychic"])
    assert exc.value.code == 2


# --- repair -----------------------------------------------------------------

def test_repair_scripted_success(toy_campaign, capsys):
    cfg = str(toy_campaign["campaign"])
    code, out, _ = invoke(
        "repair", "--config", cfg, "--bug", BUG, "--heuristic", "fn_all",
        capsys=capsys,
    )
    assert code == 0
    record_path = toy_campaign["root"] / "out" / "records" / f"{BUG}__fn_all.jsonl"
    assert str(record_path) in out
    rows = [json.loads(x) for x in record_path.read_text().splitlines()]
    assert rows[-1]["termination"] == "CompletedSignal"
    assert rows[-1]["tests_passed_at_end"] is True
    # artifacts persisted by teardown
    art = toy_campaign["root"] / "out" / "artifacts" / f"{BUG}__fn_all"
    assert (art / f"{BUG}.patch").read_text().count("return a + b") == 1
    assert (art / f"{BUG}.commands.log").exists()


def _script_repair(toy_campaign, monkeypatch, tmp_path, *commands):
    """Point the non_history script at `commands` and sandboxes at a fresh tempdir."""
    script = toy_campaign["scripts"] / f"{BUG}__non_history.jsonl"
    script.write_text("".join(json.dumps(
        {"text": f"```bash\n{c}\n```", "input_tokens": 5, "output_tokens": 1},
    ) + "\n" for c in commands))
    sandboxes = tmp_path / "sandboxes"
    sandboxes.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(sandboxes))
    return sandboxes


@pytest.mark.parametrize("damage", [
    "rm -rf .git",
    "printf '# caf\\xe9\\n' >> calc.py",
], ids=["git-dir-removed", "latin1-byte"])
def test_repair_whose_patch_cannot_be_taken_records_no_pass(
        toy_campaign, capsys, monkeypatch, tmp_path, damage):
    sandboxes = _script_repair(
        toy_campaign, monkeypatch, tmp_path,
        "sed -i 's/return a - b  # fast path/return a + b/' calc.py", damage,
    )
    code, out, err = invoke(
        "repair", "--config", str(toy_campaign["campaign"]),
        "--bug", BUG, "--heuristic", "non_history", capsys=capsys,
    )
    assert code == 4, err
    result = json.loads(Path(out.strip()).read_text().splitlines()[-1])
    assert result["final_patch"] == ""
    assert result["tests_passed_at_end"] is False
    art = toy_campaign["root"] / "out" / "artifacts" / f"{BUG}__non_history"
    assert (art / f"{BUG}.patch").read_text() == ""
    assert not list(sandboxes.glob("histrepair-*"))


def test_repair_takes_the_final_patch_once(toy_campaign, capsys, monkeypatch):
    from histrepair import gitio

    diffs = []
    real = gitio.run_git

    def spy(repo, *args, **kwargs):
        if args[:2] == ("diff", "HEAD"):
            diffs.append(repo)
        return real(repo, *args, **kwargs)

    monkeypatch.setattr(gitio, "run_git", spy)
    code, _, _ = invoke(
        "repair", "--config", str(toy_campaign["campaign"]),
        "--bug", BUG, "--heuristic", "non_history", capsys=capsys,
    )
    assert code == 0
    assert len(diffs) == 1
    art = toy_campaign["root"] / "out" / "artifacts" / f"{BUG}__non_history"
    record = toy_campaign["root"] / "out" / "records" / f"{BUG}__non_history.jsonl"
    result = json.loads(record.read_text().splitlines()[-1])
    assert (art / f"{BUG}.patch").read_text() == result["final_patch"]


def test_repair_failed_run_exits_4(toy_campaign, capsys):
    # replies that never fix the bug: provider exhausts, tests still fail
    script = toy_campaign["scripts"] / f"{BUG}__non_history.jsonl"
    script.write_text(json.dumps(
        {"text": "```bash\nls\n```", "input_tokens": 5, "output_tokens": 1},
    ) + "\n")
    code, _, err = invoke(
        "repair", "--config", str(toy_campaign["campaign"]),
        "--bug", BUG, "--heuristic", "non_history", capsys=capsys,
    )
    assert code == 4
    assert "run terminated: ProviderError" in err


def test_repair_heuristic_outside_campaign_exits_2(toy_campaign, tmp_path, capsys):
    cfg_text = toy_campaign["campaign"].read_text().replace(
        "configs: [non_history, fn_all, fn_pair, fl_diff]",
        "configs: [non_history]",
    )
    cfg = toy_campaign["root"] / "campaign_narrow.yaml"
    cfg.write_text(cfg_text)
    code, _, err = invoke(
        "repair", "--config", str(cfg), "--bug", BUG,
        "--heuristic", "fl_diff", capsys=capsys,
    )
    assert code == 2
    assert "not among campaign configs" in err


# --- batch and resume -------------------------------------------------------

def test_batch_runs_all_then_resumes(toy_campaign, capsys):
    cfg = str(toy_campaign["campaign"])
    code, out, _ = invoke("batch", "--config", cfg, capsys=capsys)
    assert code == 0
    assert "4 run, 0 skipped" in out
    records_dir = toy_campaign["root"] / "out" / "records"
    assert len(list(records_dir.glob("*.jsonl"))) == 4
    assert (toy_campaign["root"] / "out" / "effective_config.json").exists()

    # complete records are skipped wholesale
    code, out, _ = invoke("batch", "--config", cfg, capsys=capsys)
    assert code == 0
    assert "0 run, 4 skipped" in out

    # a record without its result line is incomplete: rerun exactly it
    victim = records_dir / f"{BUG}__fn_pair.jsonl"
    lines = victim.read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "result"
    victim.write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = invoke("batch", "--config", cfg, capsys=capsys)
    assert code == 0
    assert "1 run, 3 skipped" in out
    restored = [json.loads(x) for x in victim.read_text().splitlines()]
    assert restored[-1]["type"] == "result"


def test_batch_continues_past_failing_jobs(toy_campaign, capsys):
    # one config has no scripted replies at all: that job fails, rest run
    (toy_campaign["scripts"] / f"{BUG}__fn_all.jsonl").unlink()
    code, out, err = invoke(
        "batch", "--config", str(toy_campaign["campaign"]), capsys=capsys,
    )
    assert code == 0
    assert "1 failed" in out
    assert "fn_all" in err
    records_dir = toy_campaign["root"] / "out" / "records"
    assert len(list(records_dir.glob("*.jsonl"))) == 3


def test_batch_prints_progress_in_completion_order(toy_campaign, capsys, monkeypatch):
    # the first-submitted job may only finish once every other job's
    # progress line is out, so it must be printed last
    first = "non_history"
    others_printed = threading.Event()
    lines: list[str] = []

    def fake_job(cfg, rec, heuristic):
        if heuristic == first:
            others_printed.wait(timeout=10)
        return SimpleNamespace(termination="CompletedSignal")

    def spy_print(*args, **kwargs):
        print(*args, **kwargs)
        if args and str(args[0]).startswith("["):
            lines.append(str(args[0]))
            if len(lines) == 3:
                others_printed.set()

    monkeypatch.setattr(cli, "run_one_job", fake_job)
    monkeypatch.setattr(cli, "print", spy_print, raising=False)
    code, out, _ = invoke("batch", "--config", str(toy_campaign["campaign"]),
                          "--workers", "2", capsys=capsys)
    assert code == 0
    assert lines[-1] == f"[4/4] {BUG} {first}: CompletedSignal"
    assert [line.split("]")[0] for line in lines] == ["[1/4", "[2/4", "[3/4", "[4/4"]


# --- report -----------------------------------------------------------------

def test_report_after_batch(toy_campaign, capsys):
    cfg = str(toy_campaign["campaign"])
    assert invoke("batch", "--config", cfg)[0] == 0
    capsys.readouterr()
    code, out, _ = invoke("report", "--config", cfg, capsys=capsys)
    assert code == 0
    assert "Overall:" in out
    assert "100.0" in out
    report_dir = toy_campaign["root"] / "out" / "report"
    for name in ("metrics_table.txt", "overlap_regions.json",
                 "tradeoff_points.json", "significance.txt",
                 "significance.json", "effective_config.json"):
        assert (report_dir / name).exists(), name
    overlap = json.loads((report_dir / "overlap_regions.json").read_text())
    assert overlap["non_history+fn_all+fn_pair+fl_diff"] == 1
    frontier = json.loads((report_dir / "tradeoff_points.json").read_text())
    assert len(frontier) == 15
    assert all(p["success_rate"] == 1.0 for p in frontier)


def test_report_without_records_exits_3(toy_campaign, capsys):
    code, _, err = invoke(
        "report", "--config", str(toy_campaign["campaign"]), capsys=capsys,
    )
    assert code == 3
    assert "no run records" in err


# --- configuration errors ---------------------------------------------------

def test_missing_config_file_exits_2(capsys):
    code, _, err = invoke("study", "--config", "/nonexistent/campaign.yaml",
                          capsys=capsys)
    assert code == 2
    assert "not found" in err


def test_invalid_yaml_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("manifest: [unclosed\n")
    code, _, err = invoke("study", "--config", str(bad), capsys=capsys)
    assert code == 2
    assert "invalid YAML" in err


@pytest.mark.parametrize("typo, key", [
    ("guards:", "guard"),
    ("  max_steps:", "guards.max_step"),
    ("  scripts_dir:", "provider.script_dir"),
])
def test_unknown_config_key_exits_2_and_names_it(toy_campaign, capsys, typo, key):
    text = toy_campaign["campaign"].read_text()
    assert typo in text
    bad_key = key.rsplit(".", 1)[-1]
    indent = "  " if "." in key else ""
    cfg = toy_campaign["root"] / "campaign_typo.yaml"
    cfg.write_text(text.replace(typo, f"{indent}{bad_key}:", 1))
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert f"unknown key {key!r}" in err


def test_unknown_budget_key_exits_2(toy_campaign, capsys):
    cfg = toy_campaign["root"] / "campaign_budget.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text() + "budgets:\n  fl_dif: 100\n")
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "unknown key 'budgets.fl_dif'" in err


@pytest.mark.parametrize("section", ["guards", "provider", "budgets"])
@pytest.mark.parametrize("value", [5, None])
def test_map_key_holding_a_scalar_exits_2_and_names_it(toy_campaign, capsys,
                                                      section, value):
    raw = yaml.safe_load(toy_campaign["campaign"].read_text())
    raw[section] = value
    cfg = toy_campaign["root"] / "campaign_scalar.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert f"key {section!r}" in err and "must hold a mapping" in err


def test_template_dir_key_exits_2(toy_campaign, capsys):
    # the prompts are fixed package text; the old key is a typo like any other
    cfg = toy_campaign["root"] / "campaign_templates.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text() + "template_dir: templates\n")
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "unknown key 'template_dir'" in err


@pytest.mark.parametrize("old, new, message", [
    ("adapter: local-python", "adapter: local-pyhton", "unknown adapter 'local-pyhton'"),
    ("backend: local", "backend: container", "run histrepair itself inside"),
    ("backend: local", "backend: vm", "'local' is the only sandbox backend"),
    ("mode: scripted", "mode: scriptd",
     "unknown provider mode 'scriptd'; known: http, scripted"),
    ("language: python", "language: pyhton",
     "unknown language 'pyhton'; known: c_family, python"),
    ("model: scripted-model", "model: other-model",
     "no pricing for model 'other-model'"),
    ('      output_per_million: "0.42"\n', "",
     "provider.pricing.scripted-model needs output_per_million"),
    ('input_per_million: "0.28"', 'input_per_million: "0.2x"',
     "provider.pricing.scripted-model.input_per_million must be a finite"
     " non-negative number, got '0.2x'"),
    ('output_per_million: "0.42"', "output_per_million: -0.42",
     "provider.pricing.scripted-model.output_per_million must be a finite"
     " non-negative number, got -0.42"),
    ('input_per_million: "0.28"', "input_per_million: .inf",
     "provider.pricing.scripted-model.input_per_million must be a finite"
     " non-negative number, got inf"),
    ('max_cost: "1.00"', 'max_cost: "1.0o"',
     "guards.max_cost must be a finite non-negative number, got '1.0o'"),
    # counts take only integers: no fraction, bool or string is rounded
    ("max_steps: 50", "max_steps: 2.7", "guards.max_steps must be an integer, got 2.7"),
    ("max_steps: 50", "max_steps: true", "guards.max_steps must be an integer, got True"),
    ("max_steps: 50", 'max_steps: "50"', "guards.max_steps must be an integer, got '50'"),
    ("workers: 1", "workers: true", "workers must be an integer, got True"),
    ("workers: 1", "workers: 1.0", "workers must be an integer, got 1.0"),
    ("guards:\n", "budgets:\n  fn_all: 1500.9\nguards:\n",
     "budgets.fn_all must be an integer, got 1500.9"),
    # a NaN limit would pass every `<= 0` check and never fire
    ("max_wall_time: 3600", "max_wall_time: .nan",
     "guards.max_wall_time must be a finite number, got nan"),
    ("max_wall_time: 3600", "max_wall_time: .inf",
     "guards.max_wall_time must be a finite number, got inf"),
    ("per_command_timeout: 60", "per_command_timeout: .nan",
     "guards.per_command_timeout must be a finite number, got nan"),
    ("per_command_timeout: 60", "per_command_timeout: true",
     "guards.per_command_timeout must be a finite number, got True"),
    ("per_command_timeout: 60", 'per_command_timeout: "60"',
     "guards.per_command_timeout must be a finite number, got '60'"),
], ids=["adapter-typo", "backend-container", "backend-vm", "provider-mode-typo",
        "language-typo", "model-unpriced", "rate-missing", "rate-not-a-number",
        "rate-negative", "rate-infinite", "max-cost-not-a-number",
        "max-steps-fraction", "max-steps-bool", "max-steps-string", "workers-bool",
        "workers-fraction", "budget-fraction", "max-wall-time-nan",
        "max-wall-time-infinite", "command-timeout-nan", "command-timeout-bool",
        "command-timeout-string"])
def test_unknown_adapter_or_backend_exits_2_before_any_job(toy_campaign, capsys,
                                                           old, new, message):
    text = toy_campaign["campaign"].read_text()
    assert old in text
    cfg = toy_campaign["root"] / "campaign_sandbox.yaml"
    cfg.write_text(text.replace(old, new))
    code, _, err = invoke("batch", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert message in err
    assert not (toy_campaign["root"] / "out" / "records").exists()


def test_zero_workers_flag_exits_2_before_any_job(toy_campaign, capsys):
    code, _, err = invoke("batch", "--config", str(toy_campaign["campaign"]),
                          "--workers", "0", capsys=capsys)
    assert code == 2
    assert "worker count must be >= 1" in err
    assert not (toy_campaign["root"] / "out" / "records").exists()


def test_campaign_without_manifest_exits_2(toy_campaign, capsys):
    text = toy_campaign["campaign"].read_text()
    assert "manifest: manifest.jsonl\n" in text
    cfg = toy_campaign["root"] / "campaign_nomanifest.yaml"
    cfg.write_text(text.replace("manifest: manifest.jsonl\n", ""))
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "names no manifest" in err
    assert "Traceback" not in err


def test_zero_budget_exits_2_before_any_job(toy_campaign, capsys):
    cfg = toy_campaign["root"] / "campaign_budget.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text() + "budgets:\n  fl_diff: 0\n")
    code, _, err = invoke("batch", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "context budgets must be positive: ['fl_diff']" in err
    assert not (toy_campaign["root"] / "out" / "records").exists()


def test_empty_manifest_exits_2(toy_campaign, capsys):
    (toy_campaign["root"] / "empty.jsonl").write_text("")
    cfg_text = toy_campaign["campaign"].read_text().replace(
        "manifest: manifest.jsonl", "manifest: empty.jsonl",
    )
    cfg = toy_campaign["root"] / "campaign_empty.yaml"
    cfg.write_text(cfg_text)
    code, _, err = invoke("study", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "manifest is empty" in err


def test_out_override_wins(toy_campaign, tmp_path, capsys):
    other = tmp_path / "elsewhere"
    code, _, _ = invoke(
        "study", "--config", str(toy_campaign["campaign"]),
        "--out", str(other), capsys=capsys,
    )
    assert code == 0
    assert (other / "availability.txt").exists()
    assert not (toy_campaign["root"] / "out" / "study").exists()


def test_frozen_config_is_valid_json(toy_campaign, capsys):
    invoke("study", "--config", str(toy_campaign["campaign"]), capsys=capsys)
    frozen = json.loads(
        (toy_campaign["root"] / "out" / "study" / "effective_config.json")
        .read_text()
    )
    assert frozen["configs"] == ["non_history", "fn_all", "fn_pair", "fl_diff"]
    assert frozen["guards"]["max_steps"] == 50
    assert frozen["provider"]["mode"] == "scripted"


# --- cold start -------------------------------------------------------------

def _modules_loaded_after(code: str, watched: tuple[str, ...]) -> list[str]:
    """Which of `watched` a fresh interpreter holds after running `code`."""
    src = str(Path(histrepair.__file__).resolve().parents[1])
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps(sorted(m for m in {watched!r} if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_heavy_modules_unloaded(toy_campaign):
    # scipy, numpy and requests cost over a second of every cold CLI call
    assert _modules_loaded_after("import histrepair.cli",
                                 ("numpy", "requests", "scipy")) == []
    # loading a campaign needs none of the prompt, loop or report layers
    cfg = str(toy_campaign["campaign"])
    layers = ("jinja2", "histrepair.loop", "histrepair.provider",
              "histrepair.sandbox", "histrepair.metrics", "histrepair.stats")
    assert _modules_loaded_after(
        f"from histrepair import cli\ncli.load_campaign({cfg!r})", layers) == []
    # prompts render with the stdlib, so no command loads a template engine
    for command, *args in (["study"], ["context", "--bug", BUG, "--heuristic", "fn_pair"],
                           ["batch"], ["report"]):
        argv = [command, "--config", cfg, *args]
        assert _modules_loaded_after(
            f"from histrepair import cli\nassert cli.main({argv!r}) == 0",
            ("jinja2",)) == [], command
