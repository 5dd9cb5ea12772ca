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
from histrepair import cli, gitio, records, synth
from histrepair.cli import main
from histrepair.errors import ProvisionError

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


def test_context_fn_pair_on_the_add_commit_of_a_renamed_file_gets_the_notice(
        toy_campaign, capsys):
    # nothing above the insertion is executable, so blame anchors on the
    # commit that added the file, which named it old.c
    root = toy_campaign["root"]
    repo = synth.init_repo(root / "renamed")
    (repo / "old.c").write_text("// counter\nint count(int n) {\n    return n;\n}\n")
    synth.commit_all(repo, "add counter", 0)
    (repo / "old.c").rename(repo / "new.c")
    snapshot = synth.commit_all(repo, "rename counter", 1)
    (root / "manifest_renamed.jsonl").write_text(json.dumps({
        "bug_id": "renamed-001", "repo_path": "renamed", "snapshot_ref": snapshot,
        "locations": [{"file": "new.c", "lines": [{"line": 1, "kind": "insertion_point"}]}],
        "failing_tests": ["test_count"], "bug_report_path": "bug_report.txt",
    }) + "\n")
    cfg = root / "campaign_renamed.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text().replace(
        "manifest: manifest.jsonl", "manifest: manifest_renamed.jsonl"))
    code, _, err = invoke("context", "--config", str(cfg), "--bug", "renamed-001",
                          "--heuristic", "fn_pair", capsys=capsys)
    assert (code, err) == (0, "")
    user = (root / "out" / "context" / "renamed-001__fn_pair.user.txt").read_text()
    assert "# Historical Context\nhistorical context unavailable: new.c is not in" in user


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
        if args[:2] == ("diff", "--binary"):
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


def test_repair_with_a_negative_scripted_token_count_exits_2_before_any_sandbox(
        toy_campaign, capsys, monkeypatch):
    # billed, the reply would make the run's cost negative, so the cost
    # guard could never fire
    script = toy_campaign["scripts"] / f"{BUG}__non_history.jsonl"
    lines = script.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "input_tokens": -5000000})
    script.write_text("\n".join(lines) + "\n")
    provisions = []
    monkeypatch.setattr("histrepair.sandbox.provision",
                        lambda *args, **kwargs: provisions.append(args))
    code, _, err = invoke("repair", "--config", str(toy_campaign["campaign"]),
                          "--bug", BUG, "--heuristic", "non_history", capsys=capsys)
    assert code == 2 and f"{script}:2: bad scripted reply" in err, err
    assert provisions == []


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
    assert code == 3
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

    def fake_job(cfg, rec, heuristic, verdicts):
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


def test_batch_exits_3_when_a_job_failed_and_reruns_it(toy_campaign, capsys, monkeypatch):
    from histrepair import sandbox as sb

    real = sb.provision
    calls = []

    def provision_once_broken(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise ProvisionError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(sb, "provision", provision_once_broken)
    cfg = str(toy_campaign["campaign"])
    code, out, err = invoke("batch", "--config", cfg, capsys=capsys)
    assert code == 3
    assert "FAILED ProvisionError: disk full" in out
    assert "4 run, 0 skipped (already complete), 1 failed" in out
    records_dir = toy_campaign["root"] / "out" / "records"
    assert len(list(records_dir.glob("*.jsonl"))) == 3
    # the next batch runs exactly the failed job
    code, out, _ = invoke("batch", "--config", cfg, capsys=capsys)
    assert code == 0
    assert "1 run, 3 skipped" in out


@pytest.mark.parametrize("damage", [
    lambda data: data[data.index(b"\n") + 1:],   # no meta line: the record names no bug
    lambda data: data[:-60] + b"\xff" + data[-60:],
], ids=["no-meta-line", "not-utf-8"])
def test_batch_reruns_a_record_that_report_refuses(toy_campaign, capsys, damage):
    cfg = str(toy_campaign["campaign"])
    assert invoke("batch", "--config", cfg)[0] == 0
    record = toy_campaign["root"] / "out" / "records" / f"{BUG}__fn_all.jsonl"
    intact = records.comparable_record_lines(record)
    record.write_bytes(damage(record.read_bytes()))
    capsys.readouterr()
    assert invoke("report", "--config", cfg, capsys=capsys)[0] == 3
    code, out, _ = invoke("batch", "--config", cfg, capsys=capsys)
    assert code == 0
    assert f"[1/1] {BUG} fn_all: " in out and "1 run, 3 skipped" in out
    assert records.comparable_record_lines(record) == intact
    assert invoke("report", "--config", cfg, capsys=capsys)[0] == 0


def _spy_blame(monkeypatch, fail=False):
    """Record the bug of every blame; with `fail`, every blame raises."""
    from histrepair import blame

    seen = []
    real = blame.summarize_blame

    def spy(repo, spec, *args, **kwargs):
        seen.append(spec.bug_id)
        if fail:
            raise RuntimeError("blame broke")
        return real(repo, spec, *args, **kwargs)

    monkeypatch.setattr(blame, "summarize_blame", spy)
    return seen


def test_batch_blames_each_bug_once_for_all_history_configs(toy_campaign, capsys,
                                                            monkeypatch):
    blamed = _spy_blame(monkeypatch)
    code, out, _ = invoke("batch", "--config", str(toy_campaign["campaign"]),
                          "--workers", "2", capsys=capsys)
    assert code == 0
    assert "4 run, 0 skipped" in out
    assert blamed == [BUG]


def test_each_batch_call_blames_again(toy_campaign, capsys, monkeypatch):
    blamed = _spy_blame(monkeypatch)
    cfg = str(toy_campaign["campaign"])
    counts = []
    for name in ("first", "second"):
        before = len(blamed)
        out = toy_campaign["root"] / name
        assert invoke("batch", "--config", cfg, "--out", str(out), capsys=capsys)[0] == 0
        counts.append(len(blamed) - before)
    assert counts[0] == counts[1] >= 1


def test_batch_whose_blame_raises_fails_each_history_job(toy_campaign, capsys,
                                                         monkeypatch):
    # a blame that raised is not kept: every history job tries and fails
    blamed = _spy_blame(monkeypatch, fail=True)
    code, out, _ = invoke("batch", "--config", str(toy_campaign["campaign"]),
                          "--workers", "2", capsys=capsys)
    assert code == 3
    failed = sorted(line.split()[2].rstrip(":") for line in out.splitlines()
                    if "FAILED RuntimeError: blame broke" in line)
    assert failed == ["fl_diff", "fn_all", "fn_pair"]
    assert blamed == [BUG] * 3
    records_dir = toy_campaign["root"] / "out" / "records"
    assert [p.name for p in records_dir.glob("*.jsonl")] == [f"{BUG}__non_history.jsonl"]


def test_batch_runs_one_process_in_the_host_and_two_per_sandbox(toy_campaign, capsys,
                                                                monkeypatch):
    # the host's view is written from one rev-parse in the host; the
    # snapshot resolves once in the view; a sandbox runs only init and
    # checkout, whichever job first needs the view or the snapshot
    from histrepair import sandbox as sb

    argvs, sandboxes = [], []
    real_run, real_provision = subprocess.run, sb.provision

    def spy(argv, **kwargs):
        argvs.append(argv)
        return real_run(argv, **kwargs)

    def provision(*args):
        sandboxes.append(args[0])
        return real_provision(*args)
    monkeypatch.setattr(gitio, "subprocess", SimpleNamespace(run=spy))
    monkeypatch.setattr(sb, "provision", provision)
    code, _, _ = invoke("batch", "--config", str(toy_campaign["campaign"]),
                        "--workers", "2", capsys=capsys)
    assert code == 0
    host = str(toy_campaign["repo"])
    assert [argv[3:6] for argv in argvs if host in argv] == [["-C", host, "rev-parse"]]
    subcommands = [argv[5] for argv in argvs]
    assert sum(argv[5:7] == ["rev-parse", "--verify"] for argv in argvs) == 1
    assert subcommands.count("rev-parse") == 2
    assert len(sandboxes) == 4 + 1  # one per run, then one verification
    assert subcommands.count("init") == subcommands.count("checkout") == len(sandboxes)


# --- final verification -----------------------------------------------------

def _spy_tests(monkeypatch):
    """Record the sandbox of every command that runs the test wrapper."""
    from histrepair import loop, sandbox as sb

    seen = []
    real = sb.exec_command

    def spy(handle, command, *args, **kwargs):
        if loop.invokes_test(command):
            seen.append(handle.worktree_path)
        return real(handle, command, *args, **kwargs)

    monkeypatch.setattr(sb, "exec_command", spy)
    return seen


def test_batch_verifies_a_shared_patch_once(toy_campaign, capsys, monkeypatch):
    # every config's script makes the same fix and runs `test` once
    tests = _spy_tests(monkeypatch)
    code, _, _ = invoke("batch", "--config", str(toy_campaign["campaign"]),
                        "--workers", "2", capsys=capsys)
    assert code == 0
    assert len(tests) == 4 + 1  # one per run, then one verification
    out = toy_campaign["root"] / "out"
    patches = set()
    for heuristic in ("non_history", "fn_all", "fn_pair", "fl_diff"):
        result = json.loads((out / "records" / f"{BUG}__{heuristic}.jsonl")
                            .read_text().splitlines()[-1])
        assert result["tests_passed_at_end"] is True
        patches.add(result["final_patch"])
        log = (out / "artifacts" / f"{BUG}__{heuristic}" / f"{BUG}.commands.log").read_text()
        last = log.split("\n\n=== ")[-1]
        assert last.startswith("step 5 (exit 0)\n$ test\n"), last
    assert len(patches) == 1


def test_each_batch_call_verifies_again(toy_campaign, capsys, monkeypatch):
    tests = _spy_tests(monkeypatch)
    cfg = str(toy_campaign["campaign"])
    counts = []
    for name in ("first", "second"):
        before = len(tests)
        out = toy_campaign["root"] / name
        assert invoke("batch", "--config", cfg, "--out", str(out), capsys=capsys)[0] == 0
        counts.append(len(tests) - before)
        for path in (out / "records").glob("*.jsonl"):
            assert json.loads(path.read_text().splitlines()[-1])["tests_passed_at_end"]
    assert counts[0] == counts[1]


def test_repair_that_adds_a_binary_file_passes(toy_campaign, capsys, monkeypatch,
                                               tmp_path):
    # the patch carries the binary file's content, so it applies to a
    # fresh sandbox
    _script_repair(
        toy_campaign, monkeypatch, tmp_path,
        "sed -i 's/return a - b  # fast path/return a + b/' calc.py",
        "printf '\\000\\001' > blob.bin",
        "test",
        "echo COMPLETE_REPAIR_SIGNAL",
    )
    code, out, err = invoke(
        "repair", "--config", str(toy_campaign["campaign"]),
        "--bug", BUG, "--heuristic", "non_history", capsys=capsys,
    )
    assert code == 0, err
    result = json.loads(Path(out.strip()).read_text().splitlines()[-1])
    assert result["termination"] == "CompletedSignal"
    assert "GIT binary patch" in result["final_patch"]
    assert result["tests_passed_at_end"] is True


def test_repair_that_commits_its_fix_passes(toy_campaign, capsys, monkeypatch, tmp_path):
    # the patch is taken against the snapshot, so a commit keeps the fix in it
    _script_repair(
        toy_campaign, monkeypatch, tmp_path,
        "sed -i 's/return a - b  # fast path/return a + b/' calc.py",
        "git -c user.name=a -c user.email=a@a commit -qam fix",
        "test",
        "echo COMPLETE_REPAIR_SIGNAL",
    )
    code, out, err = invoke(
        "repair", "--config", str(toy_campaign["campaign"]),
        "--bug", BUG, "--heuristic", "non_history", capsys=capsys,
    )
    assert code == 0, err
    result = json.loads(Path(out.strip()).read_text().splitlines()[-1])
    assert "+    return a + b" in result["final_patch"]
    assert result["tests_passed_at_end"] is True


@pytest.mark.parametrize("endpoint", [
    "file:///etc/passwd", "ftp://models.example.invalid/v1", "localhost:8080/v1",
])
def test_http_provider_endpoint_that_is_not_http_exits_2(toy_campaign, capsys,
                                                         monkeypatch, endpoint):
    cfg = toy_campaign["root"] / "campaign_http.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text().replace(
        "  mode: scripted\n", f"  mode: http\n  endpoint: {endpoint}\n", 1))
    monkeypatch.setenv("MODEL_API_KEY", "sk-test")
    code, _, err = invoke(
        "repair", "--config", str(cfg), "--bug", BUG, "--heuristic", "non_history",
        capsys=capsys,
    )
    assert code == 2
    assert f"provider endpoint {endpoint!r} is not an http or https URL" in err


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


@pytest.mark.parametrize("cut, complaint", [
    (lambda text: text[:-40], "is not a record line"),
    (lambda text: "".join(text.splitlines(keepends=True)[:-1]), "no result line"),
    (lambda text: text + text.splitlines(keepends=True)[1], "follows the result line"),
], ids=["cut-mid-line", "no-result-line", "line-after-result"])
def test_report_names_a_bad_record(toy_campaign, capsys, cut, complaint):
    cfg = str(toy_campaign["campaign"])
    assert invoke("repair", "--config", cfg, "--bug", BUG, "--heuristic", "non_history")[0] == 0
    record = toy_campaign["root"] / "out" / "records" / f"{BUG}__non_history.jsonl"
    record.write_text(cut(record.read_text()))
    capsys.readouterr()
    code, _, err = invoke("report", "--config", cfg, capsys=capsys)
    assert code == 3
    assert err.startswith("error: ") and str(record) in err and complaint in err
    assert "Traceback" not in err


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


# (text in the toy campaign, the misspelt key that replaces it)
KEY_TYPOS = [
    ("guards:", "guard"),
    ("  max_steps:", "guards.max_step"),
    ("  scripts_dir:", "provider.script_dir"),
]


def test_duplicate_config_exits_2_before_any_job(toy_campaign, capsys):
    # each job writes its record and artifacts under (bug, config): a
    # repeated config ran the same job twice, concurrently under --workers 2
    cfg = toy_campaign["root"] / "campaign_twice.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text().replace(
        "configs: [non_history, fn_all, fn_pair, fl_diff]", "configs: [fn_all, fn_all]"))
    code, out, err = invoke("batch", "--config", str(cfg), "--workers", "2",
                            capsys=capsys)
    assert code == 2
    assert "heuristic configs listed more than once: ['fn_all']" in err
    assert out == ""
    assert not (toy_campaign["root"] / "out" / "records").exists()


def test_scalar_configs_exits_2_and_says_it_must_be_a_list(toy_campaign, capsys):
    cfg = toy_campaign["root"] / "campaign_scalar_configs.yaml"
    cfg.write_text(toy_campaign["campaign"].read_text().replace(
        "configs: [non_history, fn_all, fn_pair, fl_diff]", "configs: fn_all"))
    code, _, err = invoke("batch", "--config", str(cfg), capsys=capsys)
    assert code == 2
    assert "configs must be a list of heuristic names, got 'fn_all'" in err
    assert not (toy_campaign["root"] / "out" / "records").exists()


def test_second_guards_block_exits_2(toy_campaign, capsys):
    # a YAML loader that keeps the last of two equal keys would run under
    # max_steps 5 and drop the first block's cost and time guards unseen
    text = toy_campaign["campaign"].read_text()
    cfg = toy_campaign["root"] / "campaign_two_guards.yaml"
    cfg.write_text(text + "guards:\n  max_steps: 5\n")
    code, _, err = invoke("batch", "--config", str(cfg), capsys=capsys)
    assert code == 2
    line = len(text.splitlines()) + 1
    assert f"invalid YAML in {cfg}: line {line}: duplicate key 'guards'" in err
    assert not (toy_campaign["root"] / "out" / "records").exists()


@pytest.mark.parametrize("typo, key", KEY_TYPOS)
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


# (old, new, message): an edit of the toy campaign that must exit 2 with
# `message` before any job runs
BAD_VALUE_EDITS = [
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
    # 1.0e+400 overflows to an infinite float
    ('input_per_million: "0.28"', "input_per_million: 1.0e+400",
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
    # a NaN limit would pass every `<= 0` check and never fire; the
    # campaign reader refuses YAML's .nan and .inf outright
    ("max_wall_time: 3600", "max_wall_time: .nan",
     "'.nan' reads as a YAML 1.1 boolean, number, date or time"),
    ("max_wall_time: 3600", "max_wall_time: 1.0e+400",
     "guards.max_wall_time must be a finite number, got inf"),
    ("per_command_timeout: 60", "per_command_timeout: .nan",
     "'.nan' reads as a YAML 1.1 boolean, number, date or time"),
    ("per_command_timeout: 60", "per_command_timeout: true",
     "guards.per_command_timeout must be a finite number, got True"),
    ("per_command_timeout: 60", 'per_command_timeout: "60"',
     "guards.per_command_timeout must be a finite number, got '60'"),
]
BAD_VALUE_IDS = ["adapter-typo", "backend-container", "backend-vm", "provider-mode-typo",
                 "language-typo", "model-unpriced", "rate-missing", "rate-not-a-number",
                 "rate-negative", "rate-infinite", "max-cost-not-a-number",
                 "max-steps-fraction", "max-steps-bool", "max-steps-string", "workers-bool",
                 "workers-fraction", "budget-fraction", "max-wall-time-nan",
                 "max-wall-time-infinite", "command-timeout-nan", "command-timeout-bool",
                 "command-timeout-string"]


@pytest.mark.parametrize("old, new, message", BAD_VALUE_EDITS, ids=BAD_VALUE_IDS)
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


def _set(path, value):
    """A change to the toy manifest row: set the key at `path` to `value`."""
    def change(row):
        *keys, last = path
        target = row
        for key in keys:
            target = target[key]
        target[last] = value
        return row
    return change


def _drop(key):
    def change(row):
        del row[key]
        return row
    return change


# (change to a valid second row, what the error must say)
BAD_MANIFEST_ROWS = {
    "bug-id-climbs-out": (_set(["bug_id"], "../escaped"), "one plain path component"),
    "bug-id-with-slash": (_set(["bug_id"], "a/b"), "one plain path component"),
    "bug-id-dot-dot": (_set(["bug_id"], ".."), "one plain path component"),
    "bug-id-dot": (_set(["bug_id"], "."), "one plain path component"),
    "bug-id-empty": (_set(["bug_id"], ""), "one plain path component"),
    "bug-id-nul": (_set(["bug_id"], "a\0b"), "one plain path component"),
    "bug-id-number": (_set(["bug_id"], 7), "bug_id must be a JSON string"),
    "line-word": (_set(["locations", 0, "lines", 0, "line"], "five"),
                  "line must be an integer, got 'five'"),
    "line-float": (_set(["locations", 0, "lines", 0, "line"], 5.5),
                   "line must be an integer, got 5.5"),
    "line-bool": (_set(["locations", 0, "lines", 0, "line"], True),
                  "line must be an integer, got True"),
    "row-array": (lambda row: [row], "a manifest row must be a JSON object"),
    "location-string": (_set(["locations", 0], "calc.py"),
                        "a location must be a JSON object"),
    "lines-object": (_set(["locations", 0, "lines"], {"line": 5, "kind": "modified"}),
                     "lines must be a JSON array"),
    "failing-tests-string": (_set(["failing_tests"], "test_add"),
                             "failing_tests must be a JSON array"),
    "failing-test-number": (_set(["failing_tests"], [1]), "a failing test must be"),
    "unknown-row-key": (_set(["bug_reprot_path"], "bug_report.txt"),
                        "unknown key 'bug_reprot_path' in a manifest row"),
    "unknown-location-key": (_set(["locations", 0, "path"], "calc.py"),
                             "unknown key 'path' in a location"),
    "unknown-line-key": (_set(["locations", 0, "lines", 0, "knd"], "modified"),
                         "unknown key 'knd' in a line"),
    "inline-bug-report": (_set(["bug_report"], "totals are wrong"),
                          "unknown key 'bug_report' in a manifest row"),
    "missing-field": (_drop("snapshot_ref"), "missing field 'snapshot_ref'"),
    "missing-bug-report": (_set(["bug_report_path"], "no_such_report.txt"),
                           "bug_report_path 'no_such_report.txt' names no file"),
    "missing-fix-patch": (_set(["fix_patch_path"], "no_such.patch"),
                          "fix_patch_path 'no_such.patch' names no file"),
}


@pytest.mark.parametrize("case", list(BAD_MANIFEST_ROWS))
def test_bad_manifest_row_exits_2_and_names_its_line(toy_campaign, capsys, case):
    change, complaint = BAD_MANIFEST_ROWS[case]
    manifest = toy_campaign["manifest"]
    good = json.loads(manifest.read_text())
    bad = change({**json.loads(manifest.read_text()), "bug_id": "toy-002"})
    manifest.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code, _, err = invoke("study", "--config", str(toy_campaign["campaign"]),
                          capsys=capsys)
    assert code == 2, err
    assert f"{manifest}:2: " in err and complaint in err, err


def test_bug_id_cannot_name_a_file_outside_out(toy_campaign, tmp_path, capsys):
    manifest = toy_campaign["manifest"]
    row = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**row, "bug_id": "../escaped"}) + "\n")
    code, _, err = invoke("context", "--config", str(toy_campaign["campaign"]),
                          "--bug", "../escaped", "--heuristic", "fl_diff",
                          "--out", str(tmp_path / "out" / "ctx"), capsys=capsys)
    assert code == 2 and f"{manifest}:1: " in err
    assert list(tmp_path.rglob("escaped*")) == []


def test_out_override_wins(toy_campaign, tmp_path, capsys):
    other = tmp_path / "elsewhere"
    code, _, _ = invoke(
        "study", "--config", str(toy_campaign["campaign"]),
        "--out", str(other), capsys=capsys,
    )
    assert code == 0
    assert (other / "availability.txt").exists()
    assert not (toy_campaign["root"] / "out" / "study").exists()


def test_relative_out_is_relative_to_the_working_directory(toy_campaign, tmp_path,
                                                           capsys, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = os.path.relpath(toy_campaign["campaign"], work)
    out = (work / "o2").resolve()
    for command in ("batch", "report"):
        assert invoke(command, "--config", cfg, "--out", "o2", capsys=capsys)[0] == 0
        frozen = json.loads((out / "effective_config.json").read_text())
        assert frozen["out_dir"] == str(out), command
    assert len(list((out / "records").glob("*.jsonl"))) == 4
    assert not (toy_campaign["root"] / "o2").exists()


def test_frozen_config_is_valid_json(toy_campaign, capsys):
    invoke("study", "--config", str(toy_campaign["campaign"]), capsys=capsys)
    frozen = json.loads(
        (toy_campaign["root"] / "out" / "study" / "effective_config.json")
        .read_text()
    )
    assert frozen["configs"] == ["non_history", "fn_all", "fn_pair", "fl_diff"]
    assert frozen["guards"]["max_steps"] == 50
    assert frozen["provider"]["mode"] == "scripted"


# --- git config -------------------------------------------------------------

# each key, set in the user's global config, once changed a read, a patch
# or a verdict
HOSTILE_GIT_CONFIG = """\
[color]
\tui = always
[diff]
\tnoprefix = true
\tmnemonicPrefix = true
\texternal = false
[apply]
\twhitespace = error
[blame]
\tignoreRevsFile = no-such-file
"""


def _history_codes(cfg: str, out: Path) -> list[int]:
    """Exit codes of study and of context under each history heuristic."""
    codes = [main(["study", "--config", cfg, "--out", str(out / "study")])]
    return codes + [main(["context", "--config", cfg, "--bug", BUG, "--heuristic", h,
                          "--out", str(out / "context")])
                    for h in ("fn_all", "fn_pair", "fl_diff")]


def _output_files(out: Path) -> dict:
    """Records without wall-clock fields, other files with `out` spelled `<out>`."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.parent.name == "records":
            files[str(path.relative_to(out))] = records.comparable_record_lines(path)
        elif path.is_file():
            files[str(path.relative_to(out))] = path.read_text().replace(str(out), "<out>")
    return files


def _campaign_outputs(cfg: str, out: Path) -> dict:
    """Exit codes and output files of study, context, batch and report."""
    codes = _history_codes(cfg, out)
    codes.append(main(["batch", "--config", cfg, "--out", str(out / "batch")]))
    codes.append(main(["report", "--config", cfg, "--records-dir",
                       str(out / "batch" / "records"), "--out", str(out / "report")]))
    return {"codes": codes, "files": _output_files(out)}


def test_user_git_config_changes_no_output(toy_campaign, tmp_path, monkeypatch):
    # set for the CLI calls only: the toy repo is already built
    cfg = str(toy_campaign["campaign"])
    empty, hostile = tmp_path / "empty.gitconfig", tmp_path / "hostile.gitconfig"
    empty.write_text("")
    hostile.write_text(HOSTILE_GIT_CONFIG)
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(empty))
    expected = _campaign_outputs(cfg, tmp_path / "empty")
    assert expected["codes"] == [0] * 6
    assert len(expected["files"]) == 43
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(hostile))
    assert _campaign_outputs(cfg, tmp_path / "hostile") == expected


# each makes a history read that runs in the host repo itself fail or
# change: blame exits 128 on the missing ignore-revs file, `-diff` makes
# fl_diff's diff "Binary files ... differ", and the replace ref swaps the
# blamed commit for its parent
HOSTILE_HOST_CONFIG = (("color.ui", "always"), ("diff.noprefix", "true"),
                       ("blame.ignoreRevsFile", "/nonexistent"),
                       ("blame.markUnblamableLines", "true"), ("blame.date", "relative"))


def test_host_repo_git_config_changes_no_history_output(toy_campaign, tmp_path):
    # history reads run in a view of the host repo, which reads none of
    # the host's config, worktree attributes or replace refs
    cfg, repo = str(toy_campaign["campaign"]), toy_campaign["repo"]
    clean = _history_codes(cfg, tmp_path / "clean"), _output_files(tmp_path / "clean")
    assert clean[0] == [0] * 4
    for key, value in HOSTILE_HOST_CONFIG:
        gitio.run_git(repo, "config", key, value)
    (repo / ".gitattributes").write_text("*.py -diff\n")
    gitio.run_git(repo, "replace", toy_campaign["snapshot"], f"{toy_campaign['snapshot']}~1")
    hostile = tmp_path / "hostile"
    assert (_history_codes(cfg, hostile), _output_files(hostile)) == clean


@pytest.mark.parametrize("hostile", ["working directory attributes",
                                     "explicit bare repositories"])
def test_cli_side_git_settings_change_no_history_output(toy_campaign, tmp_path,
                                                        monkeypatch, hostile):
    # a view is bare in its own config, so attributes in the directory the
    # CLI runs from do not apply; it is named with --git-dir, which
    # safe.bareRepository=explicit allows where `-C <view>` is refused
    cfg = str(toy_campaign["campaign"])
    clean = _history_codes(cfg, tmp_path / "clean"), _output_files(tmp_path / "clean")
    if hostile == "working directory attributes":
        (tmp_path / "cwd").mkdir()
        (tmp_path / "cwd" / ".gitattributes").write_text("*.py -diff\n")
        monkeypatch.chdir(tmp_path / "cwd")
    else:
        # as a user would pass it, in the environment git is given
        monkeypatch.setattr(gitio, "_GIT_ENV", {
            **gitio._GIT_ENV, "GIT_CONFIG_COUNT": "1",
            "GIT_CONFIG_KEY_0": "safe.bareRepository", "GIT_CONFIG_VALUE_0": "explicit"})
    out = tmp_path / "hostile"
    assert (_history_codes(cfg, out), _output_files(out)) == clean


CLI = "import sys; from histrepair.cli import main; sys.exit(main())"


def _cold_campaign_outputs(root: Path, name: str, extra_env: dict) -> dict:
    """Exit codes, output and files of cold study, context, repair and report calls.

    The calls write under `root/out_<name>`, and `extra_env` joins the
    environment each CLI process starts with.
    """
    cfg = root / f"campaign_{name}.yaml"
    cfg.write_text((root / "campaign.yaml").read_text().replace(
        "out_dir: out\n", f"out_dir: out_{name}\n"))
    src = str(Path(histrepair.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **extra_env}
    calls = [["study"], *(["context", "--bug", BUG, "--heuristic", h]
                          for h in ("fn_all", "fn_pair", "fl_diff")),
             *(["repair", "--bug", BUG, "--heuristic", h]
               for h in ("non_history", "fn_all", "fn_pair", "fl_diff")), ["report"]]
    out = root / f"out_{name}"
    results = []
    for call in calls:
        proc = subprocess.run([sys.executable, "-c", CLI, call[0], "--config", str(cfg),
                               *call[1:]], capture_output=True, text=True, env=env)
        results.append((proc.returncode, proc.stdout.replace(str(out), "<out>"),
                        proc.stderr))
    return {"calls": results, "files": _output_files(out)}


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_git_sees_only_its_own_environment(toy_campaign, tmp_path):
    # as inside a git hook: GIT_DIR and friends name another repository,
    # GIT_CONFIG_PARAMETERS carries config, and LANGUAGE translates git
    root = toy_campaign["root"]
    decoy = synth.init_repo(tmp_path / "decoy")
    (decoy / "calc.py").write_text("def add(a, b):\n    return 0\n")
    synth.commit_all(decoy, "decoy", 0)
    before = _tree_bytes(decoy)
    clean = _cold_campaign_outputs(root, "clean", {})
    assert [code for code, _, _ in clean["calls"]] == [0] * 9
    hostile = _cold_campaign_outputs(root, "hostile", {
        "GIT_DIR": str(decoy / ".git"), "GIT_WORK_TREE": str(decoy),
        "GIT_INDEX_FILE": str(decoy / ".git" / "index"),
        "GIT_CONFIG_PARAMETERS": "'diff.noprefix'='true' 'color.ui'='always'",
        "LC_ALL": "C.UTF-8", "LANGUAGE": "de",
    })
    assert hostile == clean
    assert _tree_bytes(decoy) == before


# --- cold start -------------------------------------------------------------

# modules of note besides histrepair's own: git runs through subprocess,
# and only a crash needs traceback. numpy, scipy and requests would cost over a second of
# every cold call; prompts render with the stdlib, not jinja2; the
# campaign file is read by config's own reader, not PyYAML; verdicts
# are keyed on the patch text itself, where hashlib's libcrypto would add
# megabytes to a run's peak RSS; and the HTTP stack loads only when the
# http provider makes a call. The records are NamedTuples and plain
# classes: dataclasses would load inspect, ast, dis and tokenize
WATCHED = ("subprocess", "traceback", "numpy", "scipy", "requests", "jinja2", "yaml",
           "hashlib", "_hashlib", "urllib.request", "http.client", "dataclasses",
           "inspect")

# campaign validation loads no span detector and no source scanner
SETUP = {"cli", "config", "errors"}
# blame's insertion fallback scans source text
GIT = {"blame", "bugs", "gitio", "patches", "sourcetext", "subprocess"}
JOB = GIT | {"context", "loop", "provider", "records", "sandbox", "spans"}
# every histrepair module and watched module each cold call loads on the
# toy campaign
COLD_LOADS = {
    "setup": SETUP,
    "study": SETUP | GIT,
    "context": SETUP | GIT | {"context", "spans"},
    "repair": SETUP | JOB,
    # the thread pool's concurrent.futures loads logging, which loads traceback
    "batch": SETUP | JOB | {"traceback"},
    "report": SETUP | {"bugs", "metrics", "patches", "records", "stats"},
}


def _modules_loaded_after(code: str) -> set[str]:
    """The histrepair modules, by bare name, and the WATCHED modules a
    fresh interpreter holds after running `code`."""
    src = str(Path(histrepair.__file__).resolve().parents[1])
    probe = (f"import json, sys\n{code}\n"
             "print(json.dumps([m.removeprefix('histrepair.') for m in sys.modules\n"
             f"                  if m.startswith('histrepair.') or m in {WATCHED!r}]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_leaves_heavy_modules_unloaded(toy_campaign):
    cfg = str(toy_campaign["campaign"])
    calls = {"setup": f"from histrepair import cli\ncli.load_campaign({cfg!r})"}
    for command, *args in (["study"], ["context", "--bug", BUG, "--heuristic", "fn_pair"],
                           ["repair", "--bug", BUG, "--heuristic", "fn_all"],
                           ["batch"], ["report"]):
        argv = [command, "--config", cfg, *args]
        calls[command] = f"from histrepair import cli\nassert cli.main({argv!r}) == 0"
    loaded = {name: _modules_loaded_after(code) for name, code in calls.items()}
    assert loaded == COLD_LOADS
