"""Sandbox provisioning, execution, wrappers, and teardown."""

import os
import time
from pathlib import Path

import pytest

from histrepair import gitio, sandbox as sb, synth
from histrepair.config import BUILTIN_ADAPTERS
from histrepair.errors import (
    GitToolError,
    ProvisionError,
    SandboxDead,
    TestOutputParseError,
)


ADAPTER = BUILTIN_ADAPTERS["local-python"]


@pytest.fixture
def toy(tmp_path):
    return synth.build_toy_campaign(tmp_path / "toy")


@pytest.fixture
def handle(toy, tmp_path):
    h = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                     ADAPTER)
    yield h
    sb.teardown(h, tmp_path / "artifacts", "")


def test_provision_checks_out_exact_snapshot(toy, handle):
    assert gitio.run_git(handle.worktree_path, "rev-parse", "HEAD^{tree}") == \
           gitio.run_git(toy["repo"], "rev-parse", f"{toy['snapshot']}^{{tree}}")
    calc = (handle.worktree_path / "calc.py").read_text()
    assert "return a - b  # fast path" in calc


def test_provision_resolves_the_ref_in_the_host_repo(toy, tmp_path):
    # a branch other than the clone's checked-out one, and a ref outside
    # refs/heads and refs/tags, exist only in the host repo
    gitio.run_git(toy["repo"], "branch", "snap", toy["snapshot"])
    gitio.run_git(toy["repo"], "update-ref", "refs/snapshots/toy", toy["snapshot"])
    for ref in ("snap", "refs/snapshots/toy"):
        h = sb.provision("b", toy["repo"], ref, ADAPTER)
        try:
            head = gitio.run_git(h.worktree_path, "rev-parse", "HEAD").strip()
            assert head == toy["snapshot"]
        finally:
            sb.teardown(h, tmp_path / "artifacts", "")


def _copying_clone(repo, commit, dest):
    """The reference sandbox checkout: a clone that copies every object."""
    gitio.run_git(repo, "clone", "--no-hardlinks", "--quiet", ".", str(dest))
    gitio.run_git(dest, "checkout", "--detach", "--quiet", commit)
    return dest


def _store(git_dir: Path) -> dict[str, bytes]:
    objects = git_dir / "objects"
    return {str(f.relative_to(objects)): f.read_bytes()
            for f in sorted(objects.rglob("*")) if f.is_file()}


def test_provision_borrows_the_host_object_store(toy, handle):
    # the sandbox holds no object of its own, only the pointer to the host's
    store = _store(handle.worktree_path / ".git")
    assert list(store) == ["info/alternates"]
    alternate = Path(store["info/alternates"].decode().strip())
    assert alternate.resolve() == (toy["repo"] / ".git" / "objects").resolve()


def test_sandbox_writes_leave_the_host_store_untouched(toy, tmp_path):
    host = toy["repo"] / ".git"
    before = _store(host)
    handle = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"], ADAPTER)
    try:
        result = sb.exec_command(handle, " && ".join([
            "echo '# agent' >> calc.py",
            "git -c user.name=agent -c user.email=agent@example.invalid"
            " commit --quiet -am agent",
            "git gc --quiet --prune=now",
            "git repack --quiet -a -d",
            "git prune",
        ]))
        assert result.exit_code == 0, result.stderr
        # the agent's commit is readable in the sandbox and absent from the host
        head = gitio.run_git(handle.worktree_path, "rev-parse", "HEAD").strip()
        with pytest.raises(GitToolError):
            gitio.run_git(toy["repo"], "cat-file", "-t", head)
        assert "agent" in gitio.run_git(handle.worktree_path, "log", "-1", "--format=%s")
    finally:
        sb.teardown(handle, tmp_path / "artifacts", "")
    assert _store(host) == before


def test_sandbox_shows_no_remote_no_refs_and_only_the_snapshot_ancestry(toy, tmp_path):
    # a later fix on a host side branch must not be listed in the sandbox
    repo = toy["repo"]
    gitio.run_git(repo, "checkout", "--quiet", "-b", "fix", toy["snapshot"])
    (repo / "calc.py").write_text("# SECRET FIX\n")
    secret = synth.commit_all(repo, "SECRET FIX", 2)
    gitio.run_git(repo, "checkout", "--quiet", "main")
    handle = sb.provision(synth.TOY_BUG_ID, repo, toy["snapshot"], ADAPTER)
    try:
        work = handle.worktree_path
        assert gitio.run_git(work, "remote", "-v") == ""
        assert gitio.run_git(work, "for-each-ref") == ""
        listed = gitio.run_git(work, "log", "--all", "--format=%H").split()
        assert listed == gitio.run_git(repo, "rev-list", toy["snapshot"]).split()
        assert secret not in listed
        assert gitio.run_git(work, "rev-parse", "HEAD").strip() == toy["snapshot"]
        assert gitio.run_git(work, "status", "--porcelain") == ""
    finally:
        sb.teardown(handle, tmp_path / "artifacts", "")


@pytest.mark.parametrize("edit", [
    lambda work: (work / "util.py").write_text("# helper\n"),
    lambda work: (work / "calc.py").unlink(),
], ids=["add", "delete"])
def test_final_patch_through_alternates_matches_a_copying_clone(toy, handle,
                                                                tmp_path, edit):
    reference = _copying_clone(toy["repo"], toy["snapshot"], tmp_path / "reference")
    for work in (handle.worktree_path, reference):
        edit(work)
    patch = sb.final_patch(handle)
    assert patch
    assert patch == sb.final_patch(
        sb.SandboxHandle("reference", reference, commit=handle.commit))


def test_provision_bad_ref(toy, tmp_path, monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    with pytest.raises(ProvisionError):
        sb.provision("b", toy["repo"], "f" * 40, ADAPTER)
    assert not list(tmp_path.glob("histrepair-*"))


def test_sandboxes_are_isolated_from_each_other(toy, tmp_path):
    a = sb.provision("bug-a", toy["repo"], toy["snapshot"], ADAPTER)
    b = sb.provision("bug-b", toy["repo"], toy["snapshot"], ADAPTER)
    try:
        sb.exec_command(a, "echo scribble >> calc.py")
        assert "scribble" in (a.worktree_path / "calc.py").read_text()
        assert "scribble" not in (b.worktree_path / "calc.py").read_text()
    finally:
        sb.teardown(a, tmp_path / "art-a", "")
        sb.teardown(b, tmp_path / "art-b", "")


def test_edits_never_touch_the_source_repo(toy, handle):
    sb.exec_command(handle, "echo tainted >> calc.py")
    assert "tainted" not in (toy["repo"] / "calc.py").read_text()


def test_exec_captures_streams_and_exit(handle):
    result = sb.exec_command(handle, "echo out; echo err 1>&2; exit 7")
    assert result.stdout == "out\n"
    assert result.stderr == "err\n"
    assert result.exit_code == 7
    assert result.timed_out is False


def test_exec_runs_in_worktree(handle):
    result = sb.exec_command(handle, "pwd")
    assert result.stdout.strip() == str(handle.worktree_path)


def test_env_is_allowlisted(handle, monkeypatch):
    monkeypatch.setenv("SECRET_TOKEN", "hunter2")
    result = sb.exec_command(handle, "printenv SECRET_TOKEN")
    assert result.exit_code != 0
    assert "hunter2" not in result.stdout
    home = sb.exec_command(handle, "printenv HOME").stdout.strip()
    assert home != os.environ.get("HOME")
    assert home.startswith(str(handle._root))
    assert sb.exec_command(
        handle, "printenv PYTHONDONTWRITEBYTECODE").stdout.strip() == "1"


def test_command_timeout_reports_exit_124(handle):
    result = sb.exec_command(handle, "sleep 5", timeout=0.3)
    assert result.timed_out is True
    assert result.exit_code == sb.TIMEOUT_EXIT_CODE


def _group_alive(pgid: int) -> bool:
    """Whether process group `pgid` still has a member that is not a zombie."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    # an init that does not reap orphans leaves their zombies holding
    # the group id; those are dead, so only other states count
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("command", [
    "sleep 3; echo done", "sleep 3 | cat", "(sleep 3 &); sleep 3",
])
def test_timeout_kills_the_whole_process_group(handle, tmp_path, command):
    pgid_file = tmp_path / "pgid"
    # field 5 of /proc/<pid>/stat is the process group id
    result = sb.exec_command(
        handle,
        f"read -r _ _ _ _ pgid _ < /proc/$$/stat; echo $pgid > {pgid_file}; {command}",
        timeout=0.5,
    )
    assert result.timed_out is True
    assert "done" not in result.stdout
    pgid = int(pgid_file.read_text())
    assert pgid != os.getpgid(0), "the command must lead its own process group"
    deadline = time.monotonic() + 2.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _group_alive(pgid)


def _pid_alive(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return False
    return fields[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_timeout_does_not_wait_for_a_process_that_left_the_group(handle, tmp_path):
    # the setsid child survives the group kill and holds both pipes open
    pid_file = tmp_path / "pid"
    start = time.monotonic()
    result = sb.exec_command(
        handle, f"setsid sleep 2 & echo $! > {pid_file}; echo started", timeout=0.3)
    took = time.monotonic() - start
    # wait out the stray, so the test leaves nothing running
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while _pid_alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert took < 1.5
    assert result.timed_out is True
    assert result.exit_code == sb.TIMEOUT_EXIT_CODE
    assert "started" in result.stdout


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_teardown_kills_background_jobs(toy, tmp_path):
    handle = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                          ADAPTER)
    pgid_file = tmp_path / "pgid"
    result = sb.exec_command(
        handle,
        f"read -r _ _ _ _ pgid _ < /proc/$$/stat; echo $pgid > {pgid_file}; "
        "sleep 4 >/dev/null 2>&1 &",
    )
    assert result.exit_code == 0 and not result.timed_out
    pgid = int(pgid_file.read_text())
    assert _group_alive(pgid), "the background job outlives its command"
    sb.teardown(handle, tmp_path / "artifacts", "")
    deadline = time.monotonic() + 2.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _group_alive(pgid)


def test_test_wrapper_beats_shell_builtin(handle):
    # bare `test` must run the adapter's test command, not bash's builtin
    # (the builtin exits silently; the wrapper prints the failing block)
    result = sb.exec_command(handle, "test")
    assert "Failing tests: 1" in result.stdout
    assert "- test_add" in result.stdout


def test_wrapper_ignores_agent_flags(handle):
    with_flag = sb.exec_command(handle, "test -r")
    assert "Failing tests: 1" in with_flag.stdout


def test_compile_wrapper_runs(handle):
    result = sb.exec_command(handle, "compile")
    assert result.exit_code == 0
    # bytecode must not appear as tree changes
    assert sb.final_patch(handle) == ""


def test_run_test_fail_then_pass(handle):
    _, before = sb.run_test(handle)
    assert before.all_passed is False
    assert before.failing_tests == ("test_add",)
    sb.exec_command(
        handle,
        "sed -i 's/return a - b  # fast path/return a + b/' calc.py",
    )
    _, after = sb.run_test(handle)
    assert after.all_passed is True
    assert after.failing_tests == ()


def test_run_test_rejects_unparseable_output(handle):
    sb.exec_command(handle, "echo 'print(\"gibberish\")' > run_tests.py")
    _, outcome = sb.run_test(handle)
    assert outcome.all_passed is False
    assert outcome.failing_tests == ("(unparsed test output)",)


def test_run_test_timeout_fails_closed(handle):
    sb.exec_command(handle, "printf 'import time\\ntime.sleep(9)\\n' > run_tests.py")
    _, outcome = sb.run_test(handle, timeout=0.3)
    assert outcome.all_passed is False
    assert outcome.failing_tests == ("(test run timed out)",)


PARSE_CASES = [
    ("Failing tests: 0\n", True, ()),
    ("noise\nFailing tests: 2\n  - alpha::t1\n  - beta::t2\ntrailing\n",
     False, ("alpha::t1", "beta::t2")),
    ("Failing tests: 1\n  - only_one\n", False, ("only_one",)),
]


def test_parse_failing_block_cases():
    for raw, passed, names in PARSE_CASES:
        outcome = sb.parse_failing_block(raw)
        assert outcome.all_passed is passed
        assert outcome.failing_tests == names


def test_parse_failing_block_synthesizes_unnamed():
    outcome = sb.parse_failing_block("Failing tests: 2\nno name lines\n")
    assert outcome.all_passed is False
    assert len(outcome.failing_tests) == 2
    assert all("unnamed" in n for n in outcome.failing_tests)


def test_parse_failing_block_requires_marker():
    with pytest.raises(TestOutputParseError):
        sb.parse_failing_block("OK  all good\n")


def test_fail_closed_outcome_shape():
    # a missing failing-test block fails closed whatever the exit code
    result = sb.CommandResult(stdout="x" * 5000, stderr="", exit_code=0, duration=0.0)
    outcome = sb.test_outcome(result)
    assert outcome.all_passed is False
    assert outcome.failing_tests == ("(unparsed test output)",)


def test_final_patch_tracks_edits_and_new_files(handle):
    assert sb.final_patch(handle) == ""
    sb.exec_command(handle, "sed -i 's/a - b  # fast path/a + b/' calc.py")
    sb.exec_command(handle, "echo '# helper' > util.py")
    patch = sb.final_patch(handle)
    assert "-    return a - b  # fast path" in patch
    assert "+    return a + b" in patch
    assert "util.py" in patch
    assert "+# helper" in patch


def test_final_patch_carries_binary_content_that_applies(toy, handle):
    sb.exec_command(handle, "printf '\\000\\001' > blob.bin")
    patch = sb.final_patch(handle)
    assert "GIT binary patch" in patch
    fresh = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"], ADAPTER)
    try:
        gitio.run_git(fresh.worktree_path, "apply", input=patch)
        assert (fresh.worktree_path / "blob.bin").read_bytes() == b"\x00\x01"
    finally:
        sb.teardown(fresh, toy["root"] / "fresh-artifacts", "")


def test_verify_does_not_pass_a_patch_that_does_not_apply(handle):
    patch = ("diff --git a/calc.py b/calc.py\n--- a/calc.py\n+++ b/calc.py\n"
             "@@ -1,1 +1,1 @@\n-not a line of the snapshot\n+x = 1\n")
    assert sb.verify(handle, patch, gitio.CallMemo(), step_index=7) is False
    step, command, result = handle._log[-1]
    assert (step, command) == (7, "git apply")
    assert result.exit_code != 0
    assert "patch does not apply" in result.stderr


def test_final_patch_unavailable_after_worktree_loss(handle):
    import shutil
    shutil.rmtree(handle.worktree_path)
    with pytest.raises(GitToolError):
        sb.final_patch(handle)


def test_render_command_log(handle):
    sb.exec_command(handle, "echo one", step_index=1)
    sb.exec_command(handle, "false", step_index=2)
    log = sb.render_command_log(handle)
    assert "=== step 1 (exit 0)" in log
    assert "$ echo one" in log
    assert "=== step 2 (exit 1)" in log


def test_teardown_persists_then_destroys(toy, tmp_path):
    handle = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                          ADAPTER)
    sb.exec_command(handle, "sed -i 's/a - b  # fast path/a + b/' calc.py",
                    step_index=1)
    root = handle._root
    patch = sb.final_patch(handle)
    sb.teardown(handle, tmp_path / "artifacts", patch)
    assert not root.exists()
    assert handle.alive is False
    patch_text = (tmp_path / "artifacts" / f"{synth.TOY_BUG_ID}.patch").read_text()
    assert patch_text == patch and "+    return a + b" in patch_text
    log_text = (tmp_path / "artifacts" / f"{synth.TOY_BUG_ID}.commands.log").read_text()
    assert "sed -i" in log_text
    # second teardown is a no-op
    sb.teardown(handle, tmp_path / "elsewhere", patch)
    assert not (tmp_path / "elsewhere").exists()


def test_dead_sandbox_refuses_commands(toy, tmp_path):
    handle = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                          ADAPTER)
    sb.teardown(handle, tmp_path / "artifacts", "")
    with pytest.raises(SandboxDead):
        sb.exec_command(handle, "echo hello")


def test_verdict_memo_computes_each_key_once_under_contention():
    import sys
    import threading

    memo = gitio.CallMemo()
    calls = {"a": 0, "b": 0}
    count_lock = threading.Lock()
    seen = []

    def compute(key):
        with count_lock:
            calls[key] += 1
        time.sleep(0.01)
        return sb.Verdict(key == "a", "test", None)

    def ask(key):
        seen.append((key, memo.get((key,), lambda: compute(key))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=("ab"[i % 2],)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == {"a": 1, "b": 1}
    assert len(seen) == 16
    assert {v.passed for k, v in seen if k == "a"} == {True}
    assert {v.passed for k, v in seen if k == "b"} == {False}


def test_verdict_memo_retries_a_key_whose_verification_raised():
    memo = gitio.CallMemo()

    def broken():
        raise ProvisionError("no sandbox")

    with pytest.raises(ProvisionError):
        memo.get(("k",), broken)
    assert memo.get(("k",), lambda: sb.Verdict(True, "test", None)).passed is True
