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
        assert gitio.run_git(toy["repo"], "cat-file", "-t", head, check=False) == ""
        assert "agent" in gitio.run_git(handle.worktree_path, "log", "-1", "--format=%s")
    finally:
        sb.teardown(handle, tmp_path / "artifacts", "")
    assert _store(host) == before


def test_sandbox_shows_what_a_copying_clone_shows(toy, handle, tmp_path):
    reference = _copying_clone(toy["repo"], toy["snapshot"], tmp_path / "reference")
    for args in (("for-each-ref",), ("remote", "-v"), ("log", "--all", "--oneline"),
                 ("rev-parse", "HEAD"), ("status", "--porcelain")):
        assert gitio.run_git(handle.worktree_path, *args) == \
               gitio.run_git(reference, *args), args


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
    assert patch == sb.final_patch(sb.SandboxHandle("reference", reference))


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
