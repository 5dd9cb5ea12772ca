"""Isolated execution environments for repair runs.

Each bug gets a private repository in a temporary directory, checked out
at the commit its snapshot ref names, with `compile` and `test` wrapper
commands installed ahead of PATH so the agent sees the same abstract
toolset regardless of the project underneath.

Provisioning runs two git processes: a `git init` without templates,
and one `checkout --detach` of the snapshot (`gitio.snapshot`, resolved
once per process) after `.git/objects/info/alternates` is written to
point at the host's object store. The sandbox reads the host's objects
instead of copying them, so the cost of provisioning and teardown does
not grow with the size of history, and git writes every new object (an
agent's commit, a `gc` or `repack`) into the sandbox's own store, never
into the host's. The sandbox has no `origin` and no refs, so
`git log --all` shows only the snapshot's ancestry. What remains
visible: the alternates file names the host's path, and
`git cat-file --batch-all-objects` lists every host object, the future
fix included; the snapshot-only base that ROADMAP item 2 plans would
close that. There is no container backend: to isolate runs
from the host, run histrepair itself inside a container.

A run's verdict never comes from the sandbox the agent worked in.
`verify` applies the final patch to a fresh sandbox at the same commit,
runs the adapter's `test` there and destroys it; a `gitio.CallMemo` gives
each distinct (repo, commit, patch) one verification per CLI call.

Commands run under a non-interactive bash with a pinned environment
allowlist so observations are reproducible. Every git call goes through
`gitio.run_git`. The final patch is taken once, by the loop; teardown
persists what it is given and destroys the sandbox without running git.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import subprocess
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from . import gitio
from .config import DEFAULT_COMMAND_TIMEOUT, ProjectAdapter
from .errors import (
    GitToolError,
    ProvisionError,
    SandboxDead,
    TestOutputParseError,
)

TIMEOUT_EXIT_CODE = 124

# seconds a timed-out command's pipes may stay open once its group is killed
_DRAIN_GRACE_SECONDS = 0.5

# the shell builtin `test` would shadow our test wrapper; disable it so
# PATH lookup wins
_SHELL_PRELUDE = "enable -n test 2>/dev/null\n"


class CommandResult(NamedTuple):
    stdout: str
    stderr: str
    exit_code: int
    duration: float
    timed_out: bool = False


class TestOutcome(NamedTuple):
    all_passed: bool
    failing_tests: tuple[str, ...]


def parse_failing_block(output: str) -> TestOutcome:
    """Parse the `Failing tests: N` block followed by `  - name` lines.

    Both the bundled fixture runner and the defects4j CLI print this
    shape. Raises TestOutputParseError when the marker is absent.
    """
    m = re.search(r"^Failing tests:\s*(\d+)\s*$", output, re.MULTILINE)
    if not m:
        raise TestOutputParseError("no 'Failing tests: N' marker in test output")
    count = int(m.group(1))
    names = []
    for line in output[m.end():].splitlines():
        nm = re.match(r"^\s+-\s+(\S.*)$", line)
        if nm:
            names.append(nm.group(1).strip())
        elif line.strip() and names:
            break
    if count > 0 and not names:
        # count without names still identifies failure; synthesize
        names = [f"(unnamed failing test {i + 1})" for i in range(count)]
    return TestOutcome(all_passed=(count == 0), failing_tests=tuple(names[:count]))


class SandboxHandle:
    """One live sandbox: its worktree, what it was made from, and its command log."""

    bug_id: str
    worktree_path: Path
    alive: bool
    # what a twin for verification is provisioned from
    host: Path | None                    # the host repo
    ref: str                             # the snapshot ref
    commit: str                          # the commit it resolved to
    adapter: ProjectAdapter | None

    def __init__(self, bug_id: str, worktree_path: Path, host: Path | None = None,
                 ref: str = "", commit: str = "", adapter: ProjectAdapter | None = None,
                 root: Path | None = None, env: dict | None = None) -> None:
        self.bug_id, self.worktree_path, self.alive = bug_id, worktree_path, True
        self.host, self.ref, self.commit, self.adapter = host, ref, commit, adapter
        self._root = root                # temp root owning the worktree
        self._env = env or {}
        self._log: list[tuple[int, str, CommandResult]] = []
        self._pgids: list[int] = []      # one group per command


def _write_wrappers(bin_dir: Path, adapter: ProjectAdapter) -> None:
    bin_dir.mkdir(parents=True, exist_ok=True)
    # wrappers run the full adapter command; agent-supplied flags like
    # `test -r` are part of the abstraction and are not forwarded
    for name, command in (
        ("compile", adapter.compile_command),
        ("test", adapter.test_relevant_command),
    ):
        script = bin_dir / name
        script.write_text(f"#!/usr/bin/env bash\n{command}\n")
        script.chmod(0o755)


def provision(bug_id: str, repo_path: Path | str, snapshot_ref: str,
              adapter: ProjectAdapter) -> SandboxHandle:
    """Create a fresh sandbox checked out at the buggy snapshot.

    `snapshot_ref` is resolved to its commit (`gitio.snapshot`) before
    any temp dir exists. The new repository borrows the host's object
    store through its alternates file, and the one checkout writes the
    worktree at that commit, so it cannot land on anything else. An
    unknown ref or a failed checkout raises ProvisionError.
    """
    try:
        objects, commit = gitio.snapshot(repo_path, snapshot_ref)
    except GitToolError as exc:
        raise ProvisionError(f"unknown snapshot {snapshot_ref!r}: {exc.stderr}") from exc
    root = Path(tempfile.mkdtemp(prefix=f"histrepair-{bug_id}-"))
    worktree = root / "work"
    try:
        # no template: nothing to copy, and no hook from the user's
        # init.templateDir can run in a sandbox
        gitio.run_git(root, "init", "--quiet", "--template=", str(worktree))
        (worktree / ".git" / "objects" / "info" / "alternates").write_text(objects + "\n")
        gitio.run_git(worktree, "checkout", "--detach", "--quiet", commit)
    except GitToolError as exc:
        shutil.rmtree(root, ignore_errors=True)
        raise ProvisionError(f"checkout failed: {exc.stderr}") from exc

    bin_dir = root / "bin"
    _write_wrappers(bin_dir, adapter)
    home = root / "home"
    home.mkdir()
    env = {
        "PATH": f"{bin_dir}:/usr/local/bin:/usr/bin:/bin",
        "HOME": str(home),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        # bytecode caches would otherwise leak into final patches
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    return SandboxHandle(
        bug_id=bug_id, worktree_path=worktree, host=Path(repo_path), ref=snapshot_ref,
        commit=commit, adapter=adapter, root=root, env=env,
    )


def exec_command(handle: SandboxHandle, command: str,
                 timeout: float = DEFAULT_COMMAND_TIMEOUT,
                 step_index: int = 0) -> CommandResult:
    """Run one command in the sandbox worktree and capture both streams.

    On timeout the command's whole process group is killed before its
    output is collected, so no child outlives the step; a process that
    left the group (`setsid`) may hold the pipes `_DRAIN_GRACE_SECONDS`
    longer at most. A background job that outlives a command which
    returned normally dies at teardown.
    """
    if not handle.alive:
        raise SandboxDead(f"sandbox for {handle.bug_id} is not alive")
    argv = ["bash", "--noprofile", "--norc", "-c", _SHELL_PRELUDE + command]
    start = time.monotonic()
    try:
        # the shell leads a new process group, so a timeout can kill
        # everything it started, pipelines and background jobs included
        # undecodable bytes (a Latin-1 source file, say) become U+FFFD
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, errors="replace", start_new_session=True,
                              cwd=str(handle.worktree_path), env=handle._env) as proc:
            handle._pgids.append(proc.pid)
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
                timed_out = False
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                try:
                    stdout, stderr = proc.communicate(timeout=_DRAIN_GRACE_SECONDS)
                except subprocess.TimeoutExpired as exc:
                    # keep what was read; the with block closes the pipes, reaps the shell
                    stdout = _decoded(exc.stdout, proc.stdout)
                    stderr = _decoded(exc.stderr, proc.stderr)
                timed_out = True
    except (OSError, subprocess.SubprocessError) as exc:
        raise SandboxDead(f"sandbox execution failed: {exc}") from exc
    result = CommandResult(
        stdout=stdout, stderr=stderr,
        exit_code=TIMEOUT_EXIT_CODE if timed_out else proc.returncode,
        duration=time.monotonic() - start,
        timed_out=timed_out,
    )
    handle._log.append((step_index, command, result))
    return result


def _decoded(data: bytes | None, pipe) -> str:
    """Bytes read from a text-mode pipe, decoded as `communicate` decodes them."""
    text = (data or b"").decode(pipe.encoding, pipe.errors)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def run_test(handle: SandboxHandle,
             timeout: float = DEFAULT_COMMAND_TIMEOUT,
             step_index: int = 0) -> tuple[CommandResult, TestOutcome]:
    """Run the adapter's relevant-test command and judge its outcome."""
    result = exec_command(handle, "test", timeout=timeout, step_index=step_index)
    return result, test_outcome(result)


def test_outcome(result: CommandResult) -> TestOutcome:
    """The outcome of one test command: the single test-outcome policy.

    Both streams are parsed for the failing-test block. A run that timed
    out, or whose output holds no such block, fails closed.
    """
    if result.timed_out:
        return TestOutcome(all_passed=False, failing_tests=("(test run timed out)",))
    try:
        return parse_failing_block(result.stdout + "\n" + result.stderr)
    except TestOutputParseError:
        return TestOutcome(all_passed=False, failing_tests=("(unparsed test output)",))


def final_patch(handle: SandboxHandle) -> str:
    """Unified diff of the worktree against the buggy snapshot.

    The diff is taken against the snapshot commit, not HEAD, so edits
    the agent committed stay in the patch. `--binary` writes a binary
    file's full content, so `git apply` can replay it in a fresh
    sandbox; a text-only diff is the same as without it.
    """
    # intent-to-add makes brand-new files visible to diff
    gitio.run_git(handle.worktree_path, "add", "-N", ".")
    # strict: a patch with a byte that is not UTF-8 must fail, not be altered
    return gitio.run_git(handle.worktree_path, "diff", "--binary", handle.commit,
                         errors="strict")


class Verdict(NamedTuple):
    """One verification: whether the tests passed, and the command that decided it."""

    passed: bool
    command: str
    result: CommandResult | None  # None when the sandbox died under the command


def verify(handle: SandboxHandle, patch: str, memo: gitio.CallMemo,
           timeout: float = DEFAULT_COMMAND_TIMEOUT, step_index: int = 0) -> bool:
    """Whether `patch` makes the tests pass at `handle`'s snapshot.

    The verdict comes from a fresh sandbox at the same commit with only
    the patch applied, never from `handle` itself. An empty patch is not
    a repair: it runs nothing and is not a pass. The deciding command
    and its result are appended to `handle`'s log at `step_index`. A
    fresh sandbox that cannot be provisioned raises ProvisionError.
    """
    if not patch:
        return False
    verdict = memo.get((handle.host, handle.commit, patch),
                       lambda: _verify_fresh(handle, patch, timeout))
    if verdict.result is not None:
        handle._log.append((step_index, verdict.command, verdict.result))
    return verdict.passed


def _verify_fresh(agent: SandboxHandle, patch: str, timeout: float) -> Verdict:
    fresh = provision(agent.bug_id, agent.host, agent.ref, agent.adapter)
    try:
        start = time.monotonic()
        try:
            gitio.run_git(fresh.worktree_path, "apply", input=patch)
        except GitToolError as exc:
            # a patch that does not apply is not a pass
            return Verdict(False, "git apply", CommandResult(
                stdout="", stderr=exc.stderr, exit_code=exc.returncode,
                duration=time.monotonic() - start))
        try:
            result, outcome = run_test(fresh, timeout=timeout)
        except SandboxDead:
            return Verdict(False, "test", None)
        return Verdict(outcome.all_passed, "test", result)
    finally:
        _destroy(fresh)


def render_command_log(handle: SandboxHandle) -> str:
    """Plain-text log: one block per executed command with a step header."""
    blocks = []
    for step, command, result in handle._log:
        blocks.append("\n".join([
            f"=== step {step} (exit {result.exit_code}"
            + (", timed out" if result.timed_out else "") + ")",
            f"$ {command}",
            result.stdout.rstrip("\n"),
            result.stderr.rstrip("\n"),
        ]).rstrip("\n"))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def teardown(handle: SandboxHandle, persist_dir: Path | str, patch: str) -> None:
    """Persist `patch` and the command log, then destroy the sandbox.

    `patch` is the run's final patch as the loop took it; teardown runs
    no git. Persistence failures abort destruction so no sandbox
    disappears without its artifacts. Calling twice is a no-op.
    """
    if not handle.alive:
        return
    persist_dir = Path(persist_dir)
    persist_dir.mkdir(parents=True, exist_ok=True)
    (persist_dir / f"{handle.bug_id}.patch").write_text(patch)
    (persist_dir / f"{handle.bug_id}.commands.log").write_text(render_command_log(handle))
    _destroy(handle)


def _destroy(handle: SandboxHandle) -> None:
    """Kill what the sandbox's commands started and remove its files."""
    for pgid in handle._pgids:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
    if handle._root is not None:
        shutil.rmtree(handle._root, ignore_errors=True)
    handle.alive = False
