"""Isolated execution environments for repair runs.

Each bug gets a private worktree checked out at the buggy snapshot,
with `compile` and `test` wrapper commands installed ahead of PATH so
the agent sees the same abstract toolset regardless of the project
underneath. Two backends:

* local: a temporary-directory clone. No container runtime needed;
  this is what tests and the bundled fixtures use.
* container: a docker container started from the adapter's image, with
  the repository copied in. Requires the docker CLI.

Commands run under a non-interactive bash with a pinned environment
allowlist so observations are reproducible.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import subprocess
import tempfile
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from . import gitio
from .errors import (
    PatchUnavailable,
    ProvisionError,
    SandboxDead,
    TestOutputParseError,
)

DEFAULT_COMMAND_TIMEOUT = 300.0
TIMEOUT_EXIT_CODE = 124

# the shell builtin `test` would shadow our test wrapper; disable it so
# PATH lookup wins
_SHELL_PRELUDE = "enable -n test 2>/dev/null\n"


@dataclass(frozen=True)
class ProjectAdapter:
    """How to build and test one project family inside its sandbox."""

    adapter_id: str
    compile_command: str
    test_relevant_command: str
    test_output_parser: str
    image: str = ""  # container image; unused by the local backend


BUILTIN_ADAPTERS = {
    "local-python": ProjectAdapter(
        adapter_id="local-python",
        compile_command="python3 -m compileall -q .",
        test_relevant_command="python3 run_tests.py",
        test_output_parser="failing-block",
        image="",
    ),
    "defects4j": ProjectAdapter(
        adapter_id="defects4j",
        compile_command="defects4j compile",
        test_relevant_command="defects4j test -r",
        test_output_parser="failing-block",
        image="defects4j:latest",
    ),
}


@dataclass(frozen=True)
class CommandResult:
    stdout: str
    stderr: str
    exit_code: int
    duration: float
    timed_out: bool = False


@dataclass(frozen=True)
class TestOutcome:
    all_passed: bool
    failing_tests: tuple[str, ...]
    raw_excerpt: str = ""


def parse_failing_block(output: str) -> TestOutcome:
    """Parse the `Failing tests: N` block followed by `  - name` lines.

    Both the bundled fixture runner and the defects4j CLI print this
    shape. Raises TestOutputParseError when the marker is absent.
    """
    m = re.search(r"^Failing tests:\s*(\d+)\s*$", output, re.MULTILINE)
    if not m:
        raise TestOutputParseError(
            "no 'Failing tests: N' marker in test output", raw_output=output,
        )
    count = int(m.group(1))
    names = []
    for line in output[m.end():].splitlines():
        nm = re.match(r"^\s+-\s+(\S.*)$", line)
        if nm:
            names.append(nm.group(1).strip())
        elif line.strip() and names:
            break
    if count != len(names) and count > 0 and not names:
        # count without names still identifies failure; synthesize
        names = [f"(unnamed failing test {i + 1})" for i in range(count)]
    excerpt = output[-2000:]
    return TestOutcome(
        all_passed=(count == 0),
        failing_tests=tuple(names[:count]),
        raw_excerpt=excerpt,
    )


TEST_PARSERS = {
    "failing-block": parse_failing_block,
}


@dataclass
class SandboxHandle:
    """One live sandbox: its worktree, adapter, backend and log."""

    bug_id: str
    backend: str                 # local | container
    worktree_path: Path
    adapter: ProjectAdapter
    alive: bool = True
    snapshot_ref: str = ""
    _root: Path | None = None            # temp root owning the worktree
    _container_id: str = ""
    _env: dict = field(default_factory=dict)
    _log: list[tuple[int, str, CommandResult]] = field(default_factory=list)
    _pgids: list[int] = field(default_factory=list)  # one group per command
    _manifest: dict | None = None


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
              adapter: ProjectAdapter | str,
              backend: str = "local") -> SandboxHandle:
    """Create a fresh sandbox checked out at the buggy snapshot."""
    if isinstance(adapter, str):
        if adapter not in BUILTIN_ADAPTERS:
            raise ProvisionError(f"unknown adapter {adapter!r}")
        adapter = BUILTIN_ADAPTERS[adapter]
    if backend == "local":
        return _provision_local(bug_id, Path(repo_path), snapshot_ref, adapter)
    if backend == "container":
        return _provision_container(bug_id, Path(repo_path), snapshot_ref, adapter)
    raise ProvisionError(f"unknown backend {backend!r}")


def _provision_local(bug_id: str, repo_path: Path, snapshot_ref: str,
                     adapter: ProjectAdapter) -> SandboxHandle:
    root = Path(tempfile.mkdtemp(prefix=f"histrepair-{bug_id}-"))
    worktree = root / "work"
    try:
        subprocess.run(
            ["git", "clone", "--no-hardlinks", "--quiet",
             str(repo_path), str(worktree)],
            check=True, capture_output=True, text=True,
        )
        subprocess.run(
            ["git", "-C", str(worktree), "checkout", "--detach",
             "--quiet", snapshot_ref],
            check=True, capture_output=True, text=True,
        )
    except subprocess.CalledProcessError as exc:
        shutil.rmtree(root, ignore_errors=True)
        raise ProvisionError(f"checkout failed: {exc.stderr}") from exc

    want = gitio.tree_hash(repo_path, snapshot_ref)
    got = gitio.tree_hash(worktree, "HEAD")
    if want != got:
        shutil.rmtree(root, ignore_errors=True)
        raise ProvisionError(
            f"worktree tree hash {got} does not match snapshot {want}"
        )

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
        bug_id=bug_id, backend="local", worktree_path=worktree,
        adapter=adapter, snapshot_ref=snapshot_ref, _root=root, _env=env,
    )


def _provision_container(bug_id: str, repo_path: Path, snapshot_ref: str,
                         adapter: ProjectAdapter) -> SandboxHandle:
    if not adapter.image:
        raise ProvisionError(f"adapter {adapter.adapter_id} declares no image")
    name = f"histrepair-{bug_id}-{uuid.uuid4().hex[:8]}"
    try:
        subprocess.run(
            ["docker", "run", "-d", "--name", name, adapter.image,
             "sleep", "infinity"],
            check=True, capture_output=True, text=True,
        )
        subprocess.run(
            ["docker", "cp", f"{repo_path}/.", f"{name}:/work"],
            check=True, capture_output=True, text=True,
        )
        subprocess.run(
            ["docker", "exec", name, "git", "-C", "/work",
             "checkout", "--detach", snapshot_ref],
            check=True, capture_output=True, text=True,
        )
        wrapper_cmds = (
            f"mkdir -p /sandbox-bin && "
            f"printf '#!/usr/bin/env bash\\n%s\\n' '{adapter.compile_command}'"
            f" > /sandbox-bin/compile && "
            f"printf '#!/usr/bin/env bash\\n%s\\n' '{adapter.test_relevant_command}'"
            f" > /sandbox-bin/test && chmod 755 /sandbox-bin/compile /sandbox-bin/test"
        )
        subprocess.run(
            ["docker", "exec", name, "bash", "-c", wrapper_cmds],
            check=True, capture_output=True, text=True,
        )
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        subprocess.run(["docker", "rm", "-f", name], capture_output=True)
        detail = getattr(exc, "stderr", str(exc))
        raise ProvisionError(f"container provisioning failed: {detail}") from exc
    env = {
        "PATH": "/sandbox-bin:/usr/local/bin:/usr/bin:/bin",
        "HOME": "/root",
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
    }
    return SandboxHandle(
        bug_id=bug_id, backend="container", worktree_path=Path("/work"),
        adapter=adapter, snapshot_ref=snapshot_ref,
        _container_id=name, _env=env,
    )


def exec_command(handle: SandboxHandle, command: str,
                 timeout: float = DEFAULT_COMMAND_TIMEOUT,
                 step_index: int = 0) -> CommandResult:
    """Run one command in the sandbox worktree and capture both streams.

    On timeout the command's whole process group is killed before its
    output is collected, so no child outlives the step. A background job
    that outlives a command which returned normally dies at teardown.
    """
    if not handle.alive:
        raise SandboxDead(f"sandbox for {handle.bug_id} is not alive")
    script = _SHELL_PRELUDE + command
    if handle.backend == "local":
        argv = ["bash", "--noprofile", "--norc", "-c", script]
        kwargs = {"cwd": str(handle.worktree_path), "env": handle._env}
    else:
        env_flags = []
        for k, v in handle._env.items():
            env_flags += ["-e", f"{k}={v}"]
        argv = ["docker", "exec", "-w", str(handle.worktree_path),
                *env_flags, handle._container_id, "bash", "-c", script]
        kwargs = {}
    import time as _time
    start = _time.monotonic()
    try:
        # the shell leads a new process group, so a timeout can kill
        # everything it started, pipelines and background jobs included
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True, **kwargs) as proc:
            handle._pgids.append(proc.pid)
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
                timed_out = False
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                stdout, stderr = proc.communicate()
                timed_out = True
    except (OSError, subprocess.SubprocessError) as exc:
        raise SandboxDead(f"sandbox execution failed: {exc}") from exc
    result = CommandResult(
        stdout=stdout, stderr=stderr,
        exit_code=TIMEOUT_EXIT_CODE if timed_out else proc.returncode,
        duration=_time.monotonic() - start,
        timed_out=timed_out,
    )
    handle._log.append((step_index, command, result))
    return result


def run_test(handle: SandboxHandle,
             timeout: float = DEFAULT_COMMAND_TIMEOUT,
             step_index: int = 0) -> tuple[CommandResult, TestOutcome]:
    """Run the adapter's relevant-test command and parse the outcome.

    A timed-out run is fail-closed without parsing. Unparseable output
    raises TestOutputParseError; callers record it as not-passed.
    """
    result = exec_command(handle, "test", timeout=timeout, step_index=step_index)
    if result.timed_out:
        return result, TestOutcome(
            all_passed=False,
            failing_tests=("(test run timed out)",),
            raw_excerpt=(result.stdout + result.stderr)[-2000:],
        )
    parser = TEST_PARSERS[handle.adapter.test_output_parser]
    outcome = parser(result.stdout + "\n" + result.stderr)
    return result, outcome


def fail_closed_outcome(raw_output: str) -> TestOutcome:
    """The TestOutcome recorded when test output could not be parsed."""
    return TestOutcome(
        all_passed=False,
        failing_tests=("(unparsed test output)",),
        raw_excerpt=raw_output[-2000:],
    )


def final_patch(handle: SandboxHandle) -> str:
    """Unified diff of the worktree against the buggy snapshot."""
    if handle.backend == "local":
        if not handle.worktree_path.exists():
            raise PatchUnavailable(f"worktree for {handle.bug_id} is gone")
        # intent-to-add makes brand-new files visible to diff
        gitio.run_git(handle.worktree_path, "add", "-N", ".")
        return gitio.run_git(handle.worktree_path, "diff", "HEAD")
    if not handle.alive:
        raise PatchUnavailable(f"container for {handle.bug_id} is gone")
    add = subprocess.run(
        ["docker", "exec", handle._container_id, "git", "-C",
         str(handle.worktree_path), "add", "-N", "."],
        capture_output=True, text=True,
    )
    proc = subprocess.run(
        ["docker", "exec", handle._container_id, "git", "-C",
         str(handle.worktree_path), "diff", "HEAD"],
        capture_output=True, text=True,
    )
    if add.returncode != 0 or proc.returncode != 0:
        raise PatchUnavailable(proc.stderr or add.stderr)
    return proc.stdout


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


def teardown(handle: SandboxHandle, persist_dir: Path | str) -> dict:
    """Persist patch and log, then destroy the sandbox.

    Persistence failures abort destruction so no sandbox disappears
    without its artifacts. Calling twice is a no-op returning the
    first manifest.
    """
    if handle._manifest is not None:
        return handle._manifest
    persist_dir = Path(persist_dir)
    persist_dir.mkdir(parents=True, exist_ok=True)
    try:
        patch_text = final_patch(handle)
    except PatchUnavailable:
        patch_text = ""
    patch_file = persist_dir / f"{handle.bug_id}.patch"
    log_file = persist_dir / f"{handle.bug_id}.commands.log"
    patch_file.write_text(patch_text)
    log_file.write_text(render_command_log(handle))

    if handle.backend == "local":
        for pgid in handle._pgids:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
        if handle._root is not None:
            shutil.rmtree(handle._root, ignore_errors=True)
    else:
        subprocess.run(["docker", "rm", "-f", handle._container_id],
                       capture_output=True)
    handle.alive = False
    handle._manifest = {"patch": str(patch_file), "log": str(log_file)}
    return handle._manifest
