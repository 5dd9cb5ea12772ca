"""The repair agent loop.

One run drives a single bug under a single configuration: query the
provider, parse exactly one bash action, execute it in the sandbox,
feed the observation back, and stop on the completion sentinel or a
guard. The transcript is append-only; the run record is the full
audit trail and serializes to line-delimited JSON.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable

from . import sandbox as sb
from .config import DEFAULT_SENTINEL, GuardConfig
from .errors import (
    ActionParseError,
    AmbiguousAction,
    EmptyAction,
    NoActionFound,
    ProviderFailure,
    SandboxDead,
)
from .provider import Provider, TokenUsage, accumulate_cost

# per-stream observation cap: keep the head and the tail, drop the middle
OBS_HEAD = 6000
OBS_TAIL = 2000

_FENCE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
_TEST_INVOCATION = re.compile(r"(?:^|[;&|(\n])\s*test(?:\s|[);&|]|$)")


@dataclass
class TranscriptMessage:
    role: str        # system | user | assistant | observation
    content: str
    step_index: int
    token_usage: TokenUsage | None = None


@dataclass
class RunRecord:
    bug_id: str
    config: str
    transcript: list[TranscriptMessage]
    steps_taken: int
    total_cost: Decimal
    wall_time: float
    termination: str  # CompletedSignal | StepLimit | CostLimit | Timeout | ProviderError | SandboxError
    tests_passed_at_end: bool
    final_patch: str


def parse_action(model_output: str) -> str:
    """The command in the single fenced block of a model reply."""
    blocks = _FENCE.findall(model_output)
    if len(blocks) == 0:
        raise NoActionFound("reply contains no fenced code block")
    if len(blocks) > 1:
        raise AmbiguousAction(f"reply contains {len(blocks)} fenced code blocks")
    command = blocks[0].strip()
    if not command:
        raise EmptyAction("fenced code block is empty")
    return command


def invokes_test(command: str) -> bool:
    """Whether a command line runs the sandbox test wrapper."""
    return bool(_TEST_INVOCATION.search(command))


def clip_stream(text: str) -> str:
    """Apply the head+tail observation cap to one output stream."""
    if len(text) <= OBS_HEAD + OBS_TAIL:
        return text
    return (text[:OBS_HEAD]
            + "\n[... output truncated ...]\n"
            + text[-OBS_TAIL:])


def _observation_text(result: sb.CommandResult,
                      outcome: sb.TestOutcome | None) -> str:
    parts = [f"exit code: {result.exit_code}"
             + (" (timed out)" if result.timed_out else "")]
    if result.stdout:
        parts.append("stdout:\n" + clip_stream(result.stdout))
    if result.stderr:
        parts.append("stderr:\n" + clip_stream(result.stderr))
    if outcome is not None:
        if outcome.all_passed:
            parts.append("test outcome: all tests passed")
        else:
            names = ", ".join(outcome.failing_tests)
            parts.append(f"test outcome: failing tests: {names}")
    return "\n".join(parts)


def _provider_messages(transcript: list[TranscriptMessage]) -> list[dict]:
    # chat endpoints know no observation role; observations travel as user
    out = []
    for msg in transcript:
        role = "user" if msg.role == "observation" else msg.role
        out.append({"role": role, "content": msg.content})
    return out


@dataclass
class LoopHarness:
    """Everything one run needs besides the prompts."""

    provider: Provider
    rates: tuple[Decimal, Decimal]  # USD per million input, output tokens
    guards: GuardConfig = field(default_factory=GuardConfig)
    sentinel: str = DEFAULT_SENTINEL
    clock: Callable[[], float] = time.monotonic


def run(bug_id: str, config: str, system_prompt: str, user_prompt: str,
        handle: sb.SandboxHandle, harness: LoopHarness) -> RunRecord:
    """Drive the loop to termination and return the full record."""
    guards = harness.guards
    start = harness.clock()
    transcript: list[TranscriptMessage] = [
        TranscriptMessage("system", system_prompt, 0),
        TranscriptMessage("user", user_prompt, 0),
    ]
    steps = 0
    cost = Decimal("0")
    last_test: sb.TestOutcome | None = None
    dead_streak = 0
    termination: str | None = None

    def query() -> str | None:
        """One provider call; bills cost. None signals ProviderError."""
        nonlocal cost
        try:
            reply = harness.provider.complete(_provider_messages(transcript))
        except ProviderFailure:
            return None
        transcript.append(TranscriptMessage(
            "assistant", reply.text, steps + 1, token_usage=reply.usage,
        ))
        cost += accumulate_cost(reply.usage, harness.rates)
        return reply.text

    def check_guards() -> str | None:
        if steps >= guards.max_steps:
            return "StepLimit"
        if cost >= guards.max_cost:
            return "CostLimit"
        if harness.clock() - start >= guards.max_wall_time:
            return "Timeout"
        return None

    while termination is None:
        text = query()
        if text is None:
            termination = "ProviderError"
            break

        try:
            command = parse_action(text)
        except ActionParseError as exc:
            transcript.append(TranscriptMessage(
                "observation",
                f"action error: {type(exc).__name__}: {exc}. "
                "Reply with exactly ONE bash code block containing ONE command.",
                steps + 1,
            ))
            retry = query()  # one in-step retry before the step is charged
            if retry is None:
                termination = "ProviderError"
                break
            try:
                command = parse_action(retry)
            except ActionParseError as exc2:
                transcript.append(TranscriptMessage(
                    "observation",
                    f"malformed action: {type(exc2).__name__}: {exc2}. "
                    "This step is recorded as malformed.",
                    steps + 1,
                ))
                steps += 1
                termination = check_guards()
                continue

        try:
            result = sb.exec_command(
                handle, command,
                timeout=guards.per_command_timeout, step_index=steps + 1,
            )
        except SandboxDead as exc:
            dead_streak += 1
            if dead_streak >= 2:
                termination = "SandboxError"
                break
            transcript.append(TranscriptMessage(
                "observation", f"ToolError: {exc}", steps + 1,
            ))
            steps += 1
            termination = check_guards()
            continue
        dead_streak = 0

        outcome: sb.TestOutcome | None = None
        if invokes_test(command):
            outcome = last_test = sb.test_outcome(result)

        signaled = harness.sentinel in command
        completed = signaled and last_test is not None and last_test.all_passed
        obs = _observation_text(result, outcome)
        if signaled and not completed:
            obs += ("\ncompletion signal ignored: tests have not been "
                    "verified as passing. Run `test` first.")
        transcript.append(TranscriptMessage("observation", obs, steps + 1))
        steps += 1

        if completed:
            termination = "CompletedSignal"
        else:
            termination = check_guards()

    # capture the patch and verify tests independently of the transcript;
    # a run whose patch cannot be taken (the agent removed .git, say) is
    # not a pass, so its tests do not run
    passed_at_end = False
    try:
        patch = sb.final_patch(handle)
    except Exception:
        patch = ""
    else:
        try:
            _, final_outcome = sb.run_test(
                handle, timeout=guards.per_command_timeout, step_index=steps + 1,
            )
            passed_at_end = final_outcome.all_passed
        except SandboxDead:
            pass

    return RunRecord(
        bug_id=bug_id,
        config=config,
        transcript=transcript,
        steps_taken=steps,
        total_cost=cost,
        wall_time=harness.clock() - start,
        termination=termination,
        tests_passed_at_end=passed_at_end,
        final_patch=patch,
    )


# ---------------------------------------------------------------------------
# persistence: one JSONL file per (bug, config)

def record_filename(bug_id: str, config: str) -> str:
    return f"{bug_id}__{config}.jsonl"


def write_run_record(record: RunRecord, path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({
        "type": "meta",
        "bug_id": record.bug_id,
        "config": record.config,
    })]
    for msg in record.transcript:
        obj: dict = {
            "type": "message",
            "role": msg.role,
            "step_index": msg.step_index,
            "content": msg.content,
        }
        if msg.token_usage is not None:
            obj["input_tokens"] = msg.token_usage.input_tokens
            obj["output_tokens"] = msg.token_usage.output_tokens
        lines.append(json.dumps(obj))
    lines.append(json.dumps({
        "type": "result",
        "termination": record.termination,
        "steps_taken": record.steps_taken,
        "total_cost": str(record.total_cost),
        "tests_passed_at_end": record.tests_passed_at_end,
        "final_patch": record.final_patch,
        "wall_time": record.wall_time,
    }))
    path.write_text("\n".join(lines) + "\n")


def load_run_record(path: Path | str) -> RunRecord:
    meta: dict = {}
    result: dict = {}
    transcript: list[TranscriptMessage] = []
    for raw in Path(path).read_text().splitlines():
        if not raw.strip():
            continue
        obj = json.loads(raw)
        if obj["type"] == "meta":
            meta = obj
        elif obj["type"] == "message":
            usage = None
            if "input_tokens" in obj:
                usage = TokenUsage(obj["input_tokens"], obj["output_tokens"])
            transcript.append(TranscriptMessage(
                role=obj["role"], content=obj["content"],
                step_index=obj["step_index"], token_usage=usage,
            ))
        elif obj["type"] == "result":
            result = obj
    return RunRecord(
        bug_id=meta["bug_id"],
        config=meta["config"],
        transcript=transcript,
        steps_taken=result["steps_taken"],
        total_cost=Decimal(result["total_cost"]),
        wall_time=result["wall_time"],
        termination=result["termination"],
        tests_passed_at_end=result["tests_passed_at_end"],
        final_patch=result["final_patch"],
    )


def comparable_record_lines(path: Path | str) -> list[str]:
    """Record lines with wall-clock fields dropped, for replay checks."""
    lines = []
    for raw in Path(path).read_text().splitlines():
        if not raw.strip():
            continue
        obj = json.loads(raw)
        obj.pop("wall_time", None)
        lines.append(json.dumps(obj, sort_keys=True))
    return lines
