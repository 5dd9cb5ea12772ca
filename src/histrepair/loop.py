"""The repair agent loop.

One run drives a single bug under a single configuration: query the
provider, parse exactly one bash action, execute it in the sandbox,
feed the observation back, and stop on the completion sentinel or a
guard. The transcript is append-only; the run record is the full
audit trail and serializes to line-delimited JSON (`records`).

Every step ends at one site, which charges it and then checks the
guards in order (steps, cost, wall time) unless the step completed the
run. A reply that holds no action is retried once within its step; a
second such reply makes the step malformed. Two endings charge no
step: a provider failure (ProviderError) and a second sandbox death
with no command run between the two (SandboxError).

When the loop ends it takes the final patch once and asks for its
verdict: the patch is applied in a fresh sandbox at the same snapshot
and the tests run there (`sandbox.verify`), never in the sandbox the
agent worked in, so nothing the agent changed outside the patch (the
test wrapper, say) counts. An empty patch is not a repair and runs no
test. Verdicts are remembered per distinct patch for one CLI call, so a
flaky test gives one verdict per distinct patch, not one per run.
"""

from __future__ import annotations

import re
import time
from decimal import Decimal
from typing import Callable

from . import gitio
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
from .provider import Provider, accumulate_cost
# the records' home is `records`; perfbench wraps loop.write_run_record
# and imports loop.comparable_record_lines, so both stay reachable here
from .records import (  # noqa: F401
    RunRecord,
    TranscriptMessage,
    comparable_record_lines,
    write_run_record,
)

# per-stream observation cap: keep the head and the tail, drop the middle
OBS_HEAD = 6000
OBS_TAIL = 2000

# the note after a step's first and its second reply that holds no action
_ACTION_ERROR_NOTES = (
    ("action error", "Reply with exactly ONE bash code block containing ONE command."),
    ("malformed action", "This step is recorded as malformed."),
)

_FENCE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
_TEST_INVOCATION = re.compile(r"(?:^|[;&|(\n])\s*test(?:\s|[);&|]|$)")


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


class LoopHarness:
    """Everything one run needs besides the prompts."""

    provider: Provider
    rates: tuple[Decimal, Decimal]  # USD per million input, output tokens
    guards: GuardConfig
    sentinel: str
    clock: Callable[[], float]
    verdicts: gitio.CallMemo        # one memo per CLI call, shared by its runs

    def __init__(self, provider: Provider, rates: tuple[Decimal, Decimal],
                 guards: GuardConfig = GuardConfig(), sentinel: str = DEFAULT_SENTINEL,
                 clock: Callable[[], float] = time.monotonic,
                 verdicts: gitio.CallMemo | None = None) -> None:
        self.provider, self.rates, self.guards = provider, rates, guards
        self.sentinel, self.clock = sentinel, clock
        self.verdicts = gitio.CallMemo() if verdicts is None else verdicts


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

    while termination is None:
        command = None
        for label, advice in _ACTION_ERROR_NOTES:
            try:
                reply = harness.provider.complete(_provider_messages(transcript))
            except ProviderFailure:
                termination = "ProviderError"
                break
            transcript.append(TranscriptMessage(
                "assistant", reply.text, steps + 1, token_usage=reply.usage,
            ))
            cost += accumulate_cost(reply.usage, harness.rates)
            try:
                command = parse_action(reply.text)
                break
            except ActionParseError as exc:
                transcript.append(TranscriptMessage(
                    "observation",
                    f"{label}: {type(exc).__name__}: {exc}. {advice}",
                    steps + 1,
                ))
        if termination is not None:
            break

        if command is not None:
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
            else:
                dead_streak = 0
                outcome: sb.TestOutcome | None = None
                if invokes_test(command):
                    outcome = last_test = sb.test_outcome(result)
                obs = _observation_text(result, outcome)
                if harness.sentinel in command:
                    if last_test is not None and last_test.all_passed:
                        termination = "CompletedSignal"
                    else:
                        obs += ("\ncompletion signal ignored: tests have not "
                                "been verified as passing. Run `test` first.")
                transcript.append(TranscriptMessage("observation", obs, steps + 1))

        # the step site: every step is charged here
        steps += 1
        if termination is None:
            if steps >= guards.max_steps:
                termination = "StepLimit"
            elif cost >= guards.max_cost:
                termination = "CostLimit"
            elif harness.clock() - start >= guards.max_wall_time:
                termination = "Timeout"

    # a run whose patch cannot be taken (the agent removed .git, say)
    # has no patch, and an empty patch is not a pass
    try:
        patch = sb.final_patch(handle)
    except Exception:
        patch = ""
    passed_at_end = sb.verify(handle, patch, harness.verdicts,
                              timeout=guards.per_command_timeout, step_index=steps + 1)

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
