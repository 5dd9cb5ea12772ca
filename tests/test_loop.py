"""Agent loop: action parsing, guards, termination, records."""

import io
import json
import urllib.request
from decimal import Decimal

import pytest

from histrepair import loop, records, sandbox as sb, synth
from histrepair.config import BUILTIN_ADAPTERS
from histrepair.errors import AmbiguousAction, EmptyAction, NoActionFound
from histrepair.loop import (
    GuardConfig,
    LoopHarness,
    clip_stream,
    comparable_record_lines,
    invokes_test,
    parse_action,
)
from histrepair.provider import HttpProvider, ScriptedProvider

RATES = (Decimal("0.28"), Decimal("0.42"))
FLAT = (Decimal("1.00"), Decimal("0.00"))  # each 100k input tokens cost 0.100000

FIX_CMD = "sed -i 's/return a - b  # fast path/return a + b/' calc.py"


def reply(text, inp=10, out=5):
    return {"text": text, "input_tokens": inp, "output_tokens": out}


def block(command):
    return f"```bash\n{command}\n```"


@pytest.fixture
def toy(tmp_path):
    return synth.build_toy_campaign(tmp_path / "toy")


def fresh_sandbox(toy):
    return sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                        BUILTIN_ADAPTERS["local-python"])


def run_with(toy, replies, guards=None, clock=None, provider=None):
    handle = fresh_sandbox(toy)
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    harness = LoopHarness(
        provider=provider or ScriptedProvider(replies=replies),
        rates=RATES,
        guards=guards or GuardConfig(),
        **kwargs,
    )
    record = None
    try:
        record = loop.run(synth.TOY_BUG_ID, "non_history", "sys", "user",
                          handle, harness)
        return record
    finally:
        sb.teardown(handle, toy["root"] / "artifacts",
                    record.final_patch if record is not None else "")


# --- action parsing -------------------------------------------------------

def test_parse_action_extracts_single_block():
    assert parse_action("I will look around.\n```bash\nls -la\n```\nDone.") == "ls -la"


def test_parse_action_plain_fence_and_multiline():
    assert parse_action("```\nls\npwd\n```") == "ls\npwd"


def test_parse_action_rejects_missing_block():
    with pytest.raises(NoActionFound):
        parse_action("no code here, just `inline` ticks")


def test_parse_action_rejects_two_blocks():
    with pytest.raises(AmbiguousAction):
        parse_action(block("ls") + "\nthen\n" + block("pwd"))


def test_parse_action_rejects_empty_block():
    with pytest.raises(EmptyAction):
        parse_action("```bash\n   \n```")


INVOKES_CASES = [
    ("test", True),
    ("test -r", True),
    ("compile && test -r", True),
    ("compile; test", True),
    ("echo hi | test", True),
    ("(test)", True),
    ("ls\ntest -r", True),
    ("ls test", False),          # argument, not an invocation
    ("echo test", False),
    ("latest -r", False),
    ("pytest -x", False),
    ("./test.sh", False),
]


def test_invokes_test_cases():
    for command, expected in INVOKES_CASES:
        assert invokes_test(command) == expected, command


def test_clip_stream_keeps_short_output():
    assert clip_stream("x" * 7999) == "x" * 7999


def test_clip_stream_caps_head_and_tail():
    text = "h" * 6000 + "m" * 5000 + "t" * 2000
    clipped = clip_stream(text)
    assert clipped.startswith("h" * 6000)
    assert clipped.endswith("t" * 2000)
    assert "[... output truncated ...]" in clipped
    assert "m" * 100 not in clipped


def test_guard_config_rejects_nonpositive_limits():
    for kwargs in ({"max_steps": 0}, {"max_cost": Decimal("0")},
                   {"max_wall_time": -1.0}, {"per_command_timeout": 0}):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


# --- full runs against the toy project ------------------------------------

def test_happy_path_completes_in_four_steps(toy):
    replies = synth._scripted_replies(loop.DEFAULT_SENTINEL)
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 4
    assert record.tests_passed_at_end is True
    # hand-computed from the scripted token counts at 0.28/0.42 per million
    assert record.total_cost == Decimal("0.001308")
    assert "+    return a + b" in record.final_patch
    assert "-    return a - b  # fast path" in record.final_patch


def test_happy_path_transcript_shape(toy):
    record = run_with(toy, synth._scripted_replies(loop.DEFAULT_SENTINEL))
    roles = [m.role for m in record.transcript]
    assert roles == (["system", "user"]
                     + ["assistant", "observation"] * 4)
    assert [m.step_index for m in record.transcript] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    for msg in record.transcript:
        if msg.role == "assistant":
            assert msg.token_usage is not None
        else:
            assert msg.token_usage is None
    # the passing test run is visible in the transcript
    assert any("all tests passed" in m.content for m in record.transcript
               if m.role == "observation")


def test_step_limit_fires_at_exact_boundary(toy):
    replies = [reply(block("echo step")) for _ in range(10)]
    record = run_with(toy, replies, guards=GuardConfig(max_steps=5))
    assert record.termination == "StepLimit"
    assert record.steps_taken == 5
    assert record.tests_passed_at_end is False


def test_cost_limit_fires_at_exact_cap(toy):
    handle = fresh_sandbox(toy)
    replies = [reply(block("echo spend"), inp=100_000, out=0)
               for _ in range(10)]
    harness = LoopHarness(
        provider=ScriptedProvider(replies=replies),
        rates=FLAT,
        guards=GuardConfig(max_cost=Decimal("0.30")),
    )
    record = loop.run(synth.TOY_BUG_ID, "non_history", "s", "u",
                      handle, harness)
    sb.teardown(handle, toy["root"] / "artifacts", record.final_patch)
    assert record.termination == "CostLimit"
    assert record.steps_taken == 3
    assert record.total_cost == Decimal("0.300000")


def test_timeout_guard_uses_injected_clock(toy):
    ticks = {"t": 0.0}

    def clock():
        ticks["t"] += 100.0
        return ticks["t"]

    replies = [reply(block("echo tick")) for _ in range(10)]
    record = run_with(toy, replies, clock=clock,
                      guards=GuardConfig(max_wall_time=250.0))
    assert record.termination == "Timeout"
    assert record.steps_taken == 3
    assert record.wall_time > 0


def test_completion_needs_passing_test_first(toy):
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply(f"done already\n{block('echo ' + sentinel)}"),
        reply(block(FIX_CMD)),
        reply(block("test -r")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 4
    first_obs = [m for m in record.transcript if m.role == "observation"][0]
    assert "completion signal ignored" in first_obs.content


def test_completion_ignores_stale_failing_test(toy):
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply(block("test")),                    # fails: bug still present
        reply(block(f"echo {sentinel}")),        # must be ignored
        reply(block(FIX_CMD)),
        reply(block("test")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 5
    observations = [m.content for m in record.transcript
                    if m.role == "observation"]
    assert "completion signal ignored" in observations[1]
    assert "failing tests: test_add" in observations[0]


def test_timed_out_or_unparsed_test_run_fails_closed(toy):
    replies = [
        reply(block("sleep 5; test")),
        reply(block("test >/dev/null 2>&1")),
        reply(block(f"echo {loop.DEFAULT_SENTINEL}")),
    ]
    record = run_with(toy, replies,
                      guards=GuardConfig(max_steps=3, per_command_timeout=1.0))
    obs = [m.content for m in record.transcript if m.role == "observation"]
    assert "test outcome: failing tests: (test run timed out)" in obs[0]
    assert "test outcome: failing tests: (unparsed test output)" in obs[1]
    assert "completion signal ignored" in obs[2]
    assert record.termination == "StepLimit"


def test_malformed_reply_gets_one_retry(toy):
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply("thinking out loud, no command"),  # malformed
        reply(block(FIX_CMD)),                   # retry succeeds, same step
        reply(block("test")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 3
    errors = [m.content for m in record.transcript
              if m.role == "observation" and "action error:" in m.content]
    assert len(errors) == 1
    assert "NoActionFound" in errors[0]


def test_double_malformed_costs_a_step(toy):
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply("nothing"),                        # malformed
        reply("still nothing"),                  # retry also malformed
        reply(block(FIX_CMD)),
        reply(block("test")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 4
    assert any("malformed action" in m.content for m in record.transcript
               if m.role == "observation")


def test_provider_exhaustion_terminates_run(toy):
    record = run_with(toy, [reply(block("echo once"))])
    assert record.termination == "ProviderError"
    assert record.steps_taken == 1
    assert record.tests_passed_at_end is False


@pytest.mark.parametrize("edit", [
    lambda payload: payload["choices"][0]["message"].update(content=None),
    lambda payload: payload["choices"][0]["message"].update(
        content=[{"type": "text", "text": block("ls")}]),
    lambda payload: payload.pop("usage"),
], ids=["null-content", "list-content", "no-usage"])
def test_reply_the_provider_cannot_bill_or_parse_ends_the_run(toy, tmp_path,
                                                             monkeypatch, edit):
    # a tool-call reply carries null content and some endpoints send a
    # list of parts; neither, nor a reply without token counts, reaches
    # parse_action or the bill
    payload = {"choices": [{"message": {"content": block("ls")}}],
               "usage": {"prompt_tokens": 900, "completion_tokens": 30}}
    edit(payload)
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None:
                        io.BytesIO(json.dumps(payload).encode("utf-8")))
    provider = HttpProvider(endpoint="https://api.example.invalid/v1/chat",
                            model="m", sleeper=lambda seconds: None)
    record = run_with(toy, [], provider=provider)
    assert record.termination == "ProviderError"
    assert record.steps_taken == 0
    assert [m.role for m in record.transcript] == ["system", "user"]
    assert record.tests_passed_at_end is False
    path = tmp_path / "r.jsonl"
    records.write_run_record(record, path)
    assert records.record_is_complete(path)


class RecordingProvider:
    """Scripted replies that keep the messages of every call."""

    def __init__(self, replies):
        self.scripted = ScriptedProvider(replies=replies)
        self.calls = []

    def complete(self, messages):
        self.calls.append(messages)
        return self.scripted.complete(messages)


def test_provider_receives_the_transcript_with_observations_as_user_turns(toy):
    provider = RecordingProvider(synth._scripted_replies(loop.DEFAULT_SENTINEL))
    record = run_with(toy, [], provider=provider)
    assert record.termination == "CompletedSignal"
    assert [m["role"] for m in provider.calls[-1]] == \
        ["system", "user"] + ["assistant", "user"] * 3
    assert provider.calls[0] == [{"role": "system", "content": "sys"},
                                 {"role": "user", "content": "user"}]
    # each call sends the whole transcript so far, in order
    sent = [{"role": "user" if m.role == "observation" else m.role,
             "content": m.content} for m in record.transcript]
    assert provider.calls == [sent[:2 + 2 * i] for i in range(4)]


def test_two_consecutive_sandbox_deaths(toy, monkeypatch):
    def always_dead(handle, command, timeout=0, step_index=0):
        raise sb.SandboxDead("gone")

    monkeypatch.setattr(sb, "exec_command", always_dead)
    replies = [reply(block("echo hi")) for _ in range(5)]
    record = run_with(toy, replies)
    assert record.termination == "SandboxError"
    assert record.steps_taken == 1
    assert any(m.content.startswith("ToolError:") for m in record.transcript
               if m.role == "observation")
    assert record.tests_passed_at_end is False


def test_single_sandbox_death_recovers(toy, monkeypatch):
    real_exec = sb.exec_command
    state = {"failed": False}

    def dead_once(handle, command, timeout=sb.DEFAULT_COMMAND_TIMEOUT,
                  step_index=0):
        if not state["failed"]:
            state["failed"] = True
            raise sb.SandboxDead("hiccup")
        return real_exec(handle, command, timeout=timeout,
                         step_index=step_index)

    monkeypatch.setattr(sb, "exec_command", dead_once)
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply(block("echo probe")),   # dies once
        reply(block(FIX_CMD)),
        reply(block("test")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 4
    assert record.tests_passed_at_end is True


def test_end_state_verified_independently_of_claims(toy):
    # agent never runs `test` but still walks away; the record must not
    # report success on its word
    replies = [reply(block(FIX_CMD))]
    record = run_with(toy, replies)
    assert record.termination == "ProviderError"
    assert record.tests_passed_at_end is True  # fix was real, verified at end
    assert "+    return a + b" in record.final_patch


def test_rewritten_test_wrapper_is_not_a_pass(toy):
    # the wrapper lives outside the worktree, so the patch cannot carry
    # the rewrite, and the fresh verification sandbox has the real one
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply(block("echo '# touched' >> calc.py")),
        reply(block("printf '#!/usr/bin/env bash\\necho \"Failing tests: 0\"\\n'"
                    " > ../bin/test")),
        reply(block("test")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert "+# touched" in record.final_patch
    assert record.tests_passed_at_end is False


def test_empty_patch_runs_no_test_and_is_not_a_pass(toy, monkeypatch):
    commands = []
    real = sb.exec_command

    def spy(handle, command, *args, **kwargs):
        commands.append(command)
        return real(handle, command, *args, **kwargs)

    monkeypatch.setattr(sb, "exec_command", spy)
    record = run_with(toy, [reply(block("ls"))])
    assert record.final_patch == ""
    assert record.tests_passed_at_end is False
    assert commands == ["ls"]


def test_output_that_is_not_utf8_does_not_end_the_run(toy):
    # Latin-1 sources are common; one `cat` of such a file must not kill the job
    replies = [reply(block("printf 'caf\\xe9\\n'"))] + \
        synth._scripted_replies(loop.DEFAULT_SENTINEL)
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.steps_taken == 5
    obs = [m.content for m in record.transcript if m.role == "observation"]
    assert "caf\ufffd" in obs[0]
    assert record.tests_passed_at_end is True


def test_run_whose_patch_cannot_be_taken_is_not_a_pass(toy):
    # the fix is real and verified in the loop, but with .git gone the
    # final patch cannot be taken, so the run is not a pass
    sentinel = loop.DEFAULT_SENTINEL
    replies = [
        reply(block(FIX_CMD)),
        reply(block("rm -rf .git")),
        reply(block("test")),
        reply(block(f"echo {sentinel}")),
    ]
    record = run_with(toy, replies)
    assert record.termination == "CompletedSignal"
    assert record.final_patch == ""
    assert record.tests_passed_at_end is False


def test_observation_clipping_applies_in_run(toy):
    replies = [reply(block("python3 -c \"print('z' * 20000)\""))]
    record = run_with(toy, replies)
    obs = [m for m in record.transcript if m.role == "observation"][0]
    assert "[... output truncated ...]" in obs.content
    assert len(obs.content) < 20_000


# --- persistence ----------------------------------------------------------

def test_record_round_trip(toy, tmp_path):
    record = run_with(toy, synth._scripted_replies(loop.DEFAULT_SENTINEL))
    path = tmp_path / records.record_filename(record.bug_id, record.config)
    records.write_run_record(record, path)
    loaded = records.load_run_record(path)
    assert loaded.bug_id == record.bug_id
    assert loaded.config == record.config
    assert loaded.steps_taken == record.steps_taken
    assert loaded.total_cost == record.total_cost
    assert isinstance(loaded.total_cost, Decimal)
    assert loaded.termination == record.termination
    assert loaded.tests_passed_at_end == record.tests_passed_at_end
    assert loaded.final_patch == record.final_patch
    assert [(m.role, m.content, m.step_index, m.token_usage)
            for m in loaded.transcript] == \
           [(m.role, m.content, m.step_index, m.token_usage)
            for m in record.transcript]


def test_record_file_shape(toy, tmp_path):
    record = run_with(toy, synth._scripted_replies(loop.DEFAULT_SENTINEL))
    path = tmp_path / "r.jsonl"
    records.write_run_record(record, path)
    rows = [json.loads(x) for x in path.read_text().splitlines()]
    assert rows[0]["type"] == "meta"
    assert rows[-1]["type"] == "result"
    assert all(r["type"] == "message" for r in rows[1:-1])
    assert rows[-1]["total_cost"] == "0.001308"


def test_replay_is_byte_identical_modulo_wall_time(toy, tmp_path):
    paths = []
    for i in range(2):
        record = run_with(toy, synth._scripted_replies(loop.DEFAULT_SENTINEL))
        path = tmp_path / f"run{i}.jsonl"
        records.write_run_record(record, path)
        paths.append(path)
    assert comparable_record_lines(paths[0]) == comparable_record_lines(paths[1])
    # the raw files differ at most in the result line's wall-clock field
    first, second = (path.read_text().splitlines() for path in paths)
    assert first[:-1] == second[:-1]
    results = [json.loads(lines[-1]) for lines in (first, second)]
    assert results[0]["type"] == "result"
    for result in results:
        del result["wall_time"]
    assert results[0] == results[1]


def test_record_filename_shape():
    assert records.record_filename("bug-7", "fl_diff") == "bug-7__fl_diff.jsonl"
