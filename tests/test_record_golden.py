"""Run records of every way a loop run ends stay byte-identical.

The files under `golden_records/` hold the `comparable_record_lines` of
toy-project runs, written by the loop before each step was charged at
one site. Each case ends one way: completed, a step, cost or time
limit, an ignored completion signal, a malformed reply then a good one,
two malformed replies in a row, scripted replies run dry (also on the
retry of a malformed reply), a reply the HTTP provider cannot bill, and
one or two sandbox deaths in a row. Their observations hold no host
path and no timing.
"""

import io
import json
import urllib.request
from decimal import Decimal
from pathlib import Path

import pytest

from histrepair import loop, records, sandbox as sb, synth
from histrepair.config import BUILTIN_ADAPTERS, DEFAULT_SENTINEL, GuardConfig
from histrepair.provider import HttpProvider, ScriptedProvider

GOLDEN = Path(__file__).parent / "golden_records"

FIX = "sed -i 's/return a - b  # fast path/return a + b/' calc.py"


def reply(text, inp=10, out=5):
    return {"text": text, "input_tokens": inp, "output_tokens": out}


def block(command):
    return f"```bash\n{command}\n```"


def echoes(word, n=10, inp=10):
    return [reply(block(f"echo {word} {i}"), inp=inp) for i in range(n)]


def ticking_clock():
    ticks = {"t": 0.0}

    def clock():
        ticks["t"] += 100.0
        return ticks["t"]

    return clock


def malformed_http_provider(monkeypatch):
    # one good reply, then a reply with no usage on every retry
    good = {"choices": [{"message": {"content": block("echo hello")}}],
            "usage": {"prompt_tokens": 900, "completion_tokens": 30}}
    bad = {"choices": [{"message": {"content": block("echo never")}}]}
    bodies = iter([good] + [bad] * 10)
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None:
                        io.BytesIO(json.dumps(next(bodies)).encode("utf-8")))
    return HttpProvider(endpoint="https://api.example.invalid/v1/chat",
                        model="m", sleeper=lambda seconds: None)


def sandbox_deaths(monkeypatch, deaths):
    """exec_command that dies on the calls numbered in `deaths`."""
    real = sb.exec_command
    calls = {"n": 0}

    def exec_command(handle, command, timeout=sb.DEFAULT_COMMAND_TIMEOUT,
                     step_index=0):
        calls["n"] += 1
        if calls["n"] in deaths:
            raise sb.SandboxDead("sandbox stopped answering")
        return real(handle, command, timeout=timeout, step_index=step_index)

    monkeypatch.setattr(sb, "exec_command", exec_command)


# case -> (replies, harness keywords, setup taking monkeypatch)
CASES = {
    "completed": (synth._scripted_replies(DEFAULT_SENTINEL), {}, None),
    "step_limit": (echoes("step"), {"guards": GuardConfig(max_steps=3)}, None),
    "cost_limit": (echoes("spend", inp=100_000),
                   {"rates": (Decimal("1.00"), Decimal("0.00")),
                    "guards": GuardConfig(max_cost=Decimal("0.30"))}, None),
    "time_limit": (echoes("tick"), {"clock": ticking_clock(),
                                    "guards": GuardConfig(max_wall_time=250.0)}, None),
    "ignored_sentinel": ([reply(f"done already\n{block('echo ' + DEFAULT_SENTINEL)}"),
                          reply(block(FIX)), reply(block("test")),
                          reply(block(f"echo {DEFAULT_SENTINEL}"))], {}, None),
    "malformed_then_good": ([reply("thinking out loud, no command"),
                             reply(block(FIX)), reply(block("test")),
                             reply(block(f"echo {DEFAULT_SENTINEL}"))], {}, None),
    "malformed_twice": ([reply("nothing"), reply(block("ls") * 2),
                         reply(block(FIX)), reply(block("test")),
                         reply(block(f"echo {DEFAULT_SENTINEL}"))], {}, None),
    "scripted_exhaustion": ([reply(block("echo once"))], {}, None),
    "exhaustion_on_retry": ([reply(block("echo once")), reply("nothing")], {}, None),
    "malformed_http_reply": ([], {}, malformed_http_provider),
    "one_sandbox_death": (synth._scripted_replies(DEFAULT_SENTINEL), {},
                          lambda mp: sandbox_deaths(mp, {1})),
    "two_sandbox_deaths": (echoes("probe"), {},
                           lambda mp: sandbox_deaths(mp, {2, 3})),
}


def run_case(name, root: Path, monkeypatch) -> list[str]:
    """The comparable lines of one case's record."""
    replies, harness_kwargs, setup = CASES[name]
    toy = synth.build_toy_campaign(root / "toy")
    provider = setup(monkeypatch) if setup is not None else None
    harness = loop.LoopHarness(
        provider=provider or ScriptedProvider(replies=replies),
        **{"rates": (Decimal("0.28"), Decimal("0.42")), **harness_kwargs},
    )
    handle = sb.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                          BUILTIN_ADAPTERS["local-python"])
    record = None
    try:
        record = loop.run(synth.TOY_BUG_ID, "non_history", "sys", "user",
                          handle, harness)
    finally:
        sb.teardown(handle, root / "artifacts",
                    record.final_patch if record is not None else "")
    path = root / "record.jsonl"
    records.write_run_record(record, path)
    return records.comparable_record_lines(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_golden_lines(name, tmp_path, monkeypatch):
    golden = (GOLDEN / f"{name}.jsonl").read_text().splitlines()
    assert run_case(name, tmp_path, monkeypatch) == golden
