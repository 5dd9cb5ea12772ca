"""Providers and cost accounting."""

from decimal import Decimal

import pytest
import requests

from histrepair.errors import ProviderFailure
from histrepair.provider import (
    BACKOFF_BASE_SECONDS,
    MAX_ATTEMPTS,
    HttpProvider,
    ScriptedProvider,
    TokenUsage,
    accumulate_cost,
)

RATES = (Decimal("0.28"), Decimal("0.42"))


def test_scripted_provider_replays_in_order():
    provider = ScriptedProvider(replies=[
        {"text": "one", "input_tokens": 10, "output_tokens": 1},
        {"text": "two", "input_tokens": 20, "output_tokens": 2},
    ])
    first = provider.complete([{"role": "user", "content": "hi"}])
    second = provider.complete([{"role": "user", "content": "again"}])
    assert (first.text, first.usage) == ("one", TokenUsage(10, 1))
    assert (second.text, second.usage) == ("two", TokenUsage(20, 2))
    assert len(provider.calls) == 2
    assert provider.calls[0][0]["content"] == "hi"


def test_scripted_provider_exhaustion():
    provider = ScriptedProvider(replies=[{"text": "only"}])
    provider.complete([])
    with pytest.raises(ProviderFailure):
        provider.complete([])


def test_scripted_provider_from_file(tmp_path):
    path = tmp_path / "replies.jsonl"
    path.write_text('{"text": "a", "input_tokens": 5, "output_tokens": 7}\n\n'
                    '{"text": "b"}\n')
    provider = ScriptedProvider.from_file(path)
    assert provider.complete([]).usage == TokenUsage(5, 7)
    assert provider.complete([]).usage == TokenUsage(0, 0)


class FakeResponse:
    def __init__(self, payload=None, fail=False):
        self.payload = payload or {}
        self.fail = fail

    def raise_for_status(self):
        if self.fail:
            raise requests.HTTPError("boom")

    def json(self):
        return self.payload


GOOD_PAYLOAD = {
    "choices": [{"message": {"content": "fixed it"}}],
    "usage": {"prompt_tokens": 321, "completion_tokens": 45},
}


def test_http_provider_success(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["url"] = url
        seen["json"] = json
        seen["headers"] = headers
        return FakeResponse(GOOD_PAYLOAD)

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("MODEL_API_KEY", "sk-test")
    provider = HttpProvider(endpoint="https://api.example.invalid/v1/chat", model="m1")
    reply = provider.complete([{"role": "user", "content": "q"}])
    assert reply.text == "fixed it"
    assert reply.usage == TokenUsage(321, 45)
    assert seen["json"]["model"] == "m1"
    assert seen["json"]["temperature"] == 0.0
    assert seen["headers"]["Authorization"] == "Bearer sk-test"


def test_http_provider_omits_auth_without_key(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["headers"] = headers
        return FakeResponse(GOOD_PAYLOAD)

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.delenv("MODEL_API_KEY", raising=False)
    HttpProvider(endpoint="https://x.invalid", model="m").complete([])
    assert "Authorization" not in seen["headers"]


def test_http_provider_retries_with_backoff(monkeypatch):
    calls = {"n": 0}
    sleeps = []

    def flaky_post(url, json=None, headers=None, timeout=None):
        calls["n"] += 1
        if calls["n"] < 3:
            raise requests.ConnectionError("transient")
        return FakeResponse(GOOD_PAYLOAD)

    monkeypatch.setattr(requests, "post", flaky_post)
    provider = HttpProvider(
        endpoint="https://x.invalid", model="m", sleeper=sleeps.append,
    )
    reply = provider.complete([])
    assert reply.text == "fixed it"
    assert calls["n"] == 3
    assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2]


def test_http_provider_gives_up_after_max_attempts(monkeypatch):
    calls = {"n": 0}

    def always_fail(url, json=None, headers=None, timeout=None):
        calls["n"] += 1
        raise requests.ConnectionError("down")

    monkeypatch.setattr(requests, "post", always_fail)
    provider = HttpProvider(endpoint="https://x.invalid", model="m",
                            sleeper=lambda s: None)
    with pytest.raises(ProviderFailure):
        provider.complete([])
    assert calls["n"] == MAX_ATTEMPTS


def test_http_provider_malformed_body_is_failure(monkeypatch):
    monkeypatch.setattr(
        requests, "post",
        lambda url, json=None, headers=None, timeout=None: FakeResponse({"nope": 1}),
    )
    provider = HttpProvider(endpoint="https://x.invalid", model="m",
                            sleeper=lambda s: None)
    with pytest.raises(ProviderFailure):
        provider.complete([])


# cost oracle, computed by hand at 0.28/1M input and 0.42/1M output:
#   900*0.28/1e6 + 30*0.42/1e6  = 0.000252  + 0.0000126  -> 0.000265
#   1100*0.28/1e6 + 45*0.42/1e6 = 0.000308  + 0.0000189  -> 0.000327
COST_CASES = [
    (TokenUsage(900, 30), Decimal("0.000265")),
    (TokenUsage(1100, 45), Decimal("0.000327")),
    (TokenUsage(1200, 20), Decimal("0.000344")),
    (TokenUsage(1300, 18), Decimal("0.000372")),
    (TokenUsage(0, 0), Decimal("0.000000")),
]


def test_accumulate_cost_matches_hand_computation():
    for usage, expected in COST_CASES:
        assert accumulate_cost(usage, RATES) == expected


def test_cost_is_quantized_to_six_places():
    cost = accumulate_cost(TokenUsage(1, 1), RATES)
    assert cost == Decimal("0.000001")
    assert cost.as_tuple().exponent == -6

