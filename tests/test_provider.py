"""Providers and cost accounting."""

import copy
import http.client
import io
import json
import urllib.error
import urllib.request
from decimal import Decimal

import pytest

from histrepair.errors import ProviderFailure
from histrepair.provider import (
    BACKOFF_BASE_SECONDS,
    MAX_ATTEMPTS,
    REQUEST_TIMEOUT_SECONDS,
    HttpProvider,
    ProviderReply,
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


GOOD_PAYLOAD = {
    "choices": [{"message": {"content": "fixed it"}}],
    "usage": {"prompt_tokens": 321, "completion_tokens": 45},
}


def fake_urlopen(monkeypatch, *outcomes):
    """Patch urlopen to answer with `outcomes` in turn; returns the calls it saw.

    An outcome is an exception to raise, raw body bytes, or a payload to
    serve as JSON. The last outcome repeats.
    """
    seen = []

    def urlopen(request, timeout=None):
        seen.append((request, timeout))
        outcome = outcomes[min(len(seen), len(outcomes)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        if not isinstance(outcome, bytes):
            outcome = json.dumps(outcome).encode("utf-8")
        return io.BytesIO(outcome)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return seen


def http_provider(sleeps=None):
    return HttpProvider(endpoint="https://api.example.invalid/v1/chat", model="m1",
                        sleeper=(sleeps if sleeps is not None else []).append)


def test_http_provider_success(monkeypatch):
    seen = fake_urlopen(monkeypatch, GOOD_PAYLOAD)
    monkeypatch.setenv("MODEL_API_KEY", "sk-test")
    messages = [{"role": "user", "content": "q"}]
    reply = http_provider().complete(messages)
    assert reply == ProviderReply(text="fixed it", usage=TokenUsage(321, 45))
    [(request, timeout)] = seen
    assert request.full_url == "https://api.example.invalid/v1/chat"
    assert request.get_method() == "POST"
    assert json.loads(request.data) == {"model": "m1", "messages": messages,
                                        "temperature": 0.0}
    assert request.get_header("Content-type") == "application/json"
    assert request.get_header("Authorization") == "Bearer sk-test"
    assert timeout == REQUEST_TIMEOUT_SECONDS == 120.0


def test_http_provider_omits_auth_without_key(monkeypatch):
    seen = fake_urlopen(monkeypatch, GOOD_PAYLOAD)
    monkeypatch.delenv("MODEL_API_KEY", raising=False)
    http_provider().complete([])
    assert not seen[0][0].has_header("Authorization")


def test_http_provider_retries_with_backoff(monkeypatch):
    seen = fake_urlopen(monkeypatch, urllib.error.URLError("transient"),
                        TimeoutError("timed out"), GOOD_PAYLOAD)
    sleeps = []
    reply = http_provider(sleeps).complete([])
    assert reply.text == "fixed it"
    assert len(seen) == 3
    assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2]


def test_http_provider_gives_up_after_max_attempts(monkeypatch):
    seen = fake_urlopen(monkeypatch, urllib.error.URLError("down"))
    with pytest.raises(ProviderFailure, match="provider failed after 3 attempts"):
        http_provider().complete([])
    assert len(seen) == MAX_ATTEMPTS


def test_http_provider_closes_the_body_of_an_http_error(monkeypatch):
    error_body = io.BytesIO(b'{"error": "overloaded"}')
    error = urllib.error.HTTPError("https://api.example.invalid/v1/chat", 503,
                                   "Service Unavailable", {}, error_body)
    fake_urlopen(monkeypatch, error, GOOD_PAYLOAD)
    assert http_provider().complete([]).text == "fixed it"
    assert error_body.closed


def _http_error(status):
    return urllib.error.HTTPError("https://api.example.invalid/v1/chat", status,
                                  "reason", {}, io.BytesIO(b"{}"))


@pytest.mark.parametrize("status", [400, 401])
def test_http_provider_fails_a_client_error_at_once(monkeypatch, status):
    seen = fake_urlopen(monkeypatch, _http_error(status))
    sleeps = []
    with pytest.raises(ProviderFailure, match=f"HTTP {status}"):
        http_provider(sleeps).complete([])
    assert len(seen) == 1
    assert sleeps == []


@pytest.mark.parametrize("status", [429, 503])
def test_http_provider_retries_a_rate_limit_or_server_error(monkeypatch, status):
    seen = fake_urlopen(monkeypatch, _http_error(status))
    sleeps = []
    with pytest.raises(ProviderFailure, match="provider failed after 3 attempts"):
        http_provider(sleeps).complete([])
    assert len(seen) == MAX_ATTEMPTS
    assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2]


def test_http_provider_retries_a_body_cut_short(monkeypatch):
    seen = fake_urlopen(monkeypatch, http.client.IncompleteRead(b"{"), GOOD_PAYLOAD)
    assert http_provider().complete([]).text == "fixed it"
    assert len(seen) == 2


def test_http_provider_malformed_body_is_failure(monkeypatch):
    fake_urlopen(monkeypatch, {"nope": 1})
    with pytest.raises(ProviderFailure):
        http_provider().complete([])


def _edited(edit):
    """A copy of GOOD_PAYLOAD after `edit` changed it."""
    payload = copy.deepcopy(GOOD_PAYLOAD)
    edit(payload)
    return payload


def _message(payload):
    return payload["choices"][0]["message"]


@pytest.mark.parametrize("payload", [
    _edited(lambda p: p.pop("usage")),
    _edited(lambda p: p["usage"].pop("prompt_tokens")),
    _edited(lambda p: p["usage"].pop("completion_tokens")),
    _edited(lambda p: p.update(usage=None)),
    _edited(lambda p: p["usage"].update(prompt_tokens=None)),
    _edited(lambda p: p["usage"].update(prompt_tokens=-1)),
    _edited(lambda p: p["usage"].update(prompt_tokens=321.0)),
    _edited(lambda p: p["usage"].update(prompt_tokens="321")),
    _edited(lambda p: p["usage"].update(completion_tokens=True)),
    _edited(lambda p: _message(p).update(content=None)),
    _edited(lambda p: _message(p).update(content=["fixed it"])),
    _edited(lambda p: p.update(choices=[])),
    _edited(lambda p: p["choices"][0].update(message="fixed it")),
    [GOOD_PAYLOAD],
    b"<html>busy</html>",
], ids=["no-usage", "no-prompt-tokens", "no-completion-tokens", "null-usage",
        "null-prompt-tokens", "negative-tokens", "float-tokens", "string-tokens",
        "bool-tokens", "null-content", "list-content", "no-choices",
        "string-message", "list-body", "not-json"])
def test_http_provider_fails_a_reply_it_cannot_bill_or_parse(monkeypatch, payload):
    # such a reply is neither billed as free nor handed to the loop
    seen = fake_urlopen(monkeypatch, payload)
    sleeps = []
    with pytest.raises(ProviderFailure, match="^malformed reply: "):
        http_provider(sleeps).complete([])
    assert len(seen) == MAX_ATTEMPTS
    assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2]


def test_http_provider_retries_a_malformed_reply_then_bills_the_good_one(monkeypatch):
    seen = fake_urlopen(monkeypatch, _edited(lambda p: p.pop("usage")), GOOD_PAYLOAD)
    assert http_provider().complete([]).usage == TokenUsage(321, 45)
    assert len(seen) == 2


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

