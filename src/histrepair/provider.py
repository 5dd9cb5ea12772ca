"""Model providers and token cost accounting.

Two providers ship: a scripted one that replays queued replies (used by
every test and by deterministic end-to-end fixtures) and a live one
speaking the common chat-completions HTTP shape. Both return the raw
reply text plus exact token counts; cost arithmetic is Decimal all the
way, never binary floats.
"""

from __future__ import annotations

import json
import os
import time
from decimal import Decimal
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

from .errors import ProviderFailure
from .records import TokenUsage

# money carries six fractional digits, enough for sub-cent token prices
CENT6 = Decimal("0.000001")

MAX_ATTEMPTS = 3
BACKOFF_BASE_SECONDS = 0.5
REQUEST_TIMEOUT_SECONDS = 120.0


class ProviderReply(NamedTuple):
    text: str
    usage: TokenUsage


class Provider(Protocol):
    def complete(self, messages: list[dict]) -> ProviderReply:
        ...


class ScriptedProvider:
    """Replays canned replies in order; the workhorse of every test.

    Each reply is {"text": ..., "input_tokens": N, "output_tokens": M}.
    """

    replies: list[dict]
    cursor: int

    def __init__(self, replies: list[dict]) -> None:
        self.replies = replies
        self.cursor = 0

    @classmethod
    def from_file(cls, path: Path | str) -> "ScriptedProvider":
        replies = []
        for raw in Path(path).read_text().splitlines():
            if raw.strip():
                replies.append(json.loads(raw))
        return cls(replies=replies)

    def complete(self, messages: list[dict]) -> ProviderReply:
        if self.cursor >= len(self.replies):
            raise ProviderFailure("scripted provider exhausted its replies")
        reply = self.replies[self.cursor]
        self.cursor += 1
        return ProviderReply(
            text=reply["text"],
            usage=TokenUsage(
                input_tokens=int(reply.get("input_tokens", 0)),
                output_tokens=int(reply.get("output_tokens", 0)),
            ),
        )


class HttpProvider:
    """Chat-completions endpoint client with bounded retry.

    Credentials come from the environment at call time and are never
    persisted anywhere. A reply is billed only when it carries its token
    counts; one without them, or without string content, is retried and
    then fails like a dead endpoint. A 4xx status other than 408 or 429
    fails at once.
    """

    endpoint: str
    model: str
    api_key_env: str
    sleeper: Callable[[float], None]

    def __init__(self, endpoint: str, model: str, api_key_env: str = "MODEL_API_KEY",
                 sleeper: Callable[[float], None] = time.sleep) -> None:
        self.endpoint, self.model = endpoint, model
        self.api_key_env, self.sleeper = api_key_env, sleeper

    def complete(self, messages: list[dict]) -> ProviderReply:
        # imported here so that commands which never call a live model
        # do not load the HTTP stack
        import http.client
        import urllib.error
        import urllib.request

        key = os.environ.get(self.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        # greedy decoding for every run
        body = {"model": self.model, "messages": messages, "temperature": 0.0}
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(body).encode("utf-8"), headers=headers,
            method="POST",
        )
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                with urllib.request.urlopen(
                        request, timeout=REQUEST_TIMEOUT_SECONDS) as resp:
                    return _parse_reply(resp.read())
            # OSError covers URLError, HTTPError and socket timeouts; a body
            # cut short raises IncompleteRead, an HTTPException only
            except (OSError, http.client.HTTPException, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # the error holds the response body open
                    # a client error other than a timeout or a rate
                    # limit would fail the same way on every attempt
                    if 400 <= exc.code < 500 and exc.code not in (408, 429):
                        raise ProviderFailure(
                            f"provider refused the request: HTTP {exc.code} {exc.reason}"
                        ) from exc
                last_error = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    self.sleeper(BACKOFF_BASE_SECONDS * (2 ** attempt))
        if isinstance(last_error, ValueError):
            raise ProviderFailure(
                f"malformed reply: {last_error} (after {MAX_ATTEMPTS} attempts)")
        raise ProviderFailure(
            f"provider failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )


def _parse_reply(raw: bytes) -> ProviderReply:
    """The text and token counts of one chat-completions reply body.

    ValueError unless `choices[0].message.content` is a string and
    `usage.prompt_tokens` and `usage.completion_tokens` are non-negative
    integers, so no reply is billed as free or hands the loop a
    non-string.
    """
    try:
        data = json.loads(raw)
        text = data["choices"][0]["message"]["content"]
        counts = (data["usage"]["prompt_tokens"], data["usage"]["completion_tokens"])
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc
    if not isinstance(text, str):
        raise ValueError(f"content is {type(text).__name__}, not a string")
    # bool is an int subclass, so test the exact type
    if not all(type(n) is int and n >= 0 for n in counts):
        raise ValueError(f"token counts {counts!r} are not non-negative integers")
    return ProviderReply(text=text, usage=TokenUsage(*counts))


def accumulate_cost(usage: TokenUsage, rates: tuple[Decimal, Decimal]) -> Decimal:
    """Exact USD cost of one query at (input, output) per-million rates."""
    in_rate, out_rate = rates
    million = Decimal(1_000_000)
    cost = (Decimal(usage.input_tokens) * in_rate
            + Decimal(usage.output_tokens) * out_rate) / million
    return cost.quantize(CENT6)
