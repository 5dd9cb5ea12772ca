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
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Protocol

from .errors import ProviderFailure

# money carries six fractional digits, enough for sub-cent token prices
CENT6 = Decimal("0.000001")

MAX_ATTEMPTS = 3
BACKOFF_BASE_SECONDS = 0.5


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class ProviderReply:
    text: str
    usage: TokenUsage


class Provider(Protocol):
    def complete(self, messages: list[dict]) -> ProviderReply:
        ...


@dataclass
class ScriptedProvider:
    """Replays canned replies in order; the workhorse of every test.

    Each reply is {"text": ..., "input_tokens": N, "output_tokens": M}.
    """

    replies: list[dict]
    cursor: int = 0
    calls: list[list[dict]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: Path | str) -> "ScriptedProvider":
        replies = []
        for raw in Path(path).read_text().splitlines():
            if raw.strip():
                replies.append(json.loads(raw))
        return cls(replies=replies)

    def complete(self, messages: list[dict]) -> ProviderReply:
        self.calls.append(messages)
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


@dataclass
class HttpProvider:
    """Chat-completions endpoint client with bounded retry.

    Credentials come from the environment at call time and are never
    persisted anywhere.
    """

    endpoint: str
    model: str
    api_key_env: str = "MODEL_API_KEY"
    timeout: float = 120.0
    sleeper: Callable[[float], None] = time.sleep

    def complete(self, messages: list[dict]) -> ProviderReply:
        # imported here so that commands which never call a live model
        # do not pay for loading the HTTP stack
        import requests

        key = os.environ.get(self.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        # greedy decoding for every run
        body = {"model": self.model, "messages": messages, "temperature": 0.0}
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                resp = requests.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout,
                )
                resp.raise_for_status()
                data = resp.json()
                usage = data.get("usage", {})
                return ProviderReply(
                    text=data["choices"][0]["message"]["content"],
                    usage=TokenUsage(
                        input_tokens=int(usage.get("prompt_tokens", 0)),
                        output_tokens=int(usage.get("completion_tokens", 0)),
                    ),
                )
            except (requests.RequestException, KeyError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    self.sleeper(BACKOFF_BASE_SECONDS * (2 ** attempt))
        raise ProviderFailure(
            f"provider failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )


def accumulate_cost(usage: TokenUsage, rates: tuple[Decimal, Decimal]) -> Decimal:
    """Exact USD cost of one query at (input, output) per-million rates."""
    in_rate, out_rate = rates
    million = Decimal(1_000_000)
    cost = (Decimal(usage.input_tokens) * in_rate
            + Decimal(usage.output_tokens) * out_rate) / million
    return cost.quantize(CENT6)
