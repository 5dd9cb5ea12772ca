"""Run records: the schema of one (bug, config) run and its JSONL file.

A record is one `meta` line, one `message` line per transcript entry
and a closing `result` line, in that order; a file that
`load_run_record` refuses is incomplete, and `batch` runs its job again.
This module imports only the stdlib and `errors`, so `report` can read
records without loading the loop, the provider or the sandbox.
"""

from __future__ import annotations

import json
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

from .errors import HistRepairError


class TokenUsage(NamedTuple):
    input_tokens: int
    output_tokens: int


class TranscriptMessage(NamedTuple):
    role: str        # system | user | assistant | observation
    content: str
    step_index: int
    token_usage: TokenUsage | None = None


class RunRecord(NamedTuple):
    bug_id: str
    config: str
    transcript: list[TranscriptMessage]
    steps_taken: int
    total_cost: Decimal
    wall_time: float
    termination: str  # CompletedSignal | StepLimit | CostLimit | Timeout | ProviderError | SandboxError
    tests_passed_at_end: bool
    final_patch: str


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
    """The record at `path`.

    HistRepairError, naming the file and what it lacks, when the file
    is not UTF-8, a line is not a record line, the meta or result line
    is missing, or a record line follows the result line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise HistRepairError(
            f"record {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    meta: dict | None = None
    result: dict | None = None
    transcript: list[TranscriptMessage] = []
    for number, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        if result is not None:
            raise HistRepairError(f"record {path}: line {number} follows the result line")
        try:
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
        except (ValueError, LookupError, TypeError) as exc:
            # a JSON error's own message counts lines within this one line
            reason = getattr(exc, "msg", exc)
            raise HistRepairError(
                f"record {path}: line {number} is not a record line "
                f"({type(exc).__name__}: {reason})") from None
    for kind, obj in (("meta", meta), ("result", result)):
        if obj is None:
            raise HistRepairError(f"record {path}: no {kind} line")
    try:
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
    except KeyError as exc:
        raise HistRepairError(
            f"record {path}: no field {exc} in its meta or result line") from None


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


def record_is_complete(path: Path) -> bool:
    """Whether the record at `path` exists and `load_run_record` reads it."""
    try:
        load_run_record(path)
    except (HistRepairError, OSError):
        return False
    return True
