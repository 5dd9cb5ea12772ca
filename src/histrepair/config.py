"""Campaign configuration and campaign policy.

One YAML file drives every subcommand. Environment variables override
secrets only (the provider API key env name); command-line flags
override file values. Every output directory receives a frozen JSON
copy of the effective configuration so results stay auditable.

The file is read by `_read_yaml`, a strict reader of the YAML a campaign
needs: block mappings and sequences, one-line flow collections, plain
and quoted scalars, and comments. It returns exactly what PyYAML's
`safe_load` returns, or raises ConfigError naming the line; it refuses
duplicate keys, tabs, anchors, tags, block scalars, and every plain
scalar YAML 1.1 reads as something other than a string, a decimal
number, a boolean spelt true/false, or null. So the package needs no
YAML library, and the tests hold the reader to PyYAML's values.

This module is also the one home of campaign policy: the heuristic
configs, the context budgets, the completion sentinel, the per-command
timeout, the run guards and the project adapters. The layers that apply
them (`context`, `loop`, `sandbox`, `metrics`) import them from here.
The provider is imported only where a method needs it, so loading a
campaign stays cheap. The prompts are fixed package text; no key
selects them.
"""

from __future__ import annotations

import json
import math
import os
import re
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from .errors import ConfigError

HEURISTICS = ("non_history", "fn_all", "fn_pair", "fl_diff")

# the source languages a campaign may name; `spans` has one detector each
LANGUAGES = ("c_family", "python")

DEFAULT_BUDGETS = {"fl_diff": 12_000, "fn_pair": 8_000, "fn_all": 4_000}

DEFAULT_SENTINEL = "COMPLETE_REPAIR_SIGNAL"

DEFAULT_COMMAND_TIMEOUT = 300.0


class ProjectAdapter(NamedTuple):
    """How to build and test one project family inside its sandbox."""

    compile_command: str
    test_relevant_command: str


BUILTIN_ADAPTERS = {
    "local-python": ProjectAdapter(
        compile_command="python3 -m compileall -q .",
        test_relevant_command="python3 run_tests.py",
    ),
    "defects4j": ProjectAdapter(
        compile_command="defects4j compile",
        test_relevant_command="defects4j test -r",
    ),
}


def _money(value, where: str) -> Decimal:
    """`value` as an exact USD amount; ConfigError unless finite and >= 0."""
    try:
        amount = Decimal(str(value))
    except InvalidOperation:
        amount = Decimal("NaN")
    if not amount.is_finite() or amount < 0:
        raise ConfigError(f"{where} must be a finite non-negative number, got {value!r}")
    return amount


def _integer(value, where: str) -> int:
    """`value` itself; ConfigError unless it is an integer (not a bool)."""
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _seconds(value, where: str) -> float:
    """`value` as float seconds; ConfigError unless a finite number.

    GuardConfig checks that the limit is > 0.
    """
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _scripted_provider(settings: ProviderSettings, bug_id: str, config: str):
    from .provider import ScriptedProvider

    if settings.scripts_dir is None:
        raise ConfigError("scripted provider needs scripts_dir")
    script = Path(settings.scripts_dir) / f"{bug_id}__{config}.jsonl"
    if not script.exists():
        raise ConfigError(f"no scripted replies at {script}")
    return ScriptedProvider.from_file(script)


def _http_provider(settings: ProviderSettings, bug_id: str, config: str):
    from .provider import HttpProvider

    if not os.environ.get(settings.api_key_env):
        raise ConfigError(
            f"live provider configured but {settings.api_key_env} is unset"
        )
    if not settings.endpoint:
        raise ConfigError("live provider needs an endpoint")
    # urlopen would also read file: and ftp: URLs
    if urlsplit(settings.endpoint).scheme not in ("http", "https"):
        raise ConfigError(
            f"provider endpoint {settings.endpoint!r} is not an http or https URL")
    return HttpProvider(
        endpoint=settings.endpoint,
        model=settings.model,
        api_key_env=settings.api_key_env,
    )


# provider mode -> builder; the one list of modes ProviderSettings accepts.
# It comes first because CampaignConfig builds its default ProviderSettings
# at import.
_PROVIDER_BUILDERS = {"scripted": _scripted_provider, "http": _http_provider}


def make_provider(settings: ProviderSettings, bug_id: str, config: str):
    """Build the provider instance one (bug, config) job will query."""
    return _PROVIDER_BUILDERS[settings.mode](settings, bug_id, config)


class _GuardFields(NamedTuple):
    max_steps: int = 50
    max_cost: Decimal = Decimal("1.00")
    max_wall_time: float = 3600.0
    per_command_timeout: float = DEFAULT_COMMAND_TIMEOUT


class GuardConfig(_GuardFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.max_steps <= 0 or self.max_cost <= 0
                or self.max_wall_time <= 0 or self.per_command_timeout <= 0):
            raise ValueError("guard limits must be strictly positive")
        return self


class _ProviderFields(NamedTuple):
    mode: str = "scripted"            # scripted | http
    model: str = "scripted-model"
    endpoint: str = ""
    api_key_env: str = "MODEL_API_KEY"
    scripts_dir: Path | None = None   # scripted: one reply file per (bug, config)
    pricing: dict = {
        "scripted-model": {"input_per_million": "0.28",
                           "output_per_million": "0.42"},
    }


class ProviderSettings(_ProviderFields):
    """How to reach the model: scripted replay or a live endpoint."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in _PROVIDER_BUILDERS:
            raise ConfigError(
                f"unknown provider mode {self.mode!r}; "
                f"known: {', '.join(sorted(_PROVIDER_BUILDERS))}"
            )
        # every provider call is billed, so a model without two valid
        # rates would fail each job after its sandbox was built
        self.rates()
        return self

    def rates(self) -> tuple[Decimal, Decimal]:
        """USD per million input and output tokens of the selected model."""
        rates = self.pricing.get(self.model)
        keys = ("input_per_million", "output_per_million")
        missing = [k for k in keys if not isinstance(rates, dict) or k not in rates]
        if missing:
            raise ConfigError(
                f"no pricing for model {self.model!r}: "
                f"provider.pricing.{self.model} needs {' and '.join(missing)}"
            )
        return tuple(_money(rates[k], f"provider.pricing.{self.model}.{k}") for k in keys)


class _CampaignFields(NamedTuple):
    manifest: Path
    out_dir: Path
    configs: tuple[str, ...] = HEURISTICS
    guards: GuardConfig = GuardConfig()
    provider: ProviderSettings = ProviderSettings()
    adapter: str = "local-python"
    backend: str = "local"            # the only sandbox backend
    workers: int = 1
    budgets: dict = dict(DEFAULT_BUDGETS)
    language: str = "c_family"
    sentinel: str = DEFAULT_SENTINEL


class CampaignConfig(_CampaignFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.configs:
            raise ConfigError("at least one heuristic config must be selected")
        unknown = [c for c in self.configs if c not in HEURISTICS]
        if unknown:
            raise ConfigError(f"unknown heuristic configs: {unknown}")
        repeated = sorted({c for c in self.configs if self.configs.count(c) > 1})
        if repeated:
            raise ConfigError(f"heuristic configs listed more than once: {repeated}")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        bad = sorted(k for k, v in self.budgets.items() if v <= 0)
        if bad:
            raise ConfigError(f"context budgets must be positive: {bad}")
        if self.adapter not in BUILTIN_ADAPTERS:
            raise ConfigError(
                f"unknown adapter {self.adapter!r}; "
                f"known: {', '.join(sorted(BUILTIN_ADAPTERS))}"
            )
        if self.language not in LANGUAGES:
            raise ConfigError(
                f"unknown language {self.language!r}; "
                f"known: {', '.join(sorted(LANGUAGES))}"
            )
        if self.backend != "local":
            raise ConfigError(
                f"unknown backend {self.backend!r}: 'local' is the only sandbox"
                " backend; to isolate runs in a container, run histrepair"
                " itself inside one"
            )
        return self

    def freeze_into(self, out_dir: Path) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        frozen = out_dir / "effective_config.json"
        frozen.write_text(json.dumps(jsonable(self), indent=2, default=str) + "\n")
        return frozen


def jsonable(value):
    """`value` with each record in it, at any depth, as a dict of its fields.

    json.dumps writes a NamedTuple as a list; this keeps field names.
    """
    if hasattr(value, "_asdict"):
        return {k: jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value


# every key a campaign YAML may hold, per map; anything else is a typo
_KNOWN_KEYS = {
    "": set(CampaignConfig._fields),
    "guards": set(GuardConfig._fields),
    "provider": set(ProviderSettings._fields),
    "budgets": set(DEFAULT_BUDGETS),
}


def _reject_unknown_keys(raw, path: Path) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"campaign config {path} is not a mapping")
    for section, known in _KNOWN_KEYS.items():
        if section and section not in raw:
            continue
        mapping = raw[section] if section else raw
        if not isinstance(mapping, dict):
            raise ConfigError(
                f"key {section!r} in campaign config {path} must hold a mapping,"
                f" got {mapping!r}"
            )
        for key in mapping:
            if key not in known:
                where = f"{section}.{key}" if section else key
                raise ConfigError(f"unknown key {where!r} in campaign config {path}")


def _configs(value) -> tuple:
    """The campaign's `configs` list as a tuple; ConfigError unless a list."""
    if not isinstance(value, list):
        raise ConfigError(f"configs must be a list of heuristic names, got {value!r}")
    return tuple(value)


def _converted(mapping: dict, converters: dict) -> dict:
    """The keys `mapping` sets, each through its converter if it has one.

    Keys left out keep the config classes' defaults, which live only there.
    """
    return {k: converters[k](v) if k in converters else v for k, v in mapping.items()}


# --- the campaign file's YAML -------------------------------------------------
#
# Of the plain scalars YAML 1.1 reads as something other than a string,
# the reader accepts only the null, boolean, integer and float forms
# below, and refuses the rest.

_NULLS = {"~", "null", "Null", "NULL"}
_BOOLS = {"true": True, "True": True, "TRUE": True,
          "false": False, "False": False, "FALSE": False}
# YAML 1.1 booleans besides true/false, the merge key and the value key
_SPECIAL_WORDS = {"yes", "Yes", "YES", "no", "No", "NO", "on", "On", "ON",
                  "off", "Off", "OFF", "<<", "="}
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?")
# what else YAML 1.1 may read as a number, a date or a time
_NUMBER_LIKE = re.compile(r"[-+]?\.?[0-9]|[-+]?\.(?:inf|Inf|INF|nan|NaN|NAN)$")
_COMMENT_TAIL = re.compile(r"(?: +#.*)?")


class _YamlReader:
    """One campaign file's node lines, read top-down by indentation."""

    def __init__(self, text: str, path: Path):
        self.path = path
        self.lines = []   # (line number, indent, content) of each line with a node
        for number, line in enumerate(text.split("\n"), 1):
            # a tab, a control character, a line or byte-order mark: YAML
            # refuses some and reads others specially
            if not line.isprintable():
                bad = next(c for c in line if not c.isprintable())
                self.refuse(number, f"character {bad!r} is not allowed")
            content = line.lstrip(" ")
            if content and not content.startswith("#"):
                self.lines.append((number, len(line) - len(content), content.rstrip(" ")))
        self.pos = 0
        for number, indent, content in self.lines:
            if indent == 0 and content[:3] in ("---", "...") and content[3:4] in ("", " "):
                if (number != self.lines[0][0] or content[:3] != "---"
                        or not _COMMENT_TAIL.fullmatch(content, 3)):
                    self.refuse(number, "the only document marker allowed is a leading '---'")
                self.pos = 1

    def refuse(self, number: int, why: str):
        raise ConfigError(f"invalid YAML in {self.path}: line {number}: {why}")

    def document(self):
        if self.pos == len(self.lines):
            return None
        value = self.block()
        if self.pos < len(self.lines):
            self.refuse(self.lines[self.pos][0], "unexpected indentation")
        return value

    def block(self):
        """The block mapping or sequence that starts at the current line."""
        _, indent, content = self.lines[self.pos]
        return self.sequence(indent) if _is_entry(content) else self.mapping(indent)

    def mapping(self, indent: int) -> dict:
        mapping = {}
        while self.pos < len(self.lines):
            number, at, content = self.lines[self.pos]
            if at < indent:
                break
            if at > indent:
                self.refuse(number, "unexpected indentation")
            key, rest = self.key(number, content)
            if key in mapping:
                self.refuse(number, f"duplicate key {key!r}")
            self.pos += 1
            rest = rest.lstrip(" ")
            if rest and not rest.startswith("#"):
                mapping[key] = self.inline(number, rest)
            elif self.pos == len(self.lines):
                mapping[key] = None
            else:
                _, below, text = self.lines[self.pos]
                if below > indent:
                    mapping[key] = self.block()
                elif below == indent and _is_entry(text):
                    mapping[key] = self.sequence(indent)
                else:
                    mapping[key] = None
        return mapping

    def sequence(self, indent: int) -> list:
        items = []
        while self.pos < len(self.lines):
            number, at, content = self.lines[self.pos]
            if at < indent or (at == indent and not _is_entry(content)):
                break
            if at > indent:
                self.refuse(number, "unexpected indentation")
            rest = content[1:].lstrip(" ")
            if not rest or rest.startswith("#"):
                self.refuse(number, "empty sequence entry")
            self.pos += 1
            items.append(self.inline(number, rest))
        return items

    def key(self, number: int, content: str):
        """The key of a `key: value` line and the text after its colon."""
        if content[0] in "'\"":
            key, colon = self.quoted(number, content, 0)
            colon = _skip_spaces(content, colon)
            if _colon(content, colon) != colon:
                colon = -1
        else:
            key, colon = None, _colon(content, 0)
        if colon < 0:
            self.refuse(number, "expected 'key: value'")
        if colon > 1024:
            self.refuse(number, "a key may be at most 1024 characters long")
        if key is None:
            key = self.plain(number, content[:colon].rstrip(" "))
        return key, content[colon + 1:]

    def inline(self, number: int, text: str):
        """The value written on the line itself: a scalar or a flow collection."""
        if text[0] in "'\"":
            value, end = self.quoted(number, text, 0)
            if not _COMMENT_TAIL.fullmatch(text, end):
                self.refuse(number, "unexpected text after the quoted value")
            return value
        if text[0] in "[{":
            return self.flow(number, text)
        cut = text.find(" #")
        return self.plain(number, text if cut < 0 else text[:cut].rstrip(" "))

    def quoted(self, number: int, text: str, start: int):
        """The quoted scalar at `start` and the index after its closing quote."""
        quote, parts, at = text[start], [], start + 1
        while True:
            close = text.find(quote, at)
            if close < 0:
                self.refuse(number, "unclosed quote: a quoted value must end on its line")
            parts.append(text[at:close])
            if quote == "'" and text[close + 1:close + 2] == "'":
                parts.append("'")
                at = close + 2
                continue
            value = "".join(parts)
            if quote == '"' and "\\" in value:
                self.refuse(number, "backslash escapes are not supported; use single quotes")
            return value, close + 1

    def flow(self, number: int, text: str):
        """A one-line `[a, b]` or `{k: v, ...}` of scalars."""
        close = "]" if text[0] == "[" else "}"
        entries: list = []
        at = _skip_spaces(text, 1)
        while text[at:at + 1] != close:
            if at == len(text):
                self.refuse(number, "unclosed flow collection: it must end on its line")
            if close == "]":
                entry, at = self.flow_scalar(number, text, at, ",]")
            else:
                key, at = self.flow_scalar(number, text, at, ",:}")
                if text[at:at + 2] != ": ":
                    self.refuse(number, "expected 'key: value' in a flow mapping")
                if at > 1024:
                    self.refuse(number, "a key may be at most 1024 characters long")
                value, at = self.flow_scalar(number, text, at + 1, ",}")
                entry = (key, value)
            entries.append(entry)
            if text[at:at + 1] == ",":
                at = _skip_spaces(text, at + 1)
            elif text[at:at + 1] not in ("", close):
                self.refuse(number, f"expected ',' or {close!r} in a flow collection")
        if not _COMMENT_TAIL.fullmatch(text, at + 1):
            self.refuse(number, f"unexpected text after {close!r}")
        if close == "]":
            return entries
        mapping = {}
        for key, value in entries:
            if key in mapping:
                self.refuse(number, f"duplicate key {key!r}")
            mapping[key] = value
        return mapping

    def flow_scalar(self, number: int, text: str, at: int, stops: str):
        """The scalar in a flow collection at `at`, and the index of the stop after it."""
        at = _skip_spaces(text, at)
        if text[at:at + 1] in ("'", '"'):
            value, at = self.quoted(number, text, at)
            return value, _skip_spaces(text, at)
        end = at
        while end < len(text) and text[end] not in stops:
            end += 1
        plain = text[at:end].rstrip(" ")
        if not plain:
            self.refuse(number, "empty entry in a flow collection")
        if any(c in plain for c in "[]{}?"):
            self.refuse(number, "a flow collection holds only scalars")
        return self.plain(number, plain), end

    def plain(self, number: int, text: str):
        """An unquoted scalar, resolved as YAML 1.1 resolves it."""
        if not text:
            self.refuse(number, "empty key")
        if (text[0] in "&*!|>%@`#,[]{}'\"?:"
                or (text[0] == "-" and text[1:2] in ("", " "))):
            self.refuse(number, f"{text!r}: anchors, aliases, tags, block scalars and"
                                " indicator characters are not supported; quote the value")
        if ": " in text or text.endswith(":") or " #" in text:
            self.refuse(number, f"{text!r}: a plain value may not hold ': ' or ' #';"
                                " quote it")
        if text in _NULLS:
            return None
        if text in _BOOLS:
            return _BOOLS[text]
        if _INT.fullmatch(text):
            return int(text)
        if _FLOAT.fullmatch(text):
            return float(text)
        if text in _SPECIAL_WORDS or _NUMBER_LIKE.match(text):
            self.refuse(number, f"{text!r} reads as a YAML 1.1 boolean, number, date or"
                                " time this reader does not accept; write true, false or"
                                " a decimal number, or quote it")
        return text


def _is_entry(content: str) -> bool:
    return content == "-" or content.startswith("- ")


def _colon(text: str, at: int) -> int:
    """The index of the first ':' from `at` on that ends a key; -1 if none."""
    while True:
        at = text.find(":", at)
        if at < 0 or text[at + 1:at + 2] in ("", " "):
            return at
        at += 1


def _skip_spaces(text: str, at: int) -> int:
    while text[at:at + 1] == " ":
        at += 1
    return at


def _read_yaml(text: str, path: Path):
    """What `yaml.safe_load(text)` returns, for the campaign grammar only."""
    return _YamlReader(text, path).document()


def load_campaign(path: Path | str, overrides: dict | None = None) -> CampaignConfig:
    """Load a campaign YAML, applying flag overrides on top.

    YAML outside the reader's grammar raises ConfigError naming the
    line. Unknown keys at the top level and in the guards, provider and
    budgets maps raise ConfigError, so a typo cannot silently fall back
    to a default. So do one of those maps holding a scalar, a missing
    manifest, a value the config classes reject, a count (steps,
    workers, budgets) that is not an integer, a time guard that is not
    a finite number, and a `configs` that is not a list or repeats a
    heuristic.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = _read_yaml(path.read_text(), path) or {}
    _reject_unknown_keys(raw, path)
    if raw.get("manifest") is None:
        raise ConfigError(f"campaign config {path} names no manifest")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    base = path.parent

    def respath(value):
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else (base / p).resolve()

    try:
        settings = _converted(raw, {
            "manifest": respath,
            "out_dir": respath,
            "configs": _configs,
            "guards": lambda guards: GuardConfig(**_converted(guards, {
                "max_steps": lambda v: _integer(v, "guards.max_steps"),
                "max_cost": lambda v: _money(v, "guards.max_cost"),
                "max_wall_time": lambda v: _seconds(v, "guards.max_wall_time"),
                "per_command_timeout":
                    lambda v: _seconds(v, "guards.per_command_timeout"),
            })),
            "provider": lambda provider: ProviderSettings(
                **_converted(provider, {"scripts_dir": respath})),
            "workers": lambda v: _integer(v, "workers"),
            "budgets": lambda budgets: {**DEFAULT_BUDGETS, **{
                k: _integer(v, f"budgets.{k}") for k, v in budgets.items()}},
        })
        if settings.get("out_dir") is None:
            settings["out_dir"] = base / "out"
        return CampaignConfig(**settings)
    except (AttributeError, TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid campaign config {path}: {exc}") from exc
