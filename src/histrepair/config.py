"""Campaign configuration and campaign policy.

One YAML file drives every subcommand. Environment variables override
secrets only (the provider API key env name); command-line flags
override file values. Every output directory receives a frozen JSON
copy of the effective configuration so results stay auditable.

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
from dataclasses import asdict, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from pathlib import Path

import yaml

from .errors import ConfigError

HEURISTICS = ("non_history", "fn_all", "fn_pair", "fl_diff")

DEFAULT_BUDGETS = {"fl_diff": 12_000, "fn_pair": 8_000, "fn_all": 4_000}

DEFAULT_SENTINEL = "COMPLETE_REPAIR_SIGNAL"

DEFAULT_COMMAND_TIMEOUT = 300.0


@dataclass(frozen=True)
class ProjectAdapter:
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


@dataclass(frozen=True)
class GuardConfig:
    max_steps: int = 50
    max_cost: Decimal = Decimal("1.00")
    max_wall_time: float = 3600.0
    per_command_timeout: float = DEFAULT_COMMAND_TIMEOUT

    def __post_init__(self):
        if (self.max_steps <= 0 or self.max_cost <= 0
                or self.max_wall_time <= 0 or self.per_command_timeout <= 0):
            raise ValueError("guard limits must be strictly positive")


@dataclass
class ProviderSettings:
    """How to reach the model: scripted replay or a live endpoint."""

    mode: str = "scripted"            # scripted | http
    model: str = "scripted-model"
    endpoint: str = ""
    api_key_env: str = "MODEL_API_KEY"
    scripts_dir: Path | None = None   # scripted: one reply file per (bug, config)
    pricing: dict = field(default_factory=lambda: {
        "scripted-model": {"input_per_million": "0.28",
                           "output_per_million": "0.42"},
    })

    def __post_init__(self):
        if self.mode not in _PROVIDER_BUILDERS:
            raise ConfigError(
                f"unknown provider mode {self.mode!r}; "
                f"known: {', '.join(sorted(_PROVIDER_BUILDERS))}"
            )
        # every provider call is billed, so a model without two valid
        # rates would fail each job after its sandbox was built
        rates = self.pricing.get(self.model)
        keys = ("input_per_million", "output_per_million")
        missing = [k for k in keys if not isinstance(rates, dict) or k not in rates]
        if missing:
            raise ConfigError(
                f"no pricing for model {self.model!r}: "
                f"provider.pricing.{self.model} needs {' and '.join(missing)}"
            )
        self._rates = tuple(
            _money(rates[k], f"provider.pricing.{self.model}.{k}") for k in keys)

    def rates(self) -> tuple[Decimal, Decimal]:
        """USD per million input and output tokens of the selected model."""
        return self._rates


@dataclass
class CampaignConfig:
    manifest: Path
    out_dir: Path
    configs: tuple[str, ...] = HEURISTICS
    guards: GuardConfig = field(default_factory=GuardConfig)
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    adapter: str = "local-python"
    backend: str = "local"            # the only sandbox backend
    workers: int = 1
    budgets: dict = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    language: str = "c_family"
    sentinel: str = DEFAULT_SENTINEL

    def __post_init__(self):
        from .spans import DETECTORS

        if not self.configs:
            raise ConfigError("at least one heuristic config must be selected")
        unknown = [c for c in self.configs if c not in HEURISTICS]
        if unknown:
            raise ConfigError(f"unknown heuristic configs: {unknown}")
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
        if self.language not in DETECTORS:
            raise ConfigError(
                f"unknown language {self.language!r}; "
                f"known: {', '.join(sorted(DETECTORS))}"
            )
        if self.backend != "local":
            raise ConfigError(
                f"unknown backend {self.backend!r}: 'local' is the only sandbox"
                " backend; to isolate runs in a container, run histrepair"
                " itself inside one"
            )

    def freeze_into(self, out_dir: Path) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        frozen = out_dir / "effective_config.json"
        frozen.write_text(json.dumps(asdict(self), indent=2, default=str) + "\n")
        return frozen


# every key a campaign YAML may hold, per map; anything else is a typo
_KNOWN_KEYS = {
    "": {f.name for f in fields(CampaignConfig)},
    "guards": {f.name for f in fields(GuardConfig)},
    "provider": {f.name for f in fields(ProviderSettings)},
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


def _converted(mapping: dict, converters: dict) -> dict:
    """The keys `mapping` sets, each through its converter if it has one.

    Keys left out keep the dataclass defaults, which live only there.
    """
    return {k: converters[k](v) if k in converters else v for k, v in mapping.items()}


def load_campaign(path: Path | str, overrides: dict | None = None) -> CampaignConfig:
    """Load a campaign YAML, applying flag overrides on top.

    Unknown keys at the top level and in the guards, provider and
    budgets maps raise ConfigError, so a typo cannot silently fall back
    to a default. So do one of those maps holding a scalar, a missing
    manifest, a value the config classes reject, a count (steps,
    workers, budgets) that is not an integer, and a time guard that is
    not a finite number.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
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
            "configs": tuple,
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
    return HttpProvider(
        endpoint=settings.endpoint,
        model=settings.model,
        api_key_env=settings.api_key_env,
    )


# provider mode -> builder; the one list of modes ProviderSettings accepts
_PROVIDER_BUILDERS = {"scripted": _scripted_provider, "http": _http_provider}


def make_provider(settings: ProviderSettings, bug_id: str, config: str):
    """Build the provider instance one (bug, config) job will query."""
    return _PROVIDER_BUILDERS[settings.mode](settings, bug_id, config)
