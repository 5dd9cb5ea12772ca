"""Command-line entry point.

Subcommands: study (blame availability), context (heuristic payload +
prompt preview), repair (one bug, one config), batch (the full
campaign), report (metrics over a records directory).

Exit codes: 0 success, 2 usage/configuration error, 4 a repair run
terminated by a guard or failed its tests, 3 any other domain error,
and from `batch`, any job that failed without a record.

Each subcommand imports the layers it runs (blame, the loop and its
sandbox, the records, the metrics) when it runs, so a cold call pays
only for those. The module top loads only `config` and `errors`:
`report` and the set-up path never load git, the context builder or
`traceback`. The names below that stand for `bugs`, `context` and
`patches` functions are deferred bindings rather than imports inside
the functions that use them, because the benchmark's tracer wraps
`build_context`, `render_prompts`, `load_manifest` and
`parse_unified_diff` at cli's own attributes: cli must call them
through its globals for the tracer to see those calls.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import (
    BUILTIN_ADAPTERS,
    HEURISTICS,
    CampaignConfig,
    load_campaign,
    make_provider,
)
from .errors import (
    ConfigError,
    EmptyScope,
    FnPairUnavailable,
    HistRepairError,
    NotFound,
    UniverseMismatch,
)

if TYPE_CHECKING:
    from . import metrics as metrics_mod
    from .bugs import BugRecord
    from .records import RunRecord
    from .gitio import CallMemo

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_GUARD = 4

# the path the agent is told the project lives at; stable across
# provisioned worktrees so transcripts replay byte-identically
AGENT_REPO_PATH = "."


def _deferred(module: str, name: str):
    """A stand-in for `module.name` that imports `module` on its first call."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    return call


load_manifest = _deferred(".bugs", "load_manifest")
categorize_bug = _deferred(".bugs", "categorize_bug")
build_context = _deferred(".context", "build_context")
render_prompts = _deferred(".context", "render_prompts")
save_context = _deferred(".context", "save_context")
parse_unified_diff = _deferred(".patches", "parse_unified_diff")


def _find_record(cfg: CampaignConfig, bug_id: str) -> BugRecord:
    for rec in load_manifest(cfg.manifest):
        if rec.spec.bug_id == bug_id:
            return rec
    raise NotFound(f"bug {bug_id!r} is not in the manifest")


def prepare_bundle(cfg: CampaignConfig, rec: BugRecord, heuristic: str,
                   memo: CallMemo):
    """Blame, extract, truncate and render for one (bug, heuristic).

    Returns (bundle, context-or-None). The bug is blamed once per
    `memo`, the CLI call's, for all its history configs. A fn_pair that
    cannot anchor degrades to a notice line instead of failing the run.
    """
    ctx = None
    note = ""
    if heuristic != "non_history":
        from . import blame as blame_mod

        summary = memo.get(
            ("blame", rec.repo_path, rec.spec.bug_id),
            lambda: blame_mod.summarize_blame(rec.repo_path, rec.spec),
        )
        anchor = next(
            (e for e in summary.entries if e.commit_id == summary.resolved_commit),
            None,
        )
        try:
            ctx = build_context(
                rec.repo_path, heuristic, summary.resolved_commit,
                entry=anchor, language=cfg.language, budgets=cfg.budgets,
            )
        except FnPairUnavailable as exc:
            note = f"historical context unavailable: {exc}"
    bundle = render_prompts(
        rec.spec, ctx,
        repo_path=AGENT_REPO_PATH, sentinel=cfg.sentinel, history_note=note,
    )
    return bundle, ctx


def _write_prompts(out_dir: Path, stem: str, bundle, ctx) -> None:
    """Save a job's system and user prompts and its context sidecar."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.system.txt").write_text(bundle.system_prompt)
    (out_dir / f"{stem}.user.txt").write_text(bundle.user_prompt)
    if ctx is not None:
        save_context(ctx, out_dir / f"{stem}.context.json")


def run_one_job(cfg: CampaignConfig, rec: BugRecord, heuristic: str,
                memo: CallMemo) -> RunRecord:
    """One full repair: provision, loop, persist record and artifacts.

    `memo` is the CLI call's memo of blame summaries and final-patch
    verdicts.
    """
    from . import loop as loop_mod
    from . import sandbox as sb
    from .records import record_filename

    bug_id = rec.spec.bug_id
    # provider and prompts come first: a configuration problem must
    # surface before any sandbox exists
    provider = make_provider(cfg.provider, bug_id, heuristic)
    bundle, ctx = prepare_bundle(cfg, rec, heuristic, memo)
    stem = f"{bug_id}__{heuristic}"
    _write_prompts(cfg.out_dir / "context", stem, bundle, ctx)

    handle = sb.provision(bug_id, rec.repo_path, rec.spec.snapshot_ref,
                          BUILTIN_ADAPTERS[cfg.adapter])
    record = None
    try:
        harness = loop_mod.LoopHarness(
            provider=provider,
            rates=cfg.provider.rates(),
            guards=cfg.guards,
            sentinel=cfg.sentinel,
            verdicts=memo,
        )
        record = loop_mod.run(
            bug_id, heuristic,
            bundle.system_prompt, bundle.user_prompt, handle, harness,
        )
    finally:
        # the artifact patch is the record's; a run that raised has none
        sb.teardown(handle, cfg.out_dir / "artifacts" / stem,
                    record.final_patch if record is not None else "")
    records_dir = cfg.out_dir / "records"
    loop_mod.write_run_record(record, records_dir / record_filename(bug_id, heuristic))
    return record


def _load_categories(cfg: CampaignConfig) -> dict[str, str]:
    categories = {}
    for rec in load_manifest(cfg.manifest):
        if rec.fix_patch_path is None:
            raise ConfigError(
                f"bug {rec.spec.bug_id} has no fix_patch_path; "
                "the report needs it for categorization"
            )
        patch = parse_unified_diff(rec.fix_patch_path.read_text())
        categories[rec.spec.bug_id] = categorize_bug(patch)
    return categories


def rows_from_records(records_dir: Path,
                      categories: dict[str, str]) -> list[metrics_mod.OutcomeRow]:
    from . import metrics as metrics_mod
    from .records import load_run_record

    rows = []
    for path in sorted(records_dir.glob("*.jsonl")):
        record = load_run_record(path)
        if record.bug_id not in categories:
            raise ConfigError(f"record {path.name}: bug not in manifest")
        rows.append(metrics_mod.OutcomeRow(
            bug_id=record.bug_id,
            category=categories[record.bug_id],
            config=record.config,
            passed=record.tests_passed_at_end,
            steps=record.steps_taken,
            cost=record.total_cost,
            termination=record.termination,
        ))
    if not rows:
        raise EmptyScope(f"no run records in {records_dir}")
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_study(cfg: CampaignConfig, args: argparse.Namespace) -> int:
    from . import blame as blame_mod

    records = load_manifest(cfg.manifest)
    patches = {}
    for rec in records:
        if rec.fix_patch_path is not None and rec.fix_patch_path.exists():
            patches[rec.spec.bug_id] = parse_unified_diff(rec.fix_patch_path.read_text())
    report = blame_mod.run_availability_study(records, patches)
    out_dir = args.out or (cfg.out_dir / "study")
    blame_mod.write_study_outputs(report, out_dir)
    cfg.freeze_into(out_dir)
    print(blame_mod.render_availability_table(report), end="")
    if report.dataset_size and len(report.exclusions) * 10 > report.dataset_size:
        print(
            f"error: {len(report.exclusions)} of {report.dataset_size} bugs "
            "excluded (>10%)", file=sys.stderr,
        )
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_context(cfg: CampaignConfig, args: argparse.Namespace) -> int:
    from .gitio import CallMemo

    rec = _find_record(cfg, args.bug)
    bundle, ctx = prepare_bundle(cfg, rec, args.heuristic, CallMemo())
    out_dir = args.out or (cfg.out_dir / "context")
    _write_prompts(out_dir, f"{args.bug}__{args.heuristic}", bundle, ctx)
    cfg.freeze_into(out_dir)
    print(f"token estimate: {bundle.token_estimate}")
    return EXIT_OK


def cmd_repair(cfg: CampaignConfig, args: argparse.Namespace) -> int:
    bug_id, heuristic = args.bug, args.heuristic
    if heuristic not in cfg.configs:
        raise ConfigError(
            f"heuristic {heuristic!r} is not among campaign configs {cfg.configs}"
        )
    from .records import record_filename
    from .gitio import CallMemo

    rec = _find_record(cfg, bug_id)
    cfg.freeze_into(cfg.out_dir)
    record = run_one_job(cfg, rec, heuristic, CallMemo())
    path = cfg.out_dir / "records" / record_filename(bug_id, heuristic)
    print(path)
    if record.tests_passed_at_end:
        return EXIT_OK
    print(f"run terminated: {record.termination}", file=sys.stderr)
    return EXIT_GUARD


def cmd_batch(cfg: CampaignConfig, args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor, as_completed

    from . import blame, bugs, context, loop  # noqa: F401  (loaded here, not in a worker)
    from .records import record_filename, record_is_complete
    from .gitio import CallMemo

    # every layer a job runs loads before the pool starts, so no
    # worker's first job races another for an import
    records = load_manifest(cfg.manifest)
    cfg.freeze_into(cfg.out_dir)
    records_dir = cfg.out_dir / "records"
    memo = CallMemo()
    jobs = []
    skipped = 0
    # config-major: the runs of one bug, which may end in the same
    # patch, are far apart in the queue, so one rarely waits on another's
    # verification
    for heuristic in cfg.configs:
        for rec in records:
            path = records_dir / record_filename(rec.spec.bug_id, heuristic)
            if record_is_complete(path):
                skipped += 1
                continue
            jobs.append((rec, heuristic))

    failures: list[tuple[str, str, str]] = []
    done = 0

    def one(job):
        rec, heuristic = job
        try:
            record = run_one_job(cfg, rec, heuristic, memo)
            return (rec.spec.bug_id, heuristic, record.termination, None)
        except Exception as exc:
            return (rec.spec.bug_id, heuristic, "", f"{type(exc).__name__}: {exc}")

    # progress lines follow completion order, so a slow job hides nothing
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        pending = [pool.submit(one, job) for job in jobs]
        for future in as_completed(pending):
            bug_id, heuristic, termination, error = future.result()
            done += 1
            if error is not None:
                failures.append((bug_id, heuristic, error))
                print(f"[{done}/{len(jobs)}] {bug_id} {heuristic}: FAILED {error}")
            else:
                print(f"[{done}/{len(jobs)}] {bug_id} {heuristic}: {termination}")

    print(f"batch complete: {done} run, {skipped} skipped (already complete), "
          f"{len(failures)} failed")
    for bug_id, heuristic, error in failures:
        print(f"  failed: {bug_id} {heuristic}: {error}", file=sys.stderr)
    # a failed job has no record; the next batch runs it again
    return EXIT_DOMAIN if failures else EXIT_OK


def cmd_report(cfg: CampaignConfig, args: argparse.Namespace) -> int:
    from . import metrics as metrics_mod

    records_dir = args.records_dir or (cfg.out_dir / "records")
    categories = _load_categories(cfg)
    rows = rows_from_records(records_dir, categories)
    out_dir = args.out or (cfg.out_dir / "report")
    paths = metrics_mod.export_report(rows, out_dir)
    cfg.freeze_into(out_dir)
    print(Path(paths["table"]).read_text(), end="")
    print(Path(paths["stats"]).read_text(), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _path_or_none(text: str) -> Path | None:
    # an empty directory flag overrides nothing; a relative one is
    # relative to the working directory, whichever command reads it
    return Path(text).resolve() if text else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histrepair",
        description="History-aware automated program repair toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = ("--config", {"required": True, "help": "campaign YAML file"})
    out = ("--out", {"type": _path_or_none, "help": "output directory override"})
    bug = ("--bug", {"required": True})
    heuristic = ("--heuristic", {"required": True, "choices": HEURISTICS})
    for name, run, help_text, flags in (
        ("study", cmd_study, "blame availability study", (config, out)),
        ("context", cmd_context, "build context and prompts for one bug",
         (config, out, bug, heuristic)),
        ("repair", cmd_repair, "repair one bug under one config", (config, bug, heuristic)),
        ("batch", cmd_batch, "run the full campaign",
         (config, ("--workers", {"type": int}), out)),
        ("report", cmd_report, "aggregate records into reports",
         (config, ("--records-dir", {"type": _path_or_none}), out)),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_campaign(args.config, {"out_dir": getattr(args, "out", None),
                                          "workers": getattr(args, "workers", None)})
        return args.run(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotFound, EmptyScope, UniverseMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except HistRepairError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # unexpected: show the trace, fail as domain
        import traceback

        traceback.print_exc()
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
