"""Traced in-process run: spans around histrepair's public functions.

The benchmark wraps module attributes from outside, at the name the
caller looks up (for example `cli.build_context`, because cli imports
that name), and restores them afterwards. Spans carry name, start, end,
parent, job and thread. Each thread keeps its own span stack, and jobs
submitted to `batch`'s thread pool inherit the submitting span as
parent. Spans stay in memory and are written as JSONL when the run
ends. Git processes started by `gitio` are counted by handing gitio a
proxy of the `subprocess` module.

`traced_run` runs `batch` once untraced and then study, context, batch
and report traced, all through `cli.main` in this process, checks
every output against the campaign truth, and derives the per-layer
metrics (PER_LAYER) from the spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import itertools
import json
import statistics
import subprocess
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

# name, unit, better
PER_LAYER = (
    ("stats.import_s", "s", "lower"),
    ("metrics.import_s", "s", "lower"),
    ("provider.import_s", "s", "lower"),
    ("gitio.calls", "count", "lower"),
    ("gitio.busy_s", "s", "lower"),
    ("gitio.calls_per_job", "count", "lower"),
    ("gitio.file_at.calls", "count", "lower"),
    ("gitio.blame_file_lines.calls", "count", "lower"),
    ("gitio.commit_meta.calls", "count", "lower"),
    ("gitio.repeat_read_frac", "frac", "lower"),
    ("blame.summarize.calls", "count", "lower"),
    ("blame.summarize_s", "s", "lower"),
    ("blame.resolve_insertion_s", "s", "lower"),
    ("blame.judge.calls", "count", "lower"),
    ("sourcetext.executable_line_numbers.calls", "count", "lower"),
    ("sourcetext.executable_line_numbers_s", "s", "lower"),
    ("spans.calls", "count", "lower"),
    ("spans.busy_s", "s", "lower"),
    ("spans.repeat_scan_frac", "frac", "lower"),
    ("context.fn_all_s", "s", "lower"),
    ("context.fn_pair_s", "s", "lower"),
    ("context.fl_diff_s", "s", "lower"),
    ("context.render_s", "s", "lower"),
    ("context.truncated", "count", "lower"),
    ("sandbox.provision_s", "s", "lower"),
    ("sandbox.exec_s", "s", "lower"),
    ("sandbox.test_s", "s", "lower"),
    ("sandbox.final_patch_s", "s", "lower"),
    ("sandbox.teardown_s", "s", "lower"),
    ("sandbox.commands", "count", "lower"),
    ("provider.complete_s", "s", "lower"),
    ("provider.calls", "count", "lower"),
    ("provider.failures", "count", "lower"),
    ("loop.run_s", "s", "lower"),
    ("loop.self_s", "s", "lower"),
    ("loop.steps", "count", "lower"),
    ("loop.malformed", "count", "lower"),
    ("loop.write_record_s", "s", "lower"),
    ("cli.job_s", "s", "lower"),
    ("cli.job_wait_s", "s", "lower"),
    ("cli.worker_busy_frac", "frac", "higher"),
    ("bugs.load_manifest_s", "s", "lower"),
    ("patches.parse_unified_diff_s", "s", "lower"),
    ("metrics.load_records_s", "s", "lower"),
    ("metrics.export_report_s", "s", "lower"),
    ("stats.friedman.calls", "count", "lower"),
    ("stats.wilcoxon.calls", "count", "lower"),
    ("stats.busy_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# which end-to-end metrics each layer's metrics should move, per workload
LAYER_MAP = {
    "stats/metrics/provider.import_s": {
        "history-large": ["setup_s", "study_s", "context_s", "batch_s", "report_s"],
        "repair-many": ["setup_s", "study_s", "context_s", "batch_s", "report_s"]},
    "gitio.*": {"history-large": ["study_s", "context_s", "batch_s"], "repair-many": []},
    "blame.*": {"history-large": ["study_s", "batch_s"], "repair-many": []},
    "sourcetext.*": {"history-large": ["study_s"], "repair-many": []},
    "spans.*": {"history-large": ["batch_s", "context_s"], "repair-many": []},
    "context.*": {"history-large": ["context_s", "batch_s"], "repair-many": []},
    "sandbox.*": {"history-large": ["batch_s"],
                  "repair-many": ["batch_s", "jobs_per_s"]},
    "provider.complete_s/calls/failures": {"history-large": [], "repair-many": ["batch_s"]},
    "loop.*": {"history-large": [], "repair-many": ["batch_s", "jobs_per_s"]},
    "cli.*": {"history-large": [], "repair-many": ["jobs_per_s"]},
    "bugs/patches/metrics/stats (report)": {"history-large": [], "repair-many": ["report_s"]},
}

IMPORTED = {"stats.import_s": "histrepair.stats", "metrics.import_s": "histrepair.metrics",
            "provider.import_s": "histrepair.provider"}
HISTORY = ("fn_all", "fn_pair", "fl_diff")


class Tracer:
    """In-memory spans with a per-thread stack, plus patch bookkeeping."""

    def __init__(self):
        self.spans: list[dict] = []
        self.workers = 0
        self.command = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> tuple[int | None, str]:
        """(span id, job) of the innermost open span on this thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "root", (None, ""))

    def adopt(self, root: tuple[int | None, str]) -> None:
        """Make `root` the parent of spans this thread opens with an empty stack."""
        self._local.root = root

    def first_time(self, key) -> bool:
        """Whether `key` is new in the current command (one CLI process)."""
        with self._lock:
            if key in self._seen:
                return False
            self._seen.add(key)
            return True

    def record(self, name: str, start: float, end: float, parent, job: str, **attrs) -> None:
        self.spans.append({"id": next(self._ids), "name": name, "start": start, "end": end,
                           "parent": parent, "job": job, "cmd": self.command,
                           "thread": threading.get_ident(), **attrs})

    def begin_command(self, command: str) -> None:
        """Start a CLI command: what one cold process would see afresh."""
        self.command = command
        with self._lock:
            self._seen.clear()

    def spanned(self, original, name: str, job_of=None, before=None, after=None):
        """`original` wrapped so that each call records a span.

        job_of(args) names the job when no enclosing span has one;
        before(attrs, args) and after(attrs, result, args) add span
        attributes.
        """
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent, job = tracer.current()
            if not job and job_of is not None:
                job = job_of(args)
            sid = next(tracer._ids)
            attrs: dict = {}
            if before is not None:
                before(attrs, args)
            stack = tracer._stack()
            stack.append((sid, job))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, result, args)
                return result
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "cmd": tracer.command,
                                     "thread": threading.get_ident(), **attrs})

        return wrapper

    def wrap(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace owner.attr by its spanned wrapper until `restore`."""
        self.replace(owner, attr, self.spanned(getattr(owner, attr), name, **hooks))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _GitSubprocess:
    """Stands in for the `subprocess` module inside gitio to count git spawns."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(subprocess, name)

    def run(self, *args, **kwargs):
        parent, job = self._tracer.current()
        start = time.perf_counter()
        try:
            return subprocess.run(*args, **kwargs)
        finally:
            self._tracer.record("gitio.spawn", start, time.perf_counter(), parent, job)

    def Popen(self, *args, **kwargs):  # noqa: N802 - mirrors the module attribute
        parent, job = self._tracer.current()
        now = time.perf_counter()
        self._tracer.record("gitio.spawn", now, now, parent, job)
        return subprocess.Popen(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions where their callers look them up."""
    from histrepair import blame, cli, context, gitio, loop, metrics, sandbox, spans

    for attr, fn in sorted(vars(gitio).items()):
        if (inspect.isfunction(fn) and fn.__module__ == gitio.__name__
                and not attr.startswith("_")):
            before = None
            if attr == "file_at":
                def before(attrs, args):
                    attrs["repeat"] = not tracer.first_time(("read", str(args[0]), *args[1:3]))
            tracer.wrap(gitio, attr, f"gitio.{attr}", before=before)
    tracer.replace(gitio, "subprocess", _GitSubprocess(tracer))

    tracer.wrap(blame, "summarize_blame", "blame.summarize_blame",
                job_of=lambda a: a[1].bug_id)
    tracer.wrap(blame, "resolve_insertion", "blame.resolve_insertion")
    tracer.wrap(blame, "fallback_blame", "blame.fallback_blame")
    tracer.wrap(blame, "executable_line_numbers", "sourcetext.executable_line_numbers")

    original_factory = blame.most_recent_judge_factory
    tracer.replace(blame, "most_recent_judge_factory",
                   lambda repo: tracer.spanned(original_factory(repo), "blame.judge"))

    def scan_key(attrs, args):
        language = args[1] if len(args) > 1 else "c_family"
        attrs["repeat"] = not tracer.first_time(("scan", hash(args[0]), language))
    tracer.wrap(spans, "all_spans", "spans.all_spans", before=scan_key)

    for attr in ("extract_fn_all", "extract_fn_pair", "extract_fl_diff"):
        tracer.wrap(context, attr, f"context.{attr}")
    tracer.wrap(cli, "build_context", "context.build_context",
                before=lambda attrs, args: attrs.update(kind=args[1]),
                after=lambda attrs, ctx, args: attrs.update(truncated=ctx.truncated))
    tracer.wrap(cli, "render_prompts", "context.render_prompts")

    def job_name(args):
        return f"{args[1].spec.bug_id}__{args[2]}"
    tracer.wrap(cli, "prepare_bundle", "cli.prepare_bundle", job_of=job_name)
    tracer.wrap(cli, "run_one_job", "cli.run_one_job", job_of=job_name)
    tracer.wrap(cli, "load_manifest", "bugs.load_manifest")
    tracer.wrap(cli, "parse_unified_diff", "patches.parse_unified_diff")
    tracer.wrap(cli, "rows_from_records", "metrics.load_records")
    tracer.wrap(cli, "load_campaign", "config.load_campaign")
    tracer.wrap(cli, "main", "cli.main")

    original_make = cli.make_provider

    def make_provider(*args, **kwargs):
        provider = original_make(*args, **kwargs)
        provider.complete = tracer.spanned(provider.complete, "provider.complete")
        return provider
    tracer.replace(cli, "make_provider", make_provider)

    tracer.wrap(sandbox, "provision", "sandbox.provision")
    tracer.wrap(sandbox, "exec_command", "sandbox.exec_command",
                before=lambda attrs, args: attrs.update(test=loop.invokes_test(args[1])))
    for attr in ("run_test", "final_patch", "teardown"):
        tracer.wrap(sandbox, attr, f"sandbox.{attr}")
    tracer.wrap(loop, "run", "loop.run",
                after=lambda attrs, record, args: attrs.update(steps=record.steps_taken))
    tracer.wrap(loop, "parse_action", "loop.parse_action")
    tracer.wrap(loop, "write_run_record", "loop.write_run_record")
    tracer.wrap(metrics, "export_report", "metrics.export_report")
    tracer.wrap(metrics, "friedman_test", "stats.friedman_test")
    tracer.wrap(metrics, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank")

    class TracedPool(futures.ThreadPoolExecutor):
        """Records each job's wait from submission to start."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.workers = self._max_workers

        def submit(self, fn, /, *args, **kwargs):
            submitted = time.perf_counter()
            root = tracer.current()

            def job(*a, **k):
                tracer.record("cli.job_wait", submitted, time.perf_counter(), root[0], root[1])
                tracer.adopt(root)
                try:
                    return fn(*a, **k)
                finally:
                    tracer.adopt((None, ""))
            return super().submit(job, *args, **kwargs)
    tracer.replace(futures, "ThreadPoolExecutor", TracedPool)


def traced_main(tracer: Tracer | None, argv: list[str], log: Path) -> tuple[int, float, str]:
    """cli.main in-process with output captured; returns (rc, wall, stdout)."""
    from histrepair import cli

    out = io.StringIO()
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_command(argv[0])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(out.getvalue())
    return rc, wall, out.getvalue()


def import_times(bench, probes: int = 3) -> dict[str, float]:
    """Cumulative import seconds of selected modules, median of cold probes."""
    seen: dict[str, list[float]] = {name: [] for name in IMPORTED}
    for k in range(probes):
        call = bench.python_call(bench.work / "logs" / f"importtime{k}",
                                 "-X", "importtime", "-c", "import histrepair.cli")
        cumulative = {}
        for line in call.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for name, module in IMPORTED.items():
            seen[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in seen.items()}


def traced_run(bench) -> dict:
    """Untraced then traced in-process pipeline; per-layer metrics."""
    import gate as gm
    from histrepair import cli  # noqa: F401 - imported before any timing

    truth, g = bench.truth, bench.gate
    yaml = str(bench.camp.yaml)
    work = bench.work / "inproc"
    imports = import_times(bench)

    def run(tracer, name, *argv):
        rc, wall, stdout = traced_main(tracer, list(argv), work / "logs" / f"{name}.txt")
        g.op(rc == 0, f"in-process {name} exited {rc}")
        return wall, stdout

    # untraced batches before and after the traced one, so warm-up does
    # not count as tracing overhead
    plain = [run(None, "batch-untraced", "batch", "--config", yaml,
                 "--out", str(work / "untraced"))[0]]
    tracer = Tracer()
    install(tracer)
    try:
        run(tracer, "study", "study", "--config", yaml, "--out", str(work / "study"))
        for h in HISTORY:
            run(tracer, f"context-{h}", "context", "--config", yaml, "--bug",
                truth["designated"], "--heuristic", h, "--out", str(work / "context"))
        traced_wall, batch_out = run(tracer, "batch", "batch", "--config", yaml,
                                     "--out", str(work / "traced"))
        run(tracer, "report", "report", "--config", yaml, "--records-dir",
            str(work / "traced" / "records"), "--out", str(work / "report"))
    finally:
        tracer.restore()
    plain.append(run(None, "batch-untraced-2", "batch", "--config", yaml,
                     "--out", str(work / "untraced-2"))[0])
    plain_wall = statistics.mean(plain)

    gm.check_study(g, work / "study", truth)
    gm.check_contexts(g, work / "context", truth, [truth["designated"]], HISTORY)
    gm.check_batch(g, work / "traced", batch_out, truth)
    gm.check_contexts(g, work / "traced" / "context", truth, truth["bugs"],
                      [h for h in HISTORY if h in truth["configs"]])
    gm.check_report(g, work / "report", truth)
    for other in ("traced", "untraced-2"):
        gm.check_same_records(g, truth["jobs"], work / "untraced" / "records",
                              work / other / "records", f"{other} vs untraced")

    with (bench.work / "spans.jsonl").open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    summary = per_layer(tracer.spans, tracer.workers)
    metrics = {**imports, **summary, "trace.overhead_frac": traced_wall / plain_wall - 1}
    return {"metrics": metrics, "self_times": self_times(tracer.spans),
            "hot_spots": hot_spots(tracer.spans, truth),
            "batch_untraced_s": plain, "batch_traced_s": traced_wall,
            "layer_map": LAYER_MAP}


# ---------------------------------------------------------------------------
# per-layer summary


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _children(spans: list[dict]) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def _self(span: dict, kids: dict, prefixes: tuple[str, ...] = ("",)) -> float:
    inside = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
              for c in kids.get(span["id"], []) if c["name"].startswith(prefixes)]
    return span["end"] - span["start"] - _union([iv for iv in inside if iv[1] > iv[0]])


def self_times(spans: list[dict]) -> dict:
    """Count, total and self seconds per span name."""
    kids = _children(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += _self(s, kids)
    return dict(sorted(table.items()))


def per_layer(spans: list[dict], workers: int) -> dict:
    """Every PER_LAYER metric except import times and tracing overhead."""
    by_id = {s["id"]: s for s in spans}
    kids = _children(spans)
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def of(name):
        return named.get(name, [])

    def total(items):
        return sum(s["end"] - s["start"] for s in items)

    def outermost(prefix):
        out = []
        for s in spans:
            if not s["name"].startswith(prefix):
                continue
            p = by_id.get(s["parent"])
            while p is not None and not p["name"].startswith(prefix):
                p = by_id.get(p["parent"])
            if p is None:
                out.append(s)
        return out

    def frac(part, whole):
        return part / whole if whole else 0.0

    jobs = of("cli.run_one_job")
    batch = [s for s in of("cli.main") if s["cmd"] == "batch"]
    reads, scans = of("gitio.file_at"), of("spans.all_spans")
    builds = of("context.build_context")
    spawns = of("gitio.spawn")
    job_spawns = sum(1 for s in spawns if s["cmd"] == "batch" and "__" in s["job"])
    stats = of("stats.friedman_test") + of("stats.wilcoxon_signed_rank")
    wall = total(batch)
    return {
        "gitio.calls": len(spawns),
        "gitio.busy_s": total(s for s in outermost("gitio.") if s["name"] != "gitio.spawn"),
        "gitio.calls_per_job": frac(job_spawns, len(jobs)),
        "gitio.file_at.calls": len(reads),
        "gitio.blame_file_lines.calls": len(of("gitio.blame_file_lines")),
        "gitio.commit_meta.calls": sum(len(of(f"gitio.{n}")) for n in
                                       ("commit_subject", "commit_message", "author_time")),
        "gitio.repeat_read_frac": frac(sum(s["repeat"] for s in reads), len(reads)),
        "blame.summarize.calls": len(of("blame.summarize_blame")),
        "blame.summarize_s": total(of("blame.summarize_blame")),
        "blame.resolve_insertion_s": total(outermost("blame.resolve_insertion")),
        "blame.judge.calls": len(of("blame.judge")),
        "sourcetext.executable_line_numbers.calls": len(of("sourcetext.executable_line_numbers")),
        "sourcetext.executable_line_numbers_s": total(of("sourcetext.executable_line_numbers")),
        "spans.calls": len(scans),
        "spans.busy_s": total(scans),
        "spans.repeat_scan_frac": frac(sum(s["repeat"] for s in scans), len(scans)),
        "context.fn_all_s": total(s for s in builds if s["kind"] == "fn_all"),
        "context.fn_pair_s": total(s for s in builds if s["kind"] == "fn_pair"),
        "context.fl_diff_s": total(s for s in builds if s["kind"] == "fl_diff"),
        "context.render_s": total(of("context.render_prompts")),
        "context.truncated": sum(1 for s in builds if s.get("truncated")),
        "sandbox.provision_s": total(of("sandbox.provision")),
        "sandbox.exec_s": total(of("sandbox.exec_command")),
        "sandbox.test_s": total(s for s in of("sandbox.exec_command") if s["test"]),
        "sandbox.final_patch_s": total(of("sandbox.final_patch")),
        "sandbox.teardown_s": total(of("sandbox.teardown")),
        "sandbox.commands": len(of("sandbox.exec_command")),
        "provider.complete_s": total(of("provider.complete")),
        "provider.calls": len(of("provider.complete")),
        "provider.failures": sum(1 for s in of("provider.complete") if s.get("error")),
        "loop.run_s": total(of("loop.run")),
        "loop.self_s": sum(_self(s, kids, ("provider.", "sandbox.")) for s in of("loop.run")),
        "loop.steps": sum(s.get("steps", 0) for s in of("loop.run")),
        "loop.malformed": sum(1 for s in of("loop.parse_action") if s.get("error")),
        "loop.write_record_s": total(of("loop.write_run_record")),
        "cli.job_s": total(jobs),
        "cli.job_wait_s": total(of("cli.job_wait")),
        "cli.worker_busy_frac": frac(total(jobs), workers * wall),
        "bugs.load_manifest_s": total(of("bugs.load_manifest")),
        "patches.parse_unified_diff_s": total(of("patches.parse_unified_diff")),
        "metrics.load_records_s": total(of("metrics.load_records")),
        "metrics.export_report_s": total(of("metrics.export_report")),
        "stats.friedman.calls": len(of("stats.friedman_test")),
        "stats.wilcoxon.calls": len(of("stats.wilcoxon_signed_rank")),
        "stats.busy_s": total(stats),
    }


def hot_spots(spans: list[dict], truth: dict) -> dict:
    """Per-layer numbers of the named hot-spot bugs, with a cross-check.

    The cross-check asks whether the traced run reproduces the hot
    spots measured when the benchmark was written: the insertion below
    the 1000-line header makes hundreds of git calls and takes about a
    second, and fn_pair in the 10k-line file takes seconds.
    """
    if "hl-ins-header" not in truth["bugs"]:
        return {}
    by_id = {s["id"]: s for s in spans}

    def under(span, name):
        found = []
        for s in spans:
            if s["name"] != name:
                continue
            p = by_id.get(s["parent"])
            while p is not None and p["id"] != span["id"]:
                p = by_id.get(p["parent"])
            if p is not None:
                found.append(s)
        return found

    insert = [s for s in spans if s["name"] == "blame.resolve_insertion"
              and s["cmd"] == "study" and s["job"] == "hl-ins-header"]
    insert_s = sum(s["end"] - s["start"] for s in insert)
    insert_git = sum(len(under(s, "gitio.spawn")) for s in insert)
    pair = [s for s in spans if s["name"] == "context.build_context" and s["cmd"] == "context"
            and s["kind"] == "fn_pair" and s["job"].startswith("hl-fnpair-10k")]
    pair_s = sum(s["end"] - s["start"] for s in pair)
    scans = [s for s in spans if s["name"] == "spans.all_spans" and s["cmd"] == "batch"
             and s["job"].startswith("hl-spans-10k")]
    return {
        "hl-ins-header": {"blame.resolve_insertion_s": insert_s, "gitio.calls": insert_git},
        "hl-fnpair-10k": {"context.fn_pair_s": pair_s},
        "hl-spans-10k": {"spans.calls": len(scans),
                         "spans.busy_s": sum(s["end"] - s["start"] for s in scans)},
        "reproduced": {
            "insertion: >=100 git calls and >=0.3 s": insert_git >= 100 and insert_s >= 0.3,
            "fn_pair on 10k lines: >=1 s": pair_s >= 1.0,
        },
    }


if __name__ == "__main__":
    sys.exit("run this module through perfbench/run.py --trace 1")
