"""Campaign benchmark for histrepair.

Run from the repository root:

    python3 perfbench/run.py --workload history-large --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's campaign from the seed (see
campaign.py), then:

* --trace 0 runs the user's pipeline as cold CLI subprocesses, in
  passes of a set-up probe, `batch` and `report`; the first pass also
  runs `study` and one `context` per history heuristic on the
  workload's designated bug. Passes continue until the next one would end after
  --seconds, but there are always at least two. Every pass writes to
  fresh directories, so `batch` never resumes. Each end-to-end metric
  is the median of its samples in the run.
* --trace 1 runs the same pipeline in-process through `cli.main` with
  spans around each module's public functions (see spantrace.py) and prints
  the per-layer metrics.

Every output is checked against the campaign's construction truth
(gate.py); passes must repeat each other byte for byte. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is 0 only when every check passed. A fuller
result file, with the environment, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"

CLI = "import sys; from histrepair.cli import main; sys.exit(main())"
SETUP = ("import sys; import histrepair.cli; "
         "from histrepair.config import load_campaign; load_campaign(sys.argv[1])")
HEURISTICS = ("fn_all", "fn_pair", "fl_diff")
CALL_TIMEOUT = 150.0
MAX_PASSES = 8

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("study_s", "s", "lower"),
    ("context_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("report_s", "s", "lower"),
    ("campaign_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
)


@dataclass
class Call:
    """One finished subprocess: wall time, exit code, peak RSS, output."""

    wall: float
    rc: int
    maxrss_mb: float
    stdout: str
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_call(argv: list[str], env: dict, log: Path, timeout: float = CALL_TIMEOUT) -> Call:
    """Run argv in its own process group, timed, with its rusage.

    The child is reaped with wait4, whose rusage gives the peak RSS of
    the child (the largest of it and its reaped descendants). On
    timeout the whole group is killed.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    with out.open("wb") as fo, err.open("wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                env=env, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the command left behind in its group
    return Call(wall, proc.returncode, usage.ru_maxrss / 1024,
                out.read_text(errors="replace"), err.read_text(errors="replace"))


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"median {statistics.median(values):.4f}, p{p} {q:.4f}, n={n}"
    return (f"median {statistics.median(values):.4f}, n={n} "
            "(no percentile has 10 samples beyond it)")


class Bench:
    """One benchmark run: a generated campaign and its work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        import campaign
        import gate

        self.work = work
        self.gate_mod = gate
        self.gate = gate.Gate()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + os.pathsep + self.env.get("PYTHONPATH", "")
        self.python = sys.executable
        self.camp = campaign.build(workload, seed, work / "campaign", workers=nproc())
        self.truth = self.camp.truth
        self.calls: list[Call] = []

    def python_call(self, log: Path, *args: str) -> Call:
        """A cold interpreter with histrepair importable; exit 0 is an op."""
        call = run_call([self.python, *args], self.env, log)
        self.gate.op(call.rc == 0, f"{log.name} exited {call.rc}: {call.stderr.strip()[-300:]}")
        return call

    def cli(self, log: Path, *args: str) -> Call:
        call = self.python_call(log, "-c", CLI, *args)
        self.calls.append(call)
        return call

    def setup_probe(self, log: Path) -> float:
        return self.python_call(log, "-c", SETUP, str(self.camp.yaml)).wall

    def cold_pass(self, k: int, samples: dict) -> None:
        """One cold pass in fresh directories, checked against the truth.

        Every pass runs a set-up probe, `batch` and `report`; the first
        also runs `study` and `context` for each history heuristic.
        Later passes must reproduce the first pass's records and report.
        """
        g, gm, truth = self.gate, self.gate_mod, self.truth
        r = self.work / "passes" / f"p{k}"
        yaml = str(self.camp.yaml)
        designated = truth["designated"]

        def add(name, value):
            samples.setdefault(name, []).append(value)

        add("setup_s", self.setup_probe(r / "logs" / "setup"))
        if k == 1:
            study = self.cli(r / "logs" / "study", "study", "--config", yaml,
                             "--out", str(r / "study"))
            gm.check_study(g, r / "study", truth)
            add("study_s", study.wall)
            context = [self.cli(r / "logs" / f"context_{h}", "context", "--config", yaml,
                                "--bug", designated, "--heuristic", h,
                                "--out", str(r / "context")) for h in HEURISTICS]
            gm.check_contexts(g, r / "context", truth, [designated], HEURISTICS)
            add("context_s", sum(c.wall for c in context))
        batch = self.cli(r / "logs" / "batch", "batch", "--config", yaml, "--out", str(r / "batch"))
        done = gm.check_batch(g, r / "batch", batch.stdout, truth)
        gm.check_contexts(g, r / "batch" / "context", truth, truth["bugs"],
                          [h for h in HEURISTICS if h in truth["configs"]])
        add("batch_s", batch.wall)
        add("jobs_per_s", done / batch.wall)
        report = self.cli(r / "logs" / "report", "report", "--config", yaml,
                          "--records-dir", str(r / "batch" / "records"), "--out", str(r / "report"))
        gm.check_report(g, r / "report", truth)
        add("report_s", report.wall)
        if k > 1:
            first = self.work / "passes" / "p1"
            gm.check_same_records(g, truth["jobs"], first / "batch" / "records",
                                  r / "batch" / "records", f"pass {k} vs 1")
            gm.check_same_report(g, first / "report", r / "report", f"pass {k} vs 1")

    def end_to_end(self, seconds: float) -> dict:
        """Cold passes until `seconds` would be exceeded, at least two."""
        # bytecode is compiled once, untimed, as an installed package has it
        self.python_call(self.work / "logs" / "compile", "-m", "compileall", "-q",
                         str(SRC / "histrepair"))
        samples: dict[str, list[float]] = {}
        start = time.perf_counter()
        passes = 0
        while passes < MAX_PASSES:
            began = time.perf_counter()
            passes += 1
            self.cold_pass(passes, samples)
            took = time.perf_counter() - began
            if passes >= 2 and time.perf_counter() - start + took > seconds:
                break
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["campaign_s"] = metrics["study_s"] + metrics["batch_s"] + metrics["report_s"]
        metrics["peak_rss_mb"] = max(c.maxrss_mb for c in self.calls)
        metrics["ops_ok_frac"] = 1.0 - self.gate.failed_frac
        return {"metrics": metrics, "samples": samples, "passes": passes,
                "measured_s": time.perf_counter() - start}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(workload: str, seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "workload": workload, "seed": seed, "nproc": nproc(),
        "python": platform.python_version(), "git": git,
        "scipy": version("scipy"), "numpy": version("numpy"),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("history-large", "repair-many"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "histrepair" / "cli.py").is_file():
        print(f"error: no histrepair sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    (work / "gitconfig").write_text("")
    # sandboxes and worktrees go under the work directory, and git sees
    # no user or system configuration
    os.environ.update({"TMPDIR": str(work / "tmp"), "GIT_CONFIG_NOSYSTEM": "1",
                       "GIT_CONFIG_GLOBAL": str(work / "gitconfig")})
    sys.path[:0] = [str(SRC), str(HERE)]
    # a terminated run unwinds, so the subprocess it waits for is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            import spantrace
            outcome = spantrace.traced_run(bench)
            units = {name: unit for name, unit, _ in spantrace.PER_LAYER}
        else:
            outcome = bench.end_to_end(args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        if (work / "spans.jsonl").exists():
            shutil.move(str(work / "spans.jsonl"), results / f"{stem}.spans.jsonl")
        shutil.rmtree(work, ignore_errors=True)

    g = bench.gate
    metrics = outcome["metrics"]
    if "self_times" in outcome:
        print(f"{'span':<40} {'count':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in outcome["self_times"].items():
            print(f"{name:<40} {row['count']:>8} {row['total_s']:>10.3f} {row['self_s']:>10.3f}")
        for bug, numbers in outcome["hot_spots"].items():
            print(f"hot spot {bug}: {numbers}")
    for name, unit in units.items():
        note = ""
        if name in outcome.get("samples", {}):
            note = f"  [{percentile_note(outcome['samples'][name])}]"
        print(f"{name:<40} {metrics[name]:>14.6f} {unit}{note}")
    print(f"ops_failed_frac {g.failed_frac:.6f} ({g.failed} of {g.attempted} operations)")
    for problem in g.problems[:20]:
        print(f"  mismatch: {problem}")
    record = {"environment": environment(args.workload, args.seed),
              "correct": g.failed == 0, "attempted": g.attempted, "failed": g.failed,
              "ops_failed_frac": g.failed_frac, "problems": g.problems, **outcome}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": g.failed == 0, "attempted": g.attempted, "failed": g.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if g.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
