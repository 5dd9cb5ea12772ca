"""One scripted repair run, step by step.

The toy project ships a real failing test. A scripted provider plays a
four-step session (inspect, patch, verify, signal) and the loop records
everything: transcript, cost, termination reason, final patch.
"""

import tempfile
from pathlib import Path

from histrepair import loop, records, sandbox, synth
from histrepair.config import BUILTIN_ADAPTERS, ProviderSettings
from histrepair.provider import ScriptedProvider

work_dir = tempfile.TemporaryDirectory(prefix="demo-loop-")
work = Path(work_dir.name)
toy = synth.build_toy_campaign(work / "toy")

handle = sandbox.provision(synth.TOY_BUG_ID, toy["repo"], toy["snapshot"],
                           BUILTIN_ADAPTERS["local-python"])
print(f"sandbox at {handle.worktree_path}")

# the failing state the agent starts from
_, before = sandbox.run_test(handle)
print(f"before: all_passed={before.all_passed} failing={before.failing_tests}")

# each reply carries exactly one fenced command block
session = [
    {"text": "Let me look at the function first.\n"
             "```bash\nsed -n '1,8p' calc.py\n```",
     "input_tokens": 900, "output_tokens": 30},
    {"text": "add() subtracts. Reverting the operator.\n"
             "```bash\nsed -i 's/return a - b  # fast path/return a + b/' calc.py\n```",
     "input_tokens": 1100, "output_tokens": 45},
    {"text": "Verifying.\n```bash\ntest\n```",
     "input_tokens": 1200, "output_tokens": 20},
    {"text": "Green. Done.\n"
             f"```bash\necho {loop.DEFAULT_SENTINEL}\n```",
     "input_tokens": 1300, "output_tokens": 18},
]

harness = loop.LoopHarness(
    provider=ScriptedProvider(replies=session),
    rates=ProviderSettings().rates(),  # the scripted model's default prices
)
record = loop.run(synth.TOY_BUG_ID, "non_history",
                  "You are a repair agent working in a bash sandbox.",
                  "Fix the failing test.", handle, harness)

print(f"\ntermination: {record.termination} after {record.steps_taken} steps")
print(f"cost: ${record.total_cost}")
print(f"tests passed at end: {record.tests_passed_at_end}")

print("\ntranscript:")
for msg in record.transcript:
    first = msg.content.splitlines()[0] if msg.content else ""
    print(f"  step {msg.step_index} {msg.role:<12} {first[:58]}")

print("\nfinal patch:")
print(record.final_patch)

# records persist as line-delimited JSON, one file per (bug, config)
out = work / records.record_filename(record.bug_id, record.config)
records.write_run_record(record, out)
reloaded = records.load_run_record(out)
print(f"record round-trips: {reloaded.total_cost == record.total_cost}")

sandbox.teardown(handle, work / "artifacts", record.final_patch)
print(f"kept after teardown: {sorted(p.name for p in (work / 'artifacts').iterdir())}")

work_dir.cleanup()
