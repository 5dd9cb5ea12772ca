import random
import tempfile
from pathlib import Path

from histrepair import blame, context, synth
from histrepair.bugs import FaultLocation, LocalizedLine

# two-commit repo: a function gets its increment bumped
work_dir = tempfile.TemporaryDirectory(prefix="demo-context-")
work = Path(work_dir.name)
repo = synth.init_repo(work / "repo")

V1 = """int f(int a) {
    return a + 1;
}

int g(int b) {
    return b * 2;
}
"""
(repo / "util.c").write_text(V1)
synth.commit_all(repo, "add util helpers", 0)
(repo / "util.c").write_text(V1.replace("a + 1", "a + 2"))
head = synth.commit_all(repo, "bump the increment", 1)

location = FaultLocation(file_path="util.c",
                         lines=(LocalizedLine(line=2, kind="modified"),))
entry = blame.blame_lines(repo, head, location)[0]
print(f"blamed commit: {entry.commit_id[:10]}")

# fn_all: the coarsest view, just function names per co-changed file
ctx = context.build_context(repo, "fn_all", entry.commit_id, entry=entry)
print("\n--- fn_all ---")
print(context.payload_text(ctx))

# fn_pair: the function that held the blamed line, before and after
ctx = context.build_context(repo, "fn_pair", entry.commit_id, entry=entry)
print("--- fn_pair ---")
print(context.payload_text(ctx))

# fl_diff: the commit's full unified diff against its parent
ctx = context.build_context(repo, "fl_diff", entry.commit_id, entry=entry)
print("--- fl_diff ---")
print(context.payload_text(ctx))

# payloads respect per-heuristic character budgets; a tight one keeps
# whole structural pieces and appends a notice
tight = context.build_context(repo, "fl_diff", entry.commit_id, entry=entry,
                              budgets={"fl_diff": 120})
print("--- fl_diff, budget 120 ---")
print(context.payload_text(tight))
print(f"truncated: {tight.truncated}")

# finally, the rendered prompt pair the agent sees
spec = synth.make_blameable_spec(
    synth.build_ground_truth_repo(work / "spare", random.Random(3)),
    random.Random(3), "demo-bug",
)[0]
bundle = context.render_prompts(spec, ctx,
                                repo_path=".", sentinel="COMPLETE_REPAIR_SIGNAL")
print(f"system prompt: {len(bundle.system_prompt)} chars, "
      f"user prompt: {len(bundle.user_prompt)} chars, "
      f"~{bundle.token_estimate} tokens")

work_dir.cleanup()
