"""Walk the blame pipeline end to end on synthetic repositories.

Builds a handful of repos with known per-line history, blames a fault
location, resolves an insertion-only fix through the fallback window,
and finishes with the availability study table over a toy manifest.
"""

import random
import tempfile
from pathlib import Path

from histrepair import blame, synth
from histrepair.bugs import FaultLocation, LocalizedLine, load_manifest
from histrepair.patches import parse_unified_diff

work_dir = tempfile.TemporaryDirectory(prefix="demo-blame-")
work = Path(work_dir.name)

# a repository whose construction record we control completely
gt = synth.build_ground_truth_repo(work / "repo", random.Random(7), n_commits=6)
print(f"built {gt.path.name}: {len(gt.commits)} commits, files {sorted(gt.files)}")

name = sorted(gt.files)[0]
total = len(gt.files[name])
location = FaultLocation(
    file_path=name,
    lines=(LocalizedLine(line=1, kind="modified"),
           LocalizedLine(line=total, kind="modified")),
)
entries = blame.blame_lines(gt.path, gt.head, location)
for entry in entries:
    truth = gt.line_owner(name, entry.line_number)
    print(f"{name}:{entry.line_number} -> {entry.commit_id[:10]}"
          f"  (construction says {truth[:10]})")

# an insertion point has no blamed line; the anchor comes from the
# nearest executable line above it
spec, ins_file, ins_line = synth.make_insertion_spec(gt, random.Random(9), "demo-ins")
anchor = blame.resolve_insertion(gt.path, gt.head, ins_file, ins_line)
print(f"\ninsertion at {ins_file}:{ins_line} anchors on line "
      f"{anchor.line_number} ({anchor.commit_id[:10]})")
if anchor.anchor_note:
    print(f"  note: {anchor.anchor_note}")

# full summary: single / judge / fallback resolution per bug
summary = blame.summarize_blame(gt.path, spec)
print(f"resolution: {summary.resolution_method}, "
      f"blameability: {summary.blameability}, "
      f"unique commits: {len(summary.unique_commits)}")

# the availability study over the bundled toy campaign manifest
toy = synth.build_toy_campaign(work / "toy")
records = load_manifest(toy["manifest"])
patches = {
    rec.spec.bug_id: parse_unified_diff(rec.fix_patch_path.read_text())
    for rec in records
}
report = blame.run_availability_study(records, patches)
print()
print(blame.render_availability_table(report), end="")

work_dir.cleanup()
