"""Shared fixtures: deterministic git repositories and the toy campaign."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from histrepair import gitio, synth


@pytest.fixture
def make_repo(tmp_path):
    """Factory for small deterministic repos built from file snapshots.

    Usage: repo, shas = make_repo([{"a.c": "..."}, {"a.c": "..."}])
    Each dict is one commit's full file state; files absent from a later
    snapshot are deleted in that commit.
    """

    counter = {"n": 0}

    def build(snapshots: list[dict], subdir: str | None = None):
        counter["n"] += 1
        path = tmp_path / (subdir or f"repo{counter['n']}")
        repo = synth.init_repo(path)
        shas = []
        previous: set[str] = set()
        for seq, snapshot in enumerate(snapshots):
            current = set(snapshot)
            for gone in previous - current:
                (repo / gone).unlink()
            for name, content in snapshot.items():
                target = repo / name
                target.parent.mkdir(parents=True, exist_ok=True)
                if isinstance(content, bytes):
                    target.write_bytes(content)
                else:
                    target.write_text(content)
            shas.append(synth.commit_all(repo, f"snapshot {seq}", seq))
            previous = current
        return repo, shas

    return build


@pytest.fixture
def ground_truth_repo(tmp_path):
    rng = random.Random(1234)
    return synth.build_ground_truth_repo(tmp_path / "gt", rng)


@pytest.fixture
def toy_campaign(tmp_path):
    return synth.build_toy_campaign(tmp_path / "toy")


@pytest.fixture
def snapshot_worktree(tmp_path):
    """Factory for detached worktrees of a snapshot, kept under tmp_path.

    Usage: path = snapshot_worktree(repo, ref)
    """
    counter = itertools.count(1)

    def checkout(repo: Path, ref: str) -> Path:
        target = tmp_path / f"wt{next(counter)}"
        gitio.run_git(repo, "worktree", "add", "--detach", str(target), ref)
        return target

    return checkout
