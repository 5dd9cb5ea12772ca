"""History-aware automated program repair toolkit.

Pipeline: mine git blame history for each bug, turn the resolved blame
commit into one of three context heuristics, drive a guarded bash-tool
agent loop against a sandboxed checkout, and aggregate the outcomes
into repair metrics with significance tests.
"""

__version__ = "0.1.0"
