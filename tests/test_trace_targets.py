"""The benchmark's trace targets must name code that exists.

perfbench wraps each (module, attribute) of ``perfbench/tracing.py``'s
``TARGETS`` to time it; a target that no longer resolves reads 0 without
failing the run.  This reads the tuple without importing the benchmark.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Stale targets that only a change to the benchmark itself may drop.  The game
# calls the follower through ``best_responses``, so it no longer imports
# ``best_response``; the NE finders read the filled table as arrays, so
# ``GridEvaluator`` has no per-entry reader; the slot loop takes its SINRs
# from ``link_terms`` and ``sinrs``, so ``sinr_vector`` is gone.
EXPECTED_MISSING = {
    ("nomajam.jammer", "JammerAgent.step"),
    ("nomajam.game", "slope_sign_disagreements"),
    ("nomajam.game", "best_response"),
    ("nomajam.game", "GridEvaluator.entry"),
    ("nomajam.harness", "sinr_vector"),
}


def trace_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [tuple(ast.literal_eval(elt))[:2] for elt in node.value.elts]
    raise AssertionError("no TARGETS in perfbench/tracing.py")


def resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


def test_learn_and_harness_trace_targets_resolve():
    targets = trace_targets()
    missing = {t for t in targets if not resolves(*t)}
    assert missing == EXPECTED_MISSING
    assert any(m == "nomajam.learn.agents" for m, _ in targets)
    assert any(m == "nomajam.harness" for m, _ in targets)
