"""Every call that takes block scratch trims it in a ``finally``.

``quantizer._trim_scratch()`` drops this thread's scratch after a call
that grew a buffer past one block.  Run anywhere but in the ``finally``
body of a ``try``, it is skipped by a call that raises, which then leaves
its grown buffers behind.  The rule is read from the package's source.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "quantkit")


def _trim_calls(tree):
    """Every ``_trim_scratch(...)`` call in ``tree``, and the ids of the
    nodes that lie in the ``finally`` body of some ``try``."""
    in_finally = {id(node) for t in ast.walk(tree) if isinstance(t, ast.Try)
                  for stmt in t.finalbody for node in ast.walk(stmt)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_trim_scratch"]
    return calls, in_finally


def test_every_trim_takes_no_width_and_runs_in_a_finally():
    found, bad = 0, []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            calls, in_finally = _trim_calls(ast.parse(fh.read()))
        found += len(calls)
        bad += [f"{os.path.basename(path)}:{call.lineno}" for call in calls
                if call.args or call.keywords or id(call) not in in_finally]
    assert found >= 6  # quantize_weight and _activation, two analyzer passes, a write, _matmul
    assert bad == []
