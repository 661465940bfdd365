"""Every quantkit function the benchmark tracer wraps exists.

The tracer (``perfbench/tracer.py``) names the functions it wraps as
``TRACED = {module: (function, ...)}``; a name that no longer exists would
silently drop that function's spans and counters.  The table is read from
the file's source, so the tracer is neither imported nor changed.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _traced() -> dict:
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TRACED table")


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    missing = [f"quantkit.{module}.{name}" for module, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"quantkit.{module}"), name, None))]
    assert missing == []
