"""One core for group maxima: ``quantizer._group_maxima``.

The block encoder and the profile's maxima chain both reduce group maxima
through that one function.  ``np.maximum.reduceat`` appears only in its
body, and no module but ``quantizer`` reduces group maxima: none names
``_group_maxima``, ``reduceat``, ``np.maximum`` or ``np.amax``, or takes a
``max`` along an axis.  The rule is read from the package's source.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "quantkit")
REDUCERS = {"_group_maxima", "reduceat", "maximum", "amax", "fmax"}


def _modules():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def _reductions(tree):
    """The line of every group-maxima reduction in ``tree``: an attribute
    or imported name in REDUCERS, a ``_group_maxima`` name, or a ``max``
    call with an axis."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in REDUCERS:
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] in REDUCERS:
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "_group_maxima":
            yield node.lineno
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "max"
              and (len(node.args) > 0 or any(kw.arg == "axis" for kw in node.keywords))):
            yield node.lineno


def test_reduceat_appears_only_in_group_maxima():
    found = [(module, fn.name) for module, tree in _modules() for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if getattr(node, "attr", None) == "reduceat"]
    assert found == [("quantizer.py", "_group_maxima")]


def test_no_other_module_reduces_group_maxima():
    found = {module: sorted(set(_reductions(tree)))
             for module, tree in _modules() if module != "quantizer.py"}
    assert {module: lines for module, lines in found.items() if lines} == {}
