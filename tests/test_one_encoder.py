"""One block encoder: every weight is encoded through ``quantizer._CodeRows``.

``quantize_weight`` and a quantized view's row source both encode row
blocks through that one class.  No other module defines a ``_CodeRows``
or reaches into the encoder's parts (``_encode_into``, and the deleted
``_encode_rows``).  The rule is read from the package's source.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "quantkit")
ENCODER_PARTS = {"_encode_into", "_encode_rows"}


def _modules():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def _names(tree):
    """Every name ``tree`` uses, defines, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_code_rows_is_defined_only_in_the_quantizer():
    defined = [module for module, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "_CodeRows"]
    assert defined == ["quantizer.py"]


def test_no_other_module_reaches_into_the_encoder():
    found = {module: sorted(ENCODER_PARTS.intersection(_names(tree)))
             for module, tree in _modules() if module != "quantizer.py"}
    assert {module: parts for module, parts in found.items() if parts} == {}
