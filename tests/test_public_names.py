"""Every public name of the package resolves, so a broken re-export fails here."""

import ast
import os
import re

import redunet

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_public_name_resolves():
    assert [name for name in redunet.__all__ if not hasattr(redunet, name)] == []
    assert len(set(redunet.__all__)) == len(redunet.__all__)


def test_readme_imports_only_public_names():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    imported = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "redunet"
                for alias in node.names]
    assert imported
    assert [name for name in imported if name not in redunet.__all__] == []
