"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gatednli"


def _definitions_and_uses():
    """(definitions, uses): every function, method and class definition as
    (name, file, first line, last line), and every identifier a module reads
    (names, attributes, imported names, keyword names) as (name, file, line)."""
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.alias):
                uses.append((node.name, path.name, node.lineno))
            elif isinstance(node, ast.keyword) and node.arg is not None:
                uses.append((node.arg, path.name, node.lineno))
    return defs, uses


def test_every_defined_name_is_used_in_src():
    """No function, method or class in src/ is dead or reached only from
    tests: each is used somewhere in src/ outside its own definition."""
    defs, uses = _definitions_and_uses()
    unused = sorted(
        f"{file}:{first} {name}"
        for name, file, first, last in defs
        if not (name.startswith("__") and name.endswith("__"))
        and not any(
            use == name and not (use_file == file and first <= line <= last)
            for use, use_file, line in uses
        )
    )
    assert len(defs) > 100
    assert unused == []
