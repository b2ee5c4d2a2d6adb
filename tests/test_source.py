"""Static checks on the package source."""

import ast
import sys
from pathlib import Path

import mutate

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


def _dataclass_fields():
    """(class, field, file, line) for every annotated field of a class
    decorated with ``dataclass`` in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
                continue
            out += [
                (node.name, stmt.target.id, path.name, stmt.lineno)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return out


def test_every_dataclass_field_is_read_in_src():
    """No dataclass field in src/ is only written, passed to its
    constructor, or read by tests: each is read as an attribute in src/."""
    reads = {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = _dataclass_fields()
    unread = sorted(
        f"{file}:{line} {cls}.{name}"
        for cls, name, file, line in found
        if name not in reads
    )
    assert len(found) > 50
    assert unread == []


def test_imports_are_numpy_stdlib_or_package_modules():
    """The only runtime dependency is numpy: every import in src/ is
    relative, numpy, or a module of the standard library."""
    allowed = sys.stdlib_module_names | {"numpy"}
    imported, outside = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += len(names)
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert imported > 10
    assert outside == []


def test_only_the_cli_reaches_the_user():
    """Every message reaches the user through the CLI: no module of src/
    but cli.py calls print, touches sys.stdout or sys.stderr, or imports
    logging."""
    banned = {"print", "stdout", "stderr", "logging"}
    found, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        checked += 1
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                name = node.module
            else:
                continue
            if name in banned:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert checked > 5
    assert found == []


def test_only_the_cli_encodes_and_nothing_takes_examples_or_pairs():
    """Pairs are encoded at the edge: no module of src/ but cli.py calls
    ``encode_pairs``, and no function takes NLIExamples and EncodedPairs
    interchangeably, by a parameter annotated with both or by an
    ``isinstance`` test on either."""
    both = {"NLIExample", "EncodedPairs"}
    encodes, found = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    named = {
                        n.id for n in ast.walk(arg.annotation or ast.Pass())
                        if isinstance(n, ast.Name)
                    }
                    if both <= named:
                        found.append(f"{path.name}:{node.lineno} {node.name}({arg.arg})")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "encode_pairs":
                    encodes.append(path.name)
                    if path.name != "cli.py":
                        found.append(f"{path.name}:{node.lineno} encode_pairs")
                elif name == "isinstance" and both & {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                }:
                    found.append(f"{path.name}:{node.lineno} isinstance")
    assert found == []
    assert "cli.py" in encodes


def test_every_mutation_still_applies():
    """Each entry of ``tests/mutate.py`` still breaks what it names: its
    old text occurs exactly once in its file, its new text differs, and it
    names the tests that must fail."""
    names = [m.name for m in mutate.MUTATIONS]
    assert len(names) >= 20 and len(set(names)) == len(names)
    stale = [
        f"{m.name}: {mutate.missing(m) or 'no change or no test named'}"
        for m in mutate.MUTATIONS
        if mutate.missing(m) or m.old == m.new or not m.must_fail
    ]
    assert stale == []
