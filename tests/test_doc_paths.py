"""The documentation names only files that exist.

Every repository path ending in ``.py``, ``.md`` or ``.json`` that
README.md, DESIGN.md or ``docs/*.md`` mention must resolve from the repo
root, ``src/``, ``src/repro/`` or the document's own directory.  Inside
fenced code blocks only paths with a directory part are checked: bare
names there are command-line outputs (``--trace-out t.json``).  DESIGN.md
§3's module map is checked both ways: every entry exists, and every
module under ``src/repro/`` has an entry.  A symbol named as
``path.py::Name`` or ``path.py::Class.attr`` must be defined at the top
level of that file (and ``attr`` in the class body), found by parsing the
file, never importing it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

_PATH = re.compile(
    r"(?<![\w/.*<>{}-])((?:\.\./|[\w.-]+/)*[\w.-]*\w\.(?:py|md|json))(?![\w*{}<>/])"
)


def missing_paths(text: str, doc_dir: Path) -> list[str]:
    """Named paths in ``text`` that resolve nowhere, in order of mention."""
    missing = []
    for i, chunk in enumerate(text.split("```")):
        in_code = i % 2 == 1
        for m in _PATH.finditer(chunk):
            name = m.group(1)
            if in_code and "/" not in name:
                continue
            bases = (ROOT, ROOT / "src", PKG, doc_dir)
            if not any((base / name).exists() for base in bases):
                missing.append(name)
    return missing


def test_checker_flags_a_deleted_module():
    text = "see `patterns/native.py` and `runtime/wire.py`"
    assert missing_paths(text, ROOT) == ["patterns/native.py"]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_named_paths_exist(doc):
    assert missing_paths(doc.read_text(), doc.parent) == []


_SYMBOL = re.compile(r"((?:[\w.-]+/)*[\w.-]*\w\.py)::(\w+(?:\.\w+)?)")


def _defined(body: list) -> dict[str, ast.AST]:
    """Names a module or class body binds, to their defining node."""
    names: dict[str, ast.AST] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names[t.id] = node
    return names


def missing_symbols(text: str, doc_dir: Path) -> list[str]:
    """``path.py::Name[.attr]`` references in ``text`` whose file exists
    but does not define the name, in order of mention (a missing file is
    :func:`missing_paths`' finding)."""
    missing = []
    for m in _SYMBOL.finditer(text):
        path, symbol = m.group(1), m.group(2)
        files = [base / path for base in (ROOT, ROOT / "src", PKG, doc_dir)]
        file = next((f for f in files if f.is_file()), None)
        if file is None:
            continue
        name, _, attr = symbol.partition(".")
        node = _defined(ast.parse(file.read_text()).body).get(name)
        in_class = isinstance(node, ast.ClassDef) and attr in _defined(node.body)
        if node is None or (attr and not in_class):
            missing.append(m.group(0))
    return missing


def test_checker_flags_a_missing_symbol():
    text = (
        "`patterns/planner.py::ActionPlan.confluence`, "
        "`patterns/planner.py::ActionPlan.nope`, "
        "`patterns/planner.py::NoSuchThing` and `runtime/wire.py::WireBatch`"
    )
    assert missing_symbols(text, ROOT) == [
        "patterns/planner.py::ActionPlan.nope",
        "patterns/planner.py::NoSuchThing",
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_named_symbols_exist(doc):
    assert missing_symbols(doc.read_text(), doc.parent) == []


def module_map() -> set[str]:
    """Paths (relative to ``src/repro``) listed in DESIGN.md §3."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("```\nsrc/repro/\n", 1)[1].split("```", 1)[0]
    entries: set[str] = set()
    dirs: list[str] = []
    for line in block.splitlines():
        m = re.match(r"( *)(\S+)", line)
        if m is None:
            continue
        depth = len(m.group(1)) // 2
        token = m.group(2)
        if token.endswith("/"):
            dirs[depth - 1:] = [token]
        elif token.endswith(".py"):
            entries.add("".join(dirs[: depth - 1]) + token)
    return entries


def test_module_map_matches_the_tree():
    listed = module_map()
    present = {
        str(p.relative_to(PKG))
        for p in PKG.rglob("*.py")
        if p.name not in ("__init__.py", "__main__.py")
    }
    assert sorted(listed - present) == [], "map names modules that do not exist"
    assert sorted(present - listed) == [], "modules missing from the map"
