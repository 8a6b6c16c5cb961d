"""The documentation names only files that exist.

Every repository path ending in ``.py``, ``.md`` or ``.json`` that
README.md, DESIGN.md or ``docs/*.md`` mention must resolve from the repo
root, ``src/``, ``src/repro/`` or the document's own directory.  Inside
fenced code blocks only paths with a directory part are checked: bare
names there are command-line outputs (``--trace-out t.json``).  DESIGN.md
§3's module map is checked both ways: every entry exists, and every
module under ``src/repro/`` has an entry.
"""

from __future__ import annotations

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
