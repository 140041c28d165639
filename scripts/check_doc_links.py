#!/usr/bin/env python
"""Fail on broken intra-repo links in the repo's Markdown documentation.

Scans every tracked ``*.md`` file (repo root, ``docs/``, and any other
directory) for Markdown links and image references, resolves relative
targets against the linking file, and reports targets that do not exist.
External links (``http(s)://``, ``mailto:``) and pure in-page anchors
(``#section``) are skipped; a ``file.md#anchor`` target is checked for the
file part only.  Fenced code blocks and inline code spans are not Markdown
links, so text such as `` `table[key](arg)` `` inside them is ignored.

Usage::

    python scripts/check_doc_links.py [root]

Exits nonzero listing every broken link.  Run by the docs-and-examples CI
job so documentation drift fails the build instead of rotting quietly.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterator, List, Tuple

#: Inline links/images: [text](target) / ![alt](target); reference-style
#: definitions: [label]: target
_INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)

#: Fenced code blocks: an opening run of 3+ backticks or tildes, up to a
#: closing run of the same character at least as long (or the end).
_FENCE = re.compile(
    r"^ {0,3}(`{3,}|~{3,})[^\n]*\n.*?(?:^ {0,3}\1[`~]*[ \t]*$|\Z)",
    re.MULTILINE | re.DOTALL,
)
#: Inline code spans: a backtick run closed by a run of the same length,
#: within one paragraph.
_CODE_SPAN = re.compile(r"(?<!`)(`+)(?!`)((?:(?!\n[ \t]*\n).)+?)(?<!`)\1(?!`)", re.DOTALL)

#: Directories never worth scanning.
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules", ".venv"}


def iter_markdown_files(root: str) -> Iterator[str]:
    """Yield every ``*.md`` path under ``root``, skipping junk dirs."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        for name in sorted(filenames):
            if name.lower().endswith(".md"):
                yield os.path.join(dirpath, name)


def strip_code(text: str) -> str:
    """``text`` with fenced blocks and inline code spans blanked out.

    Line breaks inside fenced blocks are kept, so reference definitions
    stay at the start of their lines.
    """
    text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    return _CODE_SPAN.sub(" ", text)


def iter_links(text: str) -> Iterator[str]:
    """Yield every link target in one Markdown document, outside code."""
    text = strip_code(text)
    for match in _INLINE.finditer(text):
        yield match.group(1)
    for match in _REFDEF.finditer(text):
        yield match.group(1)


def is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "ftp://"))


def check_file(path: str, root: str) -> List[Tuple[str, str]]:
    """Return (link, reason) for every broken intra-repo link in ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    broken: List[Tuple[str, str]] = []
    for target in iter_links(text):
        if is_external(target) or target.startswith("#"):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        if file_part.startswith("/"):
            resolved = os.path.join(root, file_part.lstrip("/"))
        else:
            resolved = os.path.join(os.path.dirname(path), file_part)
        resolved = os.path.normpath(resolved)
        if not os.path.exists(resolved):
            broken.append((target, f"no such file: {os.path.relpath(resolved, root)}"))
    return broken


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = os.path.abspath(argv[0]) if argv else os.getcwd()
    failures = 0
    checked = 0
    for path in iter_markdown_files(root):
        checked += 1
        for target, reason in check_file(path, root):
            failures += 1
            print(f"BROKEN {os.path.relpath(path, root)}: ({target}) -> {reason}")
    print(f"checked {checked} markdown file(s): {failures} broken link(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
