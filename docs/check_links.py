#!/usr/bin/env python3
"""Dead-link check over every Markdown file in the repository.

Stdlib-only, offline: relative links (``[text](path)`` and bare
``<path.md>``-style references) are resolved against the file that contains
them and must point at an existing file or directory; external links
(``http(s)://``, ``mailto:``) are *not* fetched — CI must pass without
network access.  Anchors are validated too: a ``#fragment`` (in-page or on
a relative ``.md`` link) must match a GitHub-style heading slug in the
target file, so a heading rename or section renumbering that orphans a
deep link fails the build the same way a file rename does.

Usage::

    python docs/check_links.py          # exit 1 if any relative link is dead

CI runs this next to ``gen_api.py --check`` so a file rename that orphans a
cross-reference fails the build.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: markdown inline links: [text](target) — target captured lazily so titles
#: ('path "title"') and nested parens in text don't confuse it
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ATX headings (``#`` .. ``######``); setext headings are not used here
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

#: fenced code blocks — headings inside them are not anchors
FENCE_RE = re.compile(r"^(```|~~~)")

#: directories never scanned (artifacts, VCS internals)
SKIP_DIRS = {".git", "runs", "results", "__pycache__", ".pytest_cache"}

#: link schemes that are out of scope for an offline checker
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def iter_markdown_files() -> list[Path]:
    """Every ``*.md`` under the repo root, skipping artifact directories."""
    out = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(
                REPO_ROOT).parts):
            continue
        out.append(path)
    return out


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading line.

    Markdown formatting is dropped first (inline code, emphasis, the text
    of links), then: lowercase, punctuation removed, spaces and dashes
    become hyphens. Matches GitHub's slugger for the constructs used in
    this repo (including ``§``-numbered headings, where the ``§`` is
    punctuation and disappears).
    """
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # [t](u) -> t
    text = text.replace("`", "").replace("*", "").replace("_", "_")
    text = text.strip().lower()
    # GitHub keeps letters/digits/underscores/hyphens/spaces, drops the rest
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def collect_anchors(path: Path) -> set[str]:
    """All valid anchor slugs in one Markdown file.

    Duplicate headings get ``-1``, ``-2``, ... suffixes exactly as GitHub
    appends them; explicit ``<a name="...">``/``<a id="...">`` anchors
    count too.
    """
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    in_fence = False
    text = path.read_text()
    for line in text.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    for m in re.finditer(r"<a\s+(?:name|id)=\"([^\"]+)\"", text):
        anchors.add(m.group(1))
    return anchors


def check_file(path: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    """Dead-link messages for one Markdown file (empty = clean)."""
    problems = []
    text = path.read_text()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        rel = path.relative_to(REPO_ROOT)
        base, _, fragment = target.partition("#")
        resolved = (path.parent / base).resolve() if base else path
        if not resolved.exists():
            problems.append(f"{rel}: dead link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if resolved not in anchor_cache:
                anchor_cache[resolved] = collect_anchors(resolved)
            if fragment not in anchor_cache[resolved]:
                problems.append(f"{rel}: dead anchor -> {target}")
    return problems


def main() -> int:
    """Scan the repo; print dead links and return the exit code."""
    files = iter_markdown_files()
    anchor_cache: dict[Path, set[str]] = {}
    problems = [p for f in files for p in check_file(f, anchor_cache)]
    for p in problems:
        print(p)
    if problems:
        print(f"\n{len(problems)} dead link(s) across {len(files)} files")
        return 1
    print(f"all relative links and anchors resolve "
          f"({len(files)} markdown files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
