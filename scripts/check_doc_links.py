#!/usr/bin/env python3
"""Link checker for the repository's markdown documentation.

Scans README.md and docs/*.md for markdown links and images, and verifies
that every *relative* target exists in the repository (with GitHub-style
heading-anchor validation for `file.md#section` and `#section` fragments).
External http(s)/mailto links are not fetched — CI must not depend on the
network — but their syntax is still exercised by the markdown parse.

It also scans the comments of the C++ sources under src/, examples/ and
bench/ for `*.md` references (`docs/TUNING.md`, optionally with a
`#section` anchor): each must name a file that exists, resolved against
the repository root.

    python3 scripts/check_doc_links.py [--self-test]

Exit status: 0 when every link resolves, 1 otherwise (one line per broken
link).  Run from anywhere; paths are resolved against the repository root
(the parent of this script's directory).
`--self-test` runs the checker over a generated tree with one planted bad
reference of each kind and fails unless exactly those are reported.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "examples", "bench")
SOURCE_SUFFIXES = (".cpp", ".hpp")

# [text](target) and ![alt](target); target may carry a "title" suffix.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
# A markdown file reference inside a source comment, e.g. docs/TUNING.md or
# docs/ARCHITECTURE.md#split-tiling.
MD_REF_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)(?:#([\w-]+))?")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup, lowercase, spaces to hyphens."""
    text = re.sub(r"[`*_\[\]()]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headings_of(path: Path) -> set:
    slugs = {}
    out = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(1))
        # GitHub de-duplicates repeated headings with -1, -2, ... suffixes.
        n = slugs.get(slug, 0)
        slugs[slug] = n + 1
        out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def iter_links(path: Path):
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def check_target(root: Path, where: str, dest: Path, fragment: str,
                 target: str):
    """The error for one link target, or None when it resolves."""
    if not dest.exists():
        return f"{where}: broken link target '{target}'"
    if fragment and dest.suffix == ".md" and fragment not in headings_of(dest):
        return (f"{where}: no heading '#{fragment}' in "
                f"{dest.relative_to(root)}")
    return None


def check_file(root: Path, path: Path):
    errors = []
    for lineno, target in iter_links(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        dest = path if not file_part else (path.parent / file_part).resolve()
        err = check_target(root, f"{path}:{lineno}", dest, fragment, target)
        if err:
            errors.append(err)
    return errors


def iter_comments(path: Path):
    """(lineno, text) of the comment parts of a C++ source, line by line:
    everything after `//`, and everything inside `/* ... */`. String
    literals are not tracked; a `.md` name in a string is checked too."""
    in_block = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        rest = line
        while rest:
            if in_block:
                end = rest.find("*/")
                yield lineno, rest if end < 0 else rest[:end]
                if end < 0:
                    break
                in_block = False
                rest = rest[end + 2:]
                continue
            line_at, block_at = rest.find("//"), rest.find("/*")
            if line_at >= 0 and (block_at < 0 or line_at < block_at):
                yield lineno, rest[line_at + 2:]
                break
            if block_at < 0:
                break
            in_block = True
            rest = rest[block_at + 2:]


def check_source(root: Path, path: Path):
    errors = []
    for lineno, text in iter_comments(path):
        for m in MD_REF_RE.finditer(text):
            target = m.group(0)
            err = check_target(root, f"{path}:{lineno}", root / m.group(1),
                               m.group(2) or "", target)
            if err:
                errors.append(err)
    return errors


def run(root: Path, quiet: bool = False) -> int:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    missing = [f for f in files if not f.exists()]
    if missing:
        for f in missing:
            print(f"missing documentation file: {f}", file=sys.stderr)
        return 1
    sources = sorted(
        p for d in SOURCE_DIRS if (root / d).is_dir()
        for p in (root / d).rglob("*") if p.suffix in SOURCE_SUFFIXES)
    errors = []
    for f in files:
        errors.extend(check_file(root, f))
    for f in sources:
        errors.extend(check_source(root, f))
    if errors:
        if not quiet:
            for e in errors:
                print(e, file=sys.stderr)
        return 1
    if not quiet:
        print(f"checked {len(files)} markdown files and the comments of "
              f"{len(sources)} sources: all links resolve")
    return 0


def self_test() -> int:
    """A clean generated tree must pass; each planted bad reference alone
    must fail it."""
    def make_tree(root: Path, plant: str):
        (root / "docs").mkdir()
        (root / "src").mkdir()
        (root / "docs" / "GUIDE.md").write_text("# Guide\n\n## Split tiling\n")
        (root / "README.md").write_text(
            "See [the guide](docs/GUIDE.md#split-tiling).\n" +
            ("See [gone](docs/GONE.md).\n" if plant == "markdown" else ""))
        lines = ["// see docs/GUIDE.md#split-tiling", "int x;  // docs/GUIDE.md"]
        if plant == "line-comment":
            lines.append("int y;  // rationale in DESIGN.md")
        if plant == "block-comment":
            lines += ["/* the counting rule", " * is in docs/NOTES.md */"]
        if plant == "anchor":
            lines.append("/// docs/GUIDE.md#no-such-section")
        (root / "src" / "a.cpp").write_text("\n".join(lines) + "\n")

    failures = []
    for plant in ("", "markdown", "line-comment", "block-comment", "anchor"):
        with tempfile.TemporaryDirectory(prefix="doc_links_") as tmp:
            make_tree(Path(tmp), plant)
            status = run(Path(tmp), quiet=True)
        want = 0 if not plant else 1
        if status != want:
            failures.append(f"planted '{plant or 'nothing'}': exit {status}, "
                            f"expected {want}")
    if failures:
        print("check_doc_links self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_doc_links self-test passed: clean tree clean, "
          "4 planted bad references caught")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check planted bad references instead of the repo")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run(REPO_ROOT)


if __name__ == "__main__":
    sys.exit(main())
