#!/usr/bin/env python3
"""stencilfold project lint: machine-checks the conventions that code review
keeps re-litigating. Run from anywhere:

    python3 scripts/sf_lint.py [--root REPO] [--self-test]

Rules (each has a stable id used in findings and in the self-test):

  env-undocumented    every SF_* environment variable read in src/ or bench/
                      (via the common/env.hpp helpers or std::getenv) must
                      have a row in the docs/TUNING.md table.
  env-stale-doc       every backticked `SF_X` or `SF_X=...` in docs/*.md or
                      README.md (the TUNING.md table included) must still be
                      read somewhere in src/ or bench/; names #define'd in
                      src/ (the thread-safety macros) are exempt.
  metric-undocumented every telemetry counter/histogram/sample-log/span name
                      registered in src/ must appear in docs/OBSERVABILITY.md.
  metric-stale-doc    every dotted metric name catalogued in
                      docs/OBSERVABILITY.md must still exist in src/.
  raw-getenv          std::getenv may appear only in src/common/env.hpp; all
                      other code goes through the typed helpers there.
  omp-include         <omp.h> may be included only by src/common/cpu.cpp;
                      hot-path code must not grow direct OpenMP-runtime
                      dependencies.
  kernel-registration every kernel TU (src/kernels/*.cpp except registry.cpp)
                      must contain a KernelRegistrar self-registration, or
                      its kernels silently vanish from the registry.
  relaxed-rationale   every std::memory_order_relaxed must carry a rationale
                      comment: a comment containing the token `relaxed:` on
                      the same line or within the 5 preceding lines. A run of
                      consecutive relaxed lines may share one comment (each
                      line chains coverage to the next).

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.

The parsers are deliberately line/regex based (no compiler needed) and
tuned to the project's real idioms; see docs/STATIC_ANALYSIS.md for the
contract each rule enforces and how to extend it.
"""

import argparse
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Generic helpers
# --------------------------------------------------------------------------

SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")


def source_files(root, subdirs):
    """All C++ files under the given repo-relative subdirectories."""
    out = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirs, files in os.walk(base):
            for name in sorted(files):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, name))
    return out


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # repo-relative, or a doc path
        self.line = line  # 1-based, or 0 when the finding is tree-level
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule A/B: SF_* environment variables <-> docs/TUNING.md
# --------------------------------------------------------------------------

# Reads through the env.hpp helpers or (in env.hpp itself) raw getenv.
ENV_READ_RE = re.compile(
    r'\b(?:env_flag|env_long|env_str|std::getenv|getenv)\s*\(\s*"(SF_[A-Z0-9_]+)"'
)
# A documented variable: a backticked SF_ name in a TUNING.md table row.
ENV_DOC_RE = re.compile(r"^\|\s*`(SF_[A-Z0-9_]+)`")
# Any mention in prose or tables: `SF_X`, or an assignment `SF_X=...` (the
# first name of the code span).
ENV_MENTION_RE = re.compile(r"`(SF_[A-Z0-9_]+)(?:=[^`]*)?`")
# Preprocessor names share the SF_ prefix but are not environment variables.
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(SF_[A-Z0-9_]+)")


def collect_env_reads(root, files):
    reads = {}  # name -> (relpath, line)
    for path in files:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for m in ENV_READ_RE.finditer(line):
                    reads.setdefault(m.group(1), (relpath(root, path), lineno))
    return reads


def collect_env_docs(tuning_md):
    docs = {}  # name -> line
    with open(tuning_md, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = ENV_DOC_RE.match(line.strip())
            if m:
                docs.setdefault(m.group(1), lineno)
    return docs


def collect_defines(files):
    names = set()
    for path in files:
        with open(path, encoding="utf-8") as f:
            for line in f:
                m = DEFINE_RE.match(line)
                if m:
                    names.add(m.group(1))
    return names


def doc_files(root):
    """docs/*.md plus README.md, the user-facing prose env names appear in."""
    docs_dir = os.path.join(root, "docs")
    out = []
    if os.path.isdir(docs_dir):
        out = [os.path.join(docs_dir, n) for n in sorted(os.listdir(docs_dir))
               if n.endswith(".md")]
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        out.append(readme)
    return out


def check_env(root, findings):
    files = source_files(root, ["src", "bench"])
    tuning = os.path.join(root, "docs", "TUNING.md")
    reads = collect_env_reads(root, files)
    docs = collect_env_docs(tuning) if os.path.exists(tuning) else {}
    for name, (path, line) in sorted(reads.items()):
        if name not in docs:
            findings.append(Finding(
                "env-undocumented", path, line,
                f"{name} is read here but has no row in docs/TUNING.md"))
    exempt = collect_defines(source_files(root, ["src"]))
    for doc in doc_files(root):
        with open(doc, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for name in sorted(set(ENV_MENTION_RE.findall(line))):
                    if name not in reads and name not in exempt:
                        findings.append(Finding(
                            "env-stale-doc", relpath(root, doc), lineno,
                            f"{name} is documented but no code under src/ "
                            f"or bench/ reads it"))


# --------------------------------------------------------------------------
# Rule C/D: telemetry metric names <-> docs/OBSERVABILITY.md
# --------------------------------------------------------------------------

# Registration sites. Sample logs name only their first argument; spans are
# matched fully qualified because core/engine.cpp has an unrelated local
# `Span` geometry type.
METRIC_CALL_RE = re.compile(
    r"telemetry::(counter|histogram|samples)\s*\(|telemetry::Span\s+\w+\s*\(")
STRING_LIT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
# A full metric name: dotted lowercase segments (hyphens allowed inside a
# segment, e.g. serving.reject.queue-full).
FULL_NAME_RE = re.compile(r"[a-z][a-z0-9_-]*(?:\.[a-z0-9_<>-]+)+")
BACKTICK_RE = re.compile(r"`([^`]+)`")
# Backticked tokens that are file names, not metric names.
FILE_EXT_RE = re.compile(
    r"\.(py|md|cpp|hpp|h|cc|json|csv|txt|yml|yaml|sh|cmake)$")


def first_call_arg(text, open_paren):
    """The text of the first top-level argument starting after `(`."""
    depth = 0
    i = open_paren
    in_str = False
    start = open_paren + 1
    while i < len(text):
        c = text[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[start:i]
        elif c == "," and depth == 1:
            return text[start:i]
        i += 1
    return text[start:]


def collect_metric_names(root, files):
    """(full_names, prefix_fragments) registered in the given files.

    A single-literal argument is a full name. A dynamic argument (string
    concatenation) contributes its literals: one that parses as a full
    dotted name stands alone (ternary selection); one ending in '.' is a
    prefix of a family of runtime-generated names; the rest (e.g. a
    ".accepted" suffix) don't constrain the catalogue.
    """
    full = {}  # name -> (relpath, line)
    prefixes = {}  # prefix -> (relpath, line)
    for path in files:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = relpath(root, path)
        for m in METRIC_CALL_RE.finditer(text):
            open_paren = text.index("(", m.end() - 1)
            arg = first_call_arg(text, open_paren)
            line = text.count("\n", 0, m.start()) + 1
            lits = STRING_LIT_RE.findall(arg)
            if not lits:
                continue
            if len(lits) == 1 and arg.strip() == f'"{lits[0]}"':
                full.setdefault(lits[0], (rel, line))
                continue
            for lit in lits:
                if FULL_NAME_RE.fullmatch(lit):
                    full.setdefault(lit, (rel, line))
                elif lit.endswith("."):
                    prefixes.setdefault(lit, (rel, line))
    return full, prefixes


def collect_metric_docs(observability_md):
    """(dotted_names, all_backticks) catalogued in docs/OBSERVABILITY.md."""
    dotted = {}  # name -> line
    backticks = set()
    with open(observability_md, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for m in BACKTICK_RE.finditer(line):
                token = m.group(1)
                backticks.add(token)
                if FULL_NAME_RE.fullmatch(token) and not FILE_EXT_RE.search(
                        token):
                    dotted.setdefault(token, lineno)
    return dotted, backticks


def doc_name_matches_source(doc_name, full, prefixes):
    if doc_name in full:
        return True
    # Placeholder segments (<name>) in the doc correspond to the runtime
    # part of a prefix-generated family.
    return any(doc_name.startswith(p) for p in prefixes)


def check_metrics(root, findings):
    files = source_files(root, ["src"])
    obs = os.path.join(root, "docs", "OBSERVABILITY.md")
    full, prefixes = collect_metric_names(root, files)
    dotted, backticks = (
        collect_metric_docs(obs) if os.path.exists(obs) else ({}, set()))
    for name, (path, line) in sorted(full.items()):
        if name not in dotted and name not in backticks:
            findings.append(Finding(
                "metric-undocumented", path, line,
                f"telemetry name \"{name}\" is registered here but not "
                f"catalogued in docs/OBSERVABILITY.md"))
    for prefix, (path, line) in sorted(prefixes.items()):
        if not any(d.startswith(prefix) for d in dotted):
            findings.append(Finding(
                "metric-undocumented", path, line,
                f"dynamic telemetry family \"{prefix}*\" has no catalogued "
                f"name in docs/OBSERVABILITY.md"))
    for name, line in sorted(dotted.items()):
        if not doc_name_matches_source(name, full, prefixes):
            findings.append(Finding(
                "metric-stale-doc", "docs/OBSERVABILITY.md", line,
                f"\"{name}\" is catalogued but no src/ code registers it"))


# --------------------------------------------------------------------------
# Rule E: std::getenv only in src/common/env.hpp
# --------------------------------------------------------------------------

GETENV_RE = re.compile(r"\bstd::getenv\b|(?<![:\w])\bgetenv\s*\(")
GETENV_ALLOWED = {"src/common/env.hpp"}


def check_getenv(root, findings):
    for path in source_files(root, ["src", "bench"]):
        rel = relpath(root, path)
        if rel in GETENV_ALLOWED:
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if GETENV_RE.search(line):
                    findings.append(Finding(
                        "raw-getenv", rel, lineno,
                        "raw getenv outside src/common/env.hpp — use the "
                        "typed env_* helpers (they centralize parsing and "
                        "keep the SF_* catalogue lintable)"))


# --------------------------------------------------------------------------
# Rule F: <omp.h> only in src/common/cpu.cpp
# --------------------------------------------------------------------------

OMP_RE = re.compile(r'#\s*include\s*[<"]omp\.h[>"]')
OMP_ALLOWED = {"src/common/cpu.cpp"}


def check_omp(root, findings):
    for path in source_files(root, ["src"]):
        rel = relpath(root, path)
        if rel in OMP_ALLOWED:
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if OMP_RE.search(line):
                    findings.append(Finding(
                        "omp-include", rel, lineno,
                        "<omp.h> outside src/common/cpu.cpp — hot paths must "
                        "go through common/cpu.hpp so the OpenMP runtime "
                        "stays an implementation detail of one TU"))


# --------------------------------------------------------------------------
# Rule G: every kernel TU self-registers
# --------------------------------------------------------------------------

KERNEL_EXEMPT = {"registry.cpp"}


def check_kernel_registration(root, findings):
    kdir = os.path.join(root, "src", "kernels")
    if not os.path.isdir(kdir):
        return
    for name in sorted(os.listdir(kdir)):
        if not name.endswith(".cpp") or name in KERNEL_EXEMPT:
            continue
        path = os.path.join(kdir, name)
        with open(path, encoding="utf-8") as f:
            if "KernelRegistrar" not in f.read():
                findings.append(Finding(
                    "kernel-registration", relpath(root, path), 0,
                    "kernel TU has no KernelRegistrar — its kernels will "
                    "silently never appear in the registry (the OBJECT "
                    "library links the TU, but nothing registers)"))


# --------------------------------------------------------------------------
# Rule H: memory_order_relaxed needs a `relaxed:` rationale comment
# --------------------------------------------------------------------------

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RATIONALE_TOKEN = "relaxed:"
RELAXED_WINDOW = 5  # preceding lines searched for the token


def check_relaxed_rationale(root, findings):
    for path in source_files(root, ["src"]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        covered_prev = False  # previous line used relaxed and was covered
        for i, line in enumerate(lines):
            if not RELAXED_RE.search(line):
                # Only comment/blank lines keep a coverage chain alive, so
                # one rationale can cover a contiguous relaxed block but not
                # leak across unrelated code.
                stripped = line.strip()
                if stripped and not stripped.startswith("//"):
                    covered_prev = False
                continue
            lo = max(0, i - RELAXED_WINDOW)
            ok = any(RATIONALE_TOKEN in lines[j] for j in range(lo, i + 1))
            if not ok and covered_prev:
                ok = True  # consecutive relaxed lines share one rationale
            if not ok:
                findings.append(Finding(
                    "relaxed-rationale", rel, i + 1,
                    "memory_order_relaxed without a nearby `relaxed:` "
                    "rationale comment (same line or the 5 lines above) — "
                    "state why unordered access is correct here"))
            covered_prev = ok


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

ALL_RULES = [
    check_env,
    check_metrics,
    check_getenv,
    check_omp,
    check_kernel_registration,
    check_relaxed_rationale,
]


def run_lint(root):
    findings = []
    for rule in ALL_RULES:
        rule(root, findings)
    return findings


# --------------------------------------------------------------------------
# Self-test: seed one violation per rule into a synthetic tree and check
# that exactly that rule fires (and that the clean tree is clean).
# --------------------------------------------------------------------------

CLEAN_TREE = {
    "src/common/env.hpp": """\
#include <cstdlib>
inline bool env_flag(const char* n) { return std::getenv(n) != nullptr; }
inline bool demo() { return env_flag("SF_FOO"); }
""",
    "src/common/thread_annotations.hpp": """\
#define SF_GUARDED_BY(x)
""",
    "src/common/cpu.cpp": """\
#include <omp.h>
int threads() { return omp_get_max_threads(); }
""",
    "src/kernels/registry.cpp": """\
struct KernelEntry {};
""",
    "src/kernels/k1.cpp": """\
static const int reg = [] { (void)sizeof("KernelRegistrar"); return 0; }();
""",
    "src/runtime/wp.cpp": """\
#include <atomic>
#include "common/env.hpp"
static std::atomic<long> n{0};
void tally() {
  // relaxed: independent monotone counter, read only by approximate
  // snapshots; nothing is ordered by it.
  n.fetch_add(1, std::memory_order_relaxed);
  n.fetch_add(1, std::memory_order_relaxed);
}
long depth() { return env_long("SF_BAR", 0); }
void count() { telemetry::counter("runtime.pool.tasks").add(1); }
""",
    "docs/TUNING.md": """\
## Environment variables

| Variable | Default | Effect |
|---|---|---|
| `SF_FOO` | unset | demo flag |
| `SF_BAR` | 0 | demo depth |
""",
    "README.md": """\
Set `SF_FOO=1` for the demo flag; members carry `SF_GUARDED_BY`.
""",
    "docs/OBSERVABILITY.md": """\
## Metrics

| Name | Kind |
|---|---|
| `runtime.pool.tasks` | counter |
""",
}

# rule id -> (file to rewrite/add, content, expected finding count)
SEEDS = [
    ("env-undocumented", "src/runtime/extra_env.cpp",
     'bool f() { return env_flag("SF_UNDOCUMENTED"); }\n'),
    ("env-stale-doc", "docs/TUNING.md",
     CLEAN_TREE["docs/TUNING.md"] + "| `SF_GONE` | unset | removed knob |\n"),
    ("env-stale-doc", "docs/ARCHITECTURE.md",
     "The retired knob `SF_RETIRED=0` once selected another schedule.\n"),
    ("metric-undocumented", "src/runtime/extra_metric.cpp",
     'void g() { telemetry::counter("runtime.pool.uncatalogued").add(1); }\n'),
    ("metric-stale-doc", "docs/OBSERVABILITY.md",
     CLEAN_TREE["docs/OBSERVABILITY.md"] + "| `runtime.pool.gone` | counter |\n"),
    ("raw-getenv", "src/runtime/raw_env.cpp",
     '#include <cstdlib>\nconst char* h() { return std::getenv("HOME"); }\n'),
    ("omp-include", "src/runtime/omp_leak.cpp",
     "#include <omp.h>\nint w() { return omp_get_max_threads(); }\n"),
    ("kernel-registration", "src/kernels/k2.cpp",
     "void unregistered_kernel() {}\n"),
    ("relaxed-rationale", "src/runtime/relaxed_bare.cpp",
     "#include <atomic>\n"
     "static std::atomic<int> x{0};\n"
     "void f() { x.store(1, std::memory_order_relaxed); }\n"),
]


def write_tree(root, tree):
    for rel, content in tree.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="sf_lint_clean_") as root:
        write_tree(root, CLEAN_TREE)
        findings = run_lint(root)
        if findings:
            failures.append(
                "clean tree produced findings:\n  "
                + "\n  ".join(str(f) for f in findings))
    for rule_id, seed_path, seed_content in SEEDS:
        with tempfile.TemporaryDirectory(prefix="sf_lint_seed_") as root:
            write_tree(root, CLEAN_TREE)
            write_tree(root, {seed_path: seed_content})
            findings = run_lint(root)
            hits = [f for f in findings if f.rule == rule_id]
            others = [f for f in findings if f.rule != rule_id]
            if not hits:
                failures.append(
                    f"seeded {rule_id} violation in {seed_path} was NOT "
                    f"detected")
            if others:
                failures.append(
                    f"seeding {rule_id} raised unrelated findings:\n  "
                    + "\n  ".join(str(f) for f in others))
    if failures:
        print("sf_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"- {f}", file=sys.stderr)
        return 1
    print(f"sf_lint self-test passed: clean tree clean, "
          f"{len(SEEDS)} seeded violations each detected by their rule.")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of this script)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the seeded-violation self-test instead of linting")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"sf_lint: no src/ under {args.root}", file=sys.stderr)
        return 2

    findings = run_lint(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"sf_lint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    print("sf_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
