#!/usr/bin/env python3
"""ftgcs determinism lint: repo invariants as named static-analysis rules.

The repo's contract is bit-identical tables and trace bytes across queue
backends, shard counts, and binaries. That contract rests on source-level
invariants that a compiler never checks:

  no-wall-clock           Simulation code must never read wall clocks or
                          ambient entropy (rand(), std::random_device,
                          std::chrono::{system,steady,high_resolution}_clock,
                          gettimeofday, ...). Scope: src/{sim,net,core,par,
                          gcs,byz,clocks,obs}/. The exp/ timing layer (sweep
                          wall_ms) is deliberately outside the scope, and
                          obs/phase_profiler.cpp is the ONE sanctioned clock
                          site inside obs/ (the wall-clock plane's reader;
                          everything else in obs/ feeds the deterministic
                          series and must stay clock-free).
  no-unordered-iteration  Files that feed sinks, metrics, or traces must
                          never iterate an unordered_{map,set,multimap,
                          multiset} — iteration order is
                          implementation-defined and would leak into output
                          bytes. Scope: src/{exp,metrics,trace}/.
  no-hot-path-alloc       The annotated hot-path functions (pop_run*,
                          on_pulse_run, lane_receive, insert_*/*_insert,
                          broadcast*, schedule_fire_only*, post_fire_only*,
                          on_event_batch, lane_commit) must not allocate:
                          no `new`, no malloc family, no std::function /
                          make_unique / make_shared construction. Scope:
                          all of src/.
  no-mutable-global       No mutable namespace-scope state in src/ —
                          globals make runs order- and process-dependent
                          and are unsynchronized under the sharded
                          backend's worker threads. Scope: all of src/.
  no-closure-dispatch     No std::function in the event engine or the
                          network: every event fires through a typed
                          sim::EventSink and every delivery through a
                          net::PulseSink, so a type-erased callback there
                          would reopen a second, allocating dispatch path.
                          Scope: src/{sim,net}/.

Waivers are per-line and must carry a reason:

    // ftgcs-lint: allow(<rule>[, <rule>...]) <reason>

on the violating line itself or on the line immediately above it. A
waiver with an empty reason is itself reported (bad-waiver).

Engines: when the libclang python bindings are importable (and parsing
succeeds) the scope-sensitive rules (no-mutable-global, no-hot-path-alloc)
use the clang AST; otherwise a token-level engine — a comment/string/
preprocessor-aware scanner with a namespace-scope brace tracker — covers
every rule. CI pins `--engine tokens` so results do not depend on what the
runner happens to have installed. The token engine is deliberately
conservative where C++ is ambiguous (e.g. a namespace-scope `Foo x(1);`
constructor-call declaration is indistinguishable from a prototype and is
not flagged); the seeded fixtures under scripts/lint/fixtures/ pin exactly
what each engine must catch (`--self-test`).

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

WALL_CLOCK_DIRS = {"sim", "net", "core", "par", "gcs", "byz", "clocks", "obs"}
# The one sanctioned clock site: the phase profiler IS the wall-clock
# plane (its output is marked nondeterministic and never CI-compared).
# Deliberately only the .cpp — the header is included from clock-banned
# code (src/par/) and must stay free of chrono tokens.
WALL_CLOCK_EXEMPT = {"obs/phase_profiler.cpp"}
OUTPUT_FEEDING_DIRS = {"exp", "metrics", "trace", "obs"}
TYPED_DISPATCH_DIRS = {"sim", "net"}
CLOSURE = re.compile(r"\bstd\s*::\s*function\b")

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bstd\s*::\s*time\s*\("), "std::time()"),
]

HOT_FUNCTION_PATTERNS = [
    re.compile(r"^pop_run\w*$"),
    re.compile(r"^on_pulse_run$"),
    re.compile(r"^lane_receive$"),
    re.compile(r"^lane_commit$"),
    re.compile(r"^insert_\w+$"),
    re.compile(r"^\w+_insert$"),
    re.compile(r"^broadcast\w*$"),
    re.compile(r"^schedule_fire_only\w*$"),
    re.compile(r"^post_fire_only\w*$"),
    re.compile(r"^on_event_batch$"),
]

HOT_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("),
     "malloc family"),
    (re.compile(r"\bstd\s*::\s*function\s*<"), "std::function construction"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
]

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;{}()]*>[\s&]*(\w+)\s*[;={(,)]")
ALL_RULES = ("no-wall-clock", "no-unordered-iteration", "no-hot-path-alloc",
             "no-mutable-global", "no-closure-dispatch")

WAIVER = re.compile(
    r"ftgcs-lint:\s*allow\(\s*([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\s*\)\s*(.*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line      # 1-based
        self.rule = rule
        self.message = message

    def __repr__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# ---------------------------------------------------------------------------
# Source preparation: strip comments/strings/preprocessor, collect waivers
# ---------------------------------------------------------------------------

class Source:
    """One file: raw text, a stripped twin (same length/line structure, with
    comments, string/char literal contents, and preprocessor lines blanked),
    and the per-line waiver table."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.stripped = _strip(text)
        # waivers[line] = (set(rules), reason) for the line the comment is on.
        self.waivers = {}
        self.bad_waivers = []  # line numbers of reason-less waivers
        for i, line in enumerate(text.splitlines(), start=1):
            m = WAIVER.search(line)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            reason = m.group(2).strip()
            if not reason:
                # A reason-less waiver is invalid AND does not suppress:
                # the underlying finding still fires alongside bad-waiver.
                self.bad_waivers.append(i)
                continue
            self.waivers[i] = rules

    def waived(self, line, rule):
        """A waiver covers its own line and the line directly below it."""
        for at in (line, line - 1):
            entry = self.waivers.get(at)
            if entry is not None and rule in entry:
                return True
        return False

    def line_of(self, offset):
        return self.stripped.count("\n", 0, offset) + 1


def _strip(text):
    """Blanks comments, string/char literal contents (quotes kept so e.g.
    `extern ""` stays recognizable), raw strings, and preprocessor lines.
    Newlines are preserved so offsets map to the same line numbers."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    line_start = True
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if line_start and c == "#":
                # Preprocessor directive: blank to end of line, honoring
                # backslash continuations.
                while i < n:
                    if text[i] == "\n":
                        if out and out[-1] == "\\":
                            out[-1] = " "
                            out.append("\n")
                            i += 1
                            continue
                        break
                    out.append("\\" if text[i] == "\\" else " ")
                    i += 1
                continue
            line_start = c == "\n" or (line_start and c.isspace())
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
                if m:
                    state = RAW
                    raw_delim = ")" + m.group(1) + '"'
                    out.append('"')
                    i += m.end()
                    continue
                state = STRING
                out.append('"')
                i += 1
                continue
            if c == "'":
                # Digit separators (1'000'000) are not char literals.
                prev = text[i - 1] if i > 0 else ""
                if prev.isdigit() or (prev.isalpha() and i >= 2 and
                                      text[i - 2].isdigit()):
                    out.append(c)
                    i += 1
                    continue
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                line_start = True
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # RAW
            if text.startswith(raw_delim, i):
                state = NORMAL
                out.append('"')
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Token engine
# ---------------------------------------------------------------------------

def top_dir(rel_path):
    parts = rel_path.replace(os.sep, "/").split("/")
    return parts[0] if len(parts) > 1 else ""


def check_wall_clock(src, rel_path, findings):
    if top_dir(rel_path) not in WALL_CLOCK_DIRS:
        return
    if rel_path.replace(os.sep, "/") in WALL_CLOCK_EXEMPT:
        return
    for pattern, what in WALL_CLOCK_PATTERNS:
        for m in pattern.finditer(src.stripped):
            findings.append(Finding(
                rel_path, src.line_of(m.start()), "no-wall-clock",
                "%s in simulation code (determinism: runs must depend only "
                "on the seed)" % what))


def check_closure_dispatch(src, rel_path, findings):
    if top_dir(rel_path) not in TYPED_DISPATCH_DIRS:
        return
    for m in CLOSURE.finditer(src.stripped):
        findings.append(Finding(
            rel_path, src.line_of(m.start()), "no-closure-dispatch",
            "std::function in the typed dispatch layer (events fire "
            "through sim::EventSink, deliveries through net::PulseSink)"))


def check_unordered_iteration(src, rel_path, findings):
    if top_dir(rel_path) not in OUTPUT_FEEDING_DIRS:
        return
    names = set(UNORDERED_DECL.findall(src.stripped))
    # Range-for directly over an unordered-typed expression.
    for m in re.finditer(r"for\s*\([^;()]*:\s*([^)]*)\)", src.stripped):
        expr = m.group(1)
        if "unordered_" in expr or any(
                re.search(r"\b%s\b" % re.escape(name), expr)
                for name in names):
            findings.append(Finding(
                rel_path, src.line_of(m.start()), "no-unordered-iteration",
                "iteration over an unordered container in output-feeding "
                "code (iteration order is implementation-defined)"))
    for name in names:
        for m in re.finditer(
                r"\b%s\s*\.\s*c?begin\s*\(" % re.escape(name), src.stripped):
            findings.append(Finding(
                rel_path, src.line_of(m.start()), "no-unordered-iteration",
                "begin() on unordered container '%s' in output-feeding "
                "code" % name))


def _body_span(stripped, open_brace):
    depth = 0
    for i in range(open_brace, len(stripped)):
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(stripped)


def hot_function_bodies(stripped):
    """Yields (name, body_start, body_end) for definitions of annotated
    hot-path functions. A definition is NAME ( ... ) [qualifiers] { ... }."""
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", stripped):
        name = m.group(1)
        if not any(p.match(name) for p in HOT_FUNCTION_PATTERNS):
            continue
        # Find the matching close paren of the parameter list.
        depth = 0
        i = m.end() - 1
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(stripped):
            continue
        # Skip trailing qualifiers up to `{` (definition) or `;`/`,` (call,
        # declaration, or initializer — not bodies).
        j = i + 1
        qualifier = re.compile(
            r"\s|const|noexcept|override|final|mutable|->|[\w:<>&*,\[\]]")
        while j < len(stripped) and stripped[j] not in "{;":
            if not qualifier.match(stripped[j]):
                break
            j += 1
        if j < len(stripped) and stripped[j] == "{":
            yield name, j, _body_span(stripped, j)


def check_hot_path_alloc(src, rel_path, findings):
    for name, start, end in hot_function_bodies(src.stripped):
        body = src.stripped[start:end]
        for pattern, what in HOT_ALLOC_PATTERNS:
            for m in pattern.finditer(body):
                findings.append(Finding(
                    rel_path, src.line_of(start + m.start()),
                    "no-hot-path-alloc",
                    "%s inside hot-path function '%s' (annotated "
                    "zero-allocation path)" % (what, name)))


STMT_SKIP = re.compile(
    r"\b(using|typedef|static_assert|template|friend|operator|extern|"
    r"constexpr|consteval|concept|requires|struct|class|enum|union|"
    r"namespace|return|if|for|while|switch|goto|public|private|protected|"
    r"asm)\b")
DECL_SHAPE = re.compile(
    r"^(?:static\s+|inline\s+|thread_local\s+|constinit\s+)*"
    r"[A-Za-z_][\w:<>,\s*&]*[\s*&]"   # type (possibly qualified/templated)
    r"[A-Za-z_]\w*\s*"                # variable name
    r"(?:\[[^\]]*\]\s*)*"             # optional array extents
    r"(?:=[^;]*|\{[^;]*\})?$")        # optional initializer


def namespace_scope_statements(stripped):
    """Yields (offset, text) for each `;`-terminated statement whose
    enclosing scopes are all namespaces (or the translation unit)."""
    scope = []          # True = namespace-like scope, False = anything else
    stmt_start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            preamble = stripped[stmt_start:i]
            is_ns = bool(re.search(r"\bnamespace\b", preamble)) or \
                bool(re.search(r'\bextern\s*""', preamble))
            scope.append(is_ns)
            stmt_start = i + 1
        elif c == "}":
            if scope:
                scope.pop()
            stmt_start = i + 1
        elif c == ";":
            if all(scope):
                yield stmt_start, stripped[stmt_start:i]
            stmt_start = i + 1
        i += 1


def check_mutable_global(src, rel_path, findings):
    for offset, stmt in namespace_scope_statements(src.stripped):
        text = " ".join(stmt.split())
        if not text or STMT_SKIP.search(text):
            continue
        if "(" in text or ")" in text:
            continue  # function declaration / constructor-call form
        if re.search(r"\bconst\b", text):
            continue
        if not DECL_SHAPE.match(text):
            continue
        # Offset of the first non-space character of the statement.
        first = offset + (len(stmt) - len(stmt.lstrip()))
        findings.append(Finding(
            rel_path, src.line_of(first), "no-mutable-global",
            "mutable namespace-scope state ('%s'): globals are "
            "unsynchronized under sharded workers and break run "
            "determinism" % text))


# ---------------------------------------------------------------------------
# libclang engine (optional): AST-precise no-mutable-global + no-hot-path-alloc
# ---------------------------------------------------------------------------

def libclang_available():
    try:
        import clang.cindex  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def libclang_check_file(path, rel_path, compile_args, findings):
    """AST versions of the scope-sensitive rules. Returns False if parsing
    failed (caller falls back to the token engine for this file)."""
    import clang.cindex as ci
    try:
        index = ci.Index.create()
        tu = index.parse(path, args=compile_args)
    except Exception:
        return False
    if tu is None:
        return False

    def in_this_file(cursor):
        return (cursor.location.file is not None and
                os.path.samefile(cursor.location.file.name, path))

    def visit(cursor, ns_depth):
        for child in cursor.get_children():
            kind = child.kind
            if kind in (ci.CursorKind.NAMESPACE,
                        ci.CursorKind.UNEXPOSED_DECL):
                visit(child, ns_depth + 1)
                continue
            if kind == ci.CursorKind.VAR_DECL and in_this_file(child):
                qual = child.type.spelling
                if ("const" not in qual.split() and
                        not qual.startswith("const ")):
                    findings.append(Finding(
                        rel_path, child.location.line, "no-mutable-global",
                        "mutable namespace-scope state ('%s %s')" %
                        (qual, child.spelling)))
            if kind in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                        ci.CursorKind.FUNCTION_TEMPLATE):
                if (child.is_definition() and in_this_file(child) and
                        any(p.match(child.spelling)
                            for p in HOT_FUNCTION_PATTERNS)):
                    scan_hot_body(child)
                continue
            if kind in (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                        ci.CursorKind.CLASS_TEMPLATE):
                visit_type(child)

    def visit_type(cursor):
        for child in cursor.get_children():
            if child.kind in (ci.CursorKind.CXX_METHOD,
                              ci.CursorKind.FUNCTION_TEMPLATE):
                if (child.is_definition() and in_this_file(child) and
                        any(p.match(child.spelling)
                            for p in HOT_FUNCTION_PATTERNS)):
                    scan_hot_body(child)
            elif child.kind in (ci.CursorKind.CLASS_DECL,
                                ci.CursorKind.STRUCT_DECL):
                visit_type(child)

    def scan_hot_body(fn):
        def walk(node):
            for child in node.get_children():
                kind = child.kind
                if kind == ci.CursorKind.CXX_NEW_EXPR:
                    findings.append(Finding(
                        rel_path, child.location.line, "no-hot-path-alloc",
                        "operator new inside hot-path function '%s'" %
                        fn.spelling))
                elif kind == ci.CursorKind.CALL_EXPR and child.spelling in (
                        "malloc", "calloc", "realloc", "strdup",
                        "aligned_alloc", "make_unique", "make_shared"):
                    findings.append(Finding(
                        rel_path, child.location.line, "no-hot-path-alloc",
                        "%s inside hot-path function '%s'" %
                        (child.spelling, fn.spelling)))
                elif (kind in (ci.CursorKind.VAR_DECL,
                               ci.CursorKind.TEMP_OBJ_EXPR)
                      if hasattr(ci.CursorKind, "TEMP_OBJ_EXPR")
                      else kind == ci.CursorKind.VAR_DECL):
                    if "function<" in child.type.spelling.replace(" ", ""):
                        findings.append(Finding(
                            rel_path, child.location.line,
                            "no-hot-path-alloc",
                            "std::function construction inside hot-path "
                            "function '%s'" % fn.spelling))
                walk(child)
        walk(fn)

    visit(tu.cursor, 0)
    return True


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_file(path, rel_path, engine, compile_args):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        src = Source(path, f.read())

    raw = []
    # Text-reliable rules always run on the token engine.
    check_wall_clock(src, rel_path, raw)
    check_unordered_iteration(src, rel_path, raw)
    check_closure_dispatch(src, rel_path, raw)
    ast_done = False
    if engine == "libclang":
        ast_done = libclang_check_file(path, rel_path, compile_args, raw)
    if not ast_done:
        check_hot_path_alloc(src, rel_path, raw)
        check_mutable_global(src, rel_path, raw)

    findings = [f for f in raw if not src.waived(f.line, f.rule)]
    for line in src.bad_waivers:
        findings.append(Finding(
            rel_path, line, "bad-waiver",
            "ftgcs-lint waiver without a reason (every waiver must justify "
            "itself: // ftgcs-lint: allow(<rule>) <reason>)"))
    # Deduplicate (libclang + token overlap) and sort.
    seen = set()
    unique = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        key = (f.path, f.line, f.rule)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def collect_files(src_root):
    files = []
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if name.endswith((".cpp", ".h", ".cc", ".hpp")):
                full = os.path.join(dirpath, name)
                files.append((full, os.path.relpath(full, src_root)))
    return sorted(files, key=lambda x: x[1])


def load_compile_args(compile_commands, path):
    if not compile_commands:
        return []
    entry = compile_commands.get(os.path.abspath(path))
    if entry is None:
        return []
    args = entry[1:]  # drop the compiler itself
    # Drop output/input arguments; keep -I/-D/-std/...
    cleaned = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a in ("-o", "-c"):
            skip = a == "-o"
            continue
        if a.endswith((".cpp", ".cc", ".o")):
            continue
        cleaned.append(a)
    return cleaned


def run_lint(src_root, engine, compile_commands):
    findings = []
    for path, rel in collect_files(src_root):
        findings.extend(
            lint_file(path, rel, engine,
                      load_compile_args(compile_commands, path)))
    return findings


def self_test(engine):
    """Runs the engine over the seeded fixtures and compares against the
    EXPECT-LINT annotations inside them. Waived seeds must NOT appear."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures", "src")
    if not os.path.isdir(fixtures):
        print("self-test: fixture tree missing: %s" % fixtures)
        return 2

    expected = set()
    for path, rel in collect_files(fixtures):
        with open(path, "r", encoding="utf-8") as f:
            for i, line in enumerate(f.read().splitlines(), start=1):
                # EXPECT-LINT: <rule> annotates its own line;
                # EXPECT-LINT(+N): <rule> annotates N lines below (used when
                # the annotation text itself would alter the seeded line,
                # e.g. it would become a reason-less waiver's reason).
                for off, rule in re.findall(
                        r"EXPECT-LINT(?:\(\+(\d+)\))?:\s*([a-z\-]+)", line):
                    expected.add((rel, i + int(off or 0), rule))

    got = {(f.path, f.line, f.rule) for f in run_lint(fixtures, engine, None)}

    missing = expected - got
    unexpected = got - expected
    for rel, line, rule in sorted(missing):
        print("self-test: MISSING expected finding %s:%d [%s]" %
              (rel, line, rule))
    for rel, line, rule in sorted(unexpected):
        print("self-test: UNEXPECTED finding %s:%d [%s]" % (rel, line, rule))
    if missing or unexpected:
        print("self-test: FAILED (%d missing, %d unexpected; engine=%s)" %
              (len(missing), len(unexpected), engine))
        return 1
    print("self-test: OK — %d seeded findings matched, waived seeds "
          "suppressed (engine=%s)" % (len(expected), engine))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="ftgcs determinism lint (see module docstring)")
    parser.add_argument("--src-root", default=None,
                        help="source tree to lint (default: <repo>/src)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json (libclang engine args)")
    parser.add_argument("--engine", choices=("auto", "tokens", "libclang"),
                        default="auto",
                        help="auto = libclang when importable, else tokens")
    parser.add_argument("--self-test", action="store_true",
                        help="check the engine against the seeded fixtures")
    args = parser.parse_args()

    engine = args.engine
    if engine == "auto":
        engine = "libclang" if libclang_available() else "tokens"
    elif engine == "libclang" and not libclang_available():
        print("error: --engine libclang requested but clang.cindex is not "
              "importable", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(engine)

    src_root = args.src_root
    if src_root is None:
        src_root = os.path.join(
            os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))), "src")
    if not os.path.isdir(src_root):
        print("error: no such source root: %s" % src_root, file=sys.stderr)
        return 2

    compile_commands = None
    if args.compile_commands:
        with open(args.compile_commands, "r", encoding="utf-8") as f:
            compile_commands = {
                os.path.abspath(os.path.join(e["directory"], e["file"])):
                    (e.get("arguments") or e["command"].split())
                for e in json.load(f)}

    findings = run_lint(src_root, engine, compile_commands)
    for f in findings:
        print(f)
    if findings:
        print("ftgcs-lint: %d finding(s) (engine=%s). Waive only with "
              "// ftgcs-lint: allow(<rule>) <reason>." %
              (len(findings), engine))
        return 1
    print("ftgcs-lint: clean (%s, engine=%s)" % (src_root, engine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
