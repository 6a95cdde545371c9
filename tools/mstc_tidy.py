#!/usr/bin/env python3
"""mstc_tidy: the repo's determinism and contract checker.

Every simulation run in this repository must be a pure function of
(config, seed), parallel sweeps must be bit-identical to serial execution,
and hot kernels must not allocate in steady state. This tool enforces the
twelve repo rules that protect those contracts; `--list-rules` prints each
with its reason, and docs/STATIC_ANALYSIS.md holds the catalogue.

Source rules run on every file, over comment- and string-stripped text:
raw-random, parallel-float-reduce, iostream-in-lib, wall-clock and env-read
are line regexes with path exemptions; all-pairs-scan and
per-receiver-schedule match for-loop bodies with the brace matcher.

Structural rules need declared types resolved across headers, function
bodies and the calls between them, and class member lists:
unordered-iteration, parallel-float-accumulation, hot-heap-allocation,
hot-std-function and missing-guarded-by. With libclang (the `clang` Python
package plus libclang.so) available, translation units from the build
tree's compile_commands.json are parsed into real ASTs. Without it the
bundled structural frontend — the same stripping lexer plus a
brace-matching scope scanner — evaluates the same rules; the fixture suite
under tools/tidy_fixtures/ pins both frontends to the same verdicts.
`--frontend libclang` prints a clear skip message (exit 0) instead of
failing when libclang is missing, so environments without it degrade
loudly, never silently.

Suppression: append ``// mstc-tidy: allow(<rule>[, <rule>])`` to the
offending line or place it alone on the line directly above, with a
justification comment nearby.

Usage:
  mstc_tidy.py [--build-dir DIR] [--frontend auto|builtin|libclang]
               <file-or-dir> [more paths...]
  mstc_tidy.py --list-rules

Exit status: 0 when clean (or skipped), 1 when any finding is reported,
2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp"}

ALLOW_RE = re.compile(
    r"//\s*mstc-tidy:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

RULES = {
    "raw-random": (
        "raw randomness outside src/util/prng.*: route all randomness "
        "through util::Xoshiro256 / derive_seed so runs stay a pure "
        "function of (config, seed)"
    ),
    "parallel-float-reduce": (
        "parallel std::reduce/transform_reduce: reordered floating-point "
        "accumulation is not bit-stable across runs"
    ),
    "iostream-in-lib": (
        "#include <iostream> in library code: report through return "
        "values; only tools/ front ends may print"
    ),
    "wall-clock": (
        "wall-clock / resource-usage read in library code outside "
        "src/obs/profile.cpp and src/util/rusage.cpp: simulation state "
        "must depend on sim-time only; use obs::wall_now_ns() / "
        "obs::ScopedTimer for timing and util::peak_rss_bytes() for RSS"
    ),
    "all-pairs-scan": (
        "nested index loops over fleet positions/controllers: O(n^2) "
        "scans belong behind graph::SpatialGrid candidate sets "
        "(sim::Medium, core::for_each_snapshot_candidates); suppress "
        "deliberate brute-force baselines with a justification"
    ),
    "per-receiver-schedule": (
        "loop over a receiver set scheduling one simulator event per "
        "receiver: broadcast deliveries belong in a single batched "
        "Simulator::schedule_fanout event; suppress deliberate "
        "per-receiver timing (randomized backoffs, differential "
        "baselines) with a justification"
    ),
    "env-read": (
        "environment read in library code outside src/runner/config.cpp, "
        "src/util/thread_pool.cpp and src/util/options.*: MSTC_* inputs "
        "reach a scenario only through runner::apply_env_overrides, so a "
        "run depends on its ScenarioConfig alone"
    ),
    "unordered-iteration": (
        "range-for over an unordered container: hash-table order is "
        "implementation-defined and breaks run-to-run reproducibility "
        "when results feed metrics or event ordering; iterate a sorted "
        "copy or an ordered container"
    ),
    "parallel-float-accumulation": (
        "floating-point accumulation inside a parallel_for body: "
        "cross-iteration accumulation under dynamic scheduling reorders "
        "additions and is not bit-stable; write per-index slots and "
        "reduce serially"
    ),
    "hot-heap-allocation": (
        "heap allocation reachable from a `// mstc:hot` function: hot "
        "kernels must not allocate in steady state; use member scratch "
        "or a caller-owned out-parameter"
    ),
    "hot-std-function": (
        "std::function in src/sim/, src/core/ or a `// mstc:hot` "
        "function: spilled closures heap-allocate per event; use "
        "sim::Handler (SBO, static_assert(fits_inline)) or a template "
        "parameter"
    ),
    "missing-guarded-by": (
        "field of a mutex-owning class lacks MSTC_GUARDED_BY / "
        "MSTC_PT_GUARDED_BY / MSTC_UNGUARDED(reason): every field of a "
        "class with a mutex must state its synchronization (see "
        "src/util/annotations.hpp)"
    ),
}

HOT_MARK_RE = re.compile(r"//.*\bmstc:hot\b")
HOT_PATH_PARTS = ("sim", "core")  # src/ subtrees where std::function is hot

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
INCLUDE_RE = re.compile(r"#\s*include\s*\"([^\"]+)\"")
UNORDERED_TYPE_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+(.+?)\s+(\w+)\s*;")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(.*?:\s*\*?(\w+(?:[.\->]\w+(?:\(\))?)*)\s*\)")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+[&*]?\s*(\w+)\s*[;={,)[]")
PARALLEL_CALL_RE = re.compile(r"\bparallel_for\s*\(")
LAMBDA_RE = re.compile(r"\[[^\[\]]*\]\s*(?:\([^)]*\))?\s*(?:mutable\s*)?"
                       r"(?:noexcept\s*)?(?:->\s*[\w:<>&*\s]+?)?\s*\{")
COMPOUND_FLOAT_RE = re.compile(r"(\w+)\s*[+\-*]=")
PLAIN_ACCUM_RE = re.compile(r"(\w+)\s*=\s*\1\s*[+\-]")
NEW_EXPR_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # placement new exempt
MAKE_SMART_RE = re.compile(r"\bstd\s*::\s*make_(?:unique|shared)\s*<")
OWNING_LOCAL_RE = re.compile(
    r"\bstd\s*::\s*(vector|deque|list|map|set|multimap|multiset|"
    r"unordered_map|unordered_set|unordered_multimap|unordered_multiset|"
    r"string|basic_string|function|queue|priority_queue|stack)\b")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
CLASS_RE = re.compile(
    r"\b(class|struct)\s+((?:MSTC_\w+\s*(?:\([^)]*\))?\s*)*)(\w+)\s*"
    r"(?:final\s*)?(:[^;{]*)?\{")
MUTEX_TYPE_RE = re.compile(
    r"\b(?:std\s*::\s*(?:recursive_|shared_|timed_|recursive_timed_)?mutex"
    r"|util\s*::\s*Mutex|Mutex)\b")
GUARD_ANNOTATION_RE = re.compile(
    r"\bMSTC_(?:GUARDED_BY|PT_GUARDED_BY|UNGUARDED)\s*\(")
FIELD_EXEMPT_RE = re.compile(
    r"\b(?:condition_variable|once_flag|atomic|atomic_\w+)\b|"
    r"\bconst\b|\bstatic\b|\bconstexpr\b")
MACRO_CALL_RE = re.compile(r"\bMSTC_\w+\s*\([^()]*\)")
KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "assert", "defined",
    "throw", "new", "delete", "co_await", "co_return", "co_yield", "case",
    "else", "do", "operator", "requires", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "using", "namespace", "template",
))


class Finding:
    def __init__(self, path: Path, line: int, rule: str, detail: str = ""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def key(self) -> tuple:
        return (str(self.path), self.line, self.rule)

    def __str__(self) -> str:
        message = RULES[self.rule]
        if self.detail:
            message = f"{message} [{self.detail}]"
        return f"{self.path}:{self.line}: [{self.rule}] {message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so findings keep accurate line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            out.append(" " * (end - i))
            i = end
        elif ch == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            chunk = text[i:end]
            out.append("".join("\n" if c == "\n" else " " for c in chunk))
            i = end
        elif ch in ('"', "'"):
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) + quote)
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def allowed_rules(raw_lines: list[str], index: int) -> set[str]:
    """Rules suppressed for raw_lines[index] (same line or the line above)."""
    rules: set[str] = set()
    for probe in (index, index - 1):
        if 0 <= probe < len(raw_lines):
            match = ALLOW_RE.search(raw_lines[probe])
            if match:
                rules.update(r.strip() for r in match.group(1).split(","))
    return rules


def is_library_code(path: Path) -> bool:
    return "src" in path.parts


def is_unit(path: Path, directory: str, *names: str) -> bool:
    return directory in path.parts and path.name in names


def match_balanced(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index one past the balanced group opening at text[start] (which must
    be open_ch); len(text) when unbalanced."""
    depth = 0
    i = start
    while i < len(text):
        ch = text[i]
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


def skip_space(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def line_of(offsets: list[int], pos: int) -> int:
    """1-based line for character offset `pos`; offsets[i] is the offset of
    the first character of line i+1."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def line_offsets(text: str) -> list[int]:
    offsets = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            offsets.append(i + 1)
    return offsets


# ---------------------------------------------------------------------------
# Source rules (every file, whichever frontend runs the structural rules)
# ---------------------------------------------------------------------------

RAW_RANDOM_RE = re.compile(
    r"(?<![:\w])(?:"
    r"std::rand\b|std::srand\b|\brand\s*\(\s*\)|\bsrand\s*\(|"
    r"std::random_device\b|\brandom_device\b|"
    r"std::mt19937(?:_64)?\b|\bmt19937(?:_64)?\b|"
    r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r")"
)
PARALLEL_REDUCE_RE = re.compile(
    r"std\s*::\s*(?:transform_reduce|reduce)\s*\(\s*std\s*::\s*execution\s*::"
)
IOSTREAM_RE = re.compile(r"#\s*include\s*<iostream>")
WALL_CLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(|"
    r"\bclock_gettime\s*\(|\bgettimeofday\s*\(|\bgetrusage\s*\("
)
ENV_READ_RE = re.compile(r"\benv_(?:or|flag)\s*\(")

# (rule, pattern, applies to path). Each exemption is the construct's one
# sanctioned home: the seeded PRNG; the single clock read
# (obs::wall_now_ns) and the single getrusage read (util::peak_rss_bytes);
# the scenario config boundary (apply_env_overrides), the global pool's
# MSTC_THREADS and the env helpers' own definitions.
LINE_RULES = (
    ("raw-random", RAW_RANDOM_RE,
     lambda p: not is_unit(p, "util", "prng.hpp", "prng.cpp")),
    ("parallel-float-reduce", PARALLEL_REDUCE_RE, lambda p: True),
    ("iostream-in-lib", IOSTREAM_RE, is_library_code),
    ("wall-clock", WALL_CLOCK_RE,
     lambda p: is_library_code(p) and not (
         is_unit(p, "obs", "profile.cpp") or is_unit(p, "util", "rusage.cpp"))),
    ("env-read", ENV_READ_RE,
     lambda p: is_library_code(p) and not (
         is_unit(p, "runner", "config.cpp") or
         is_unit(p, "util", "thread_pool.cpp", "options.hpp", "options.cpp"))),
)

FOR_RE = re.compile(r"\bfor\s*\(")
# Subscript into a fleet-indexed array: positions[v], controllers[u],
# epoch_positions_[v], ...
FLEET_SUBSCRIPT_RE = re.compile(r"(?:positions|controllers)\w*\s*\[")
RECEIVER_SET_RE = re.compile(r"receiver|target")
# schedule_fanout is deliberately absent: routing the loop through the
# batched API is the fix.
SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:at|in)\s*\(")


def statement_end(text: str, start: int) -> int:
    """One past the statement at text[start]: a braced block, a for-loop
    with its body, or everything up to the next `;` outside a group."""
    if start >= len(text):
        return len(text)
    if text[start] == "{":
        return match_balanced(text, start, "{", "}")
    loop = FOR_RE.match(text, start)
    if loop:
        header_end = match_balanced(text, loop.end() - 1, "(", ")")
        return statement_end(text, skip_space(text, header_end))
    i = start
    while i < len(text) and text[i] != ";":
        if text[i] in "({":
            i = match_balanced(text, i, text[i], ")" if text[i] == "(" else "}")
        else:
            i += 1
    return min(i + 1, len(text))


def check_loops(path: Path, stripped: str) -> list[Finding]:
    """all-pairs-scan: an index for-loop that is the first statement of
    another index for-loop's body, and whose header or body subscripts a
    fleet array. per-receiver-schedule: a for-loop over a receiver/target
    set whose own body (nested loops excluded) schedules an event."""
    loops: dict[int, tuple[str, int, int]] = {}  # `for` -> header, body
    for match in FOR_RE.finditer(stripped):
        header_end = match_balanced(stripped, match.end() - 1, "(", ")")
        body = skip_space(stripped, header_end)
        loops[match.start()] = (stripped[match.end():header_end - 1], body,
                                statement_end(stripped, body))
    offsets = line_offsets(stripped)
    findings: list[Finding] = []
    for pos, (header, start, end) in loops.items():
        if RECEIVER_SET_RE.search(header):
            nested = [(p, loops[p][2]) for p in loops if start <= p < end]
            if any(not any(p <= call.start() < e for p, e in nested)
                   for call in SCHEDULE_CALL_RE.finditer(stripped, start, end)):
                findings.append(Finding(path, line_of(offsets, pos),
                                        "per-receiver-schedule"))
        # The spatial grid is the sanctioned replacement for all-pairs
        # scans; its own cell walks are exempt.
        if header.count(";") < 2 or \
                path.name in ("spatial_grid.hpp", "spatial_grid.cpp"):
            continue
        first = skip_space(stripped, start + 1) \
            if stripped.startswith("{", start) else start
        if first in loops:
            inner_header, inner_start, inner_end = loops[first]
            if inner_header.count(";") >= 2 and (
                    FLEET_SUBSCRIPT_RE.search(inner_header) or
                    FLEET_SUBSCRIPT_RE.search(stripped, inner_start, inner_end)):
                findings.append(Finding(path, line_of(offsets, first),
                                        "all-pairs-scan"))
    return findings


def check_source(path: Path, stripped: str) -> list[Finding]:
    active = [(rule, pattern) for rule, pattern, applies in LINE_RULES
              if applies(path)]
    findings = [Finding(path, index + 1, rule)
                for index, line in enumerate(stripped.splitlines())
                for rule, pattern in active if pattern.search(line)]
    if is_library_code(path):
        findings.extend(check_loops(path, stripped))
    return findings


# ---------------------------------------------------------------------------
# Builtin structural frontend
# ---------------------------------------------------------------------------


class FunctionDef:
    def __init__(self, name: str, name_pos: int, body_start: int,
                 body_end: int):
        self.name = name
        self.name_pos = name_pos        # offset of the function name token
        self.body_start = body_start    # offset of the opening '{'
        self.body_end = body_end        # one past the closing '}'
        self.hot = False


def resolve_local_includes(path: Path, text: str,
                           max_files: int = 24) -> list[tuple[Path, str]]:
    """Quoted includes of `path` that resolve against the file's directory
    or an ancestor (the repo's include root is src/, so "core/x.hpp" from
    src/sim/y.cpp resolves at the src/ ancestor). Used to see declarations
    (unordered members, aliases) that live in headers."""
    seen: set[Path] = set()
    out: list[tuple[Path, str]] = []
    roots = [path.parent, *list(path.parents)[1:6]]
    for include in INCLUDE_RE.findall(text):
        for root in roots:
            candidate = (root / include)
            if candidate.is_file():
                candidate = candidate.resolve()
                if candidate not in seen:
                    seen.add(candidate)
                    try:
                        out.append((candidate, candidate.read_text(
                            encoding="utf-8", errors="replace")))
                    except OSError:
                        pass
                break
        if len(out) >= max_files:
            break
    return out


def unordered_names(stripped_sources: list[str]) -> set[str]:
    """Names (variables, members, aliases) whose declared type is an
    unordered container, resolved through one fixpoint over using/typedef
    aliases across the given (already comment-stripped) sources."""
    aliases: dict[str, str] = {}
    for stripped in stripped_sources:
        for name, rhs in ALIAS_RE.findall(stripped):
            aliases[name] = rhs
        for rhs, name in TYPEDEF_RE.findall(stripped):
            aliases[name] = rhs
    unordered_aliases: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, rhs in aliases.items():
            if name in unordered_aliases:
                continue
            if UNORDERED_TYPE_RE.search(rhs) or any(
                    re.search(rf"\b{re.escape(a)}\b", rhs)
                    for a in unordered_aliases):
                unordered_aliases.add(name)
                changed = True

    names: set[str] = set(unordered_aliases)
    name_after = re.compile(r"\s*&?\s*(\w+)\s*(?:;|\{|=|,|\))")
    for stripped in stripped_sources:
        for match in UNORDERED_TYPE_RE.finditer(stripped):
            end = match_balanced(stripped, match.end() - 1, "<", ">")
            got = name_after.match(stripped, end)
            if got:
                names.add(got.group(1))
        for alias in unordered_aliases:
            for match in re.finditer(rf"\b{re.escape(alias)}\b\s+(\w+)\s*"
                                     r"(?:;|\{|=)", stripped):
                names.add(match.group(1))
    return names


def float_names(stripped_sources: list[str]) -> set[str]:
    names: set[str] = set()
    for stripped in stripped_sources:
        names.update(FLOAT_DECL_RE.findall(stripped))
    return names


def extract_functions(stripped: str, raw_lines: list[str],
                      offsets: list[int]) -> list[FunctionDef]:
    """Function definitions via identifier( ... ) [qualifiers] { matching.
    Collapses overloads by name; good enough for within-TU reachability."""
    functions: list[FunctionDef] = []
    for match in re.finditer(r"([A-Za-z_~]\w*)\s*\(", stripped):
        name = match.group(1)
        if name in KEYWORDS:
            continue
        close = match_balanced(stripped, match.end() - 1, "(", ")")
        if close >= len(stripped):
            continue
        i = close
        body_start = -1
        # Skip qualifiers / trailing return / constructor-initializer list.
        while i < len(stripped):
            while i < len(stripped) and stripped[i].isspace():
                i += 1
            if i >= len(stripped):
                break
            ch = stripped[i]
            if ch == "{":
                body_start = i
                break
            if ch == ";" or ch in ",)]=":
                break
            if stripped[i:i + 2] == "::":  # qualified trailing return type
                i += 2
                continue
            if ch == ":":
                # ctor-init list: skip `name(args)` / `name{args}` groups.
                i += 1
                while i < len(stripped):
                    while i < len(stripped) and stripped[i].isspace():
                        i += 1
                    word = IDENT_RE.match(stripped, i)
                    if not word:
                        break
                    i = word.end()
                    while i < len(stripped) and stripped[i].isspace():
                        i += 1
                    if i < len(stripped) and stripped[i] == "<":
                        i = match_balanced(stripped, i, "<", ">")
                        while i < len(stripped) and stripped[i].isspace():
                            i += 1
                    if i < len(stripped) and stripped[i] in "({":
                        closer = ")" if stripped[i] == "(" else "}"
                        i = match_balanced(stripped, i, stripped[i], closer)
                    while i < len(stripped) and stripped[i].isspace():
                        i += 1
                    if i < len(stripped) and stripped[i] == ",":
                        i += 1
                        continue
                    break
                continue
            if ch == "-" and stripped[i:i + 2] == "->":
                i += 2
                continue
            word = IDENT_RE.match(stripped, i)
            if word and word.group(0) in ("const", "noexcept", "override",
                                          "final", "mutable", "try",
                                          "requires"):
                i = word.end()
                continue
            if word:  # return-type identifiers after `->`, attr macros, ...
                i = word.end()
                continue
            if ch == "(":
                i = match_balanced(stripped, i, "(", ")")
                continue
            if ch == "<":
                i = match_balanced(stripped, i, "<", ">")
                continue
            break
        if body_start < 0:
            continue
        body_end = match_balanced(stripped, body_start, "{", "}")
        fn = FunctionDef(name, match.start(1), body_start, body_end)
        def_line = line_of(offsets, match.start(1))
        for probe in range(max(0, def_line - 4), def_line):
            if HOT_MARK_RE.search(raw_lines[probe]):
                fn.hot = True
        functions.append(fn)
    return functions


def innermost_function(functions: list[FunctionDef],
                       pos: int) -> FunctionDef | None:
    best = None
    for fn in functions:
        if fn.body_start <= pos < fn.body_end:
            if best is None or fn.body_start > best.body_start:
                best = fn
    return best


def hot_reachable(functions: list[FunctionDef],
                  stripped: str) -> set[FunctionDef]:
    """Hot-marked functions plus everything they (transitively) call within
    this translation unit, matched by name."""
    by_name: dict[str, list[FunctionDef]] = {}
    for fn in functions:
        by_name.setdefault(fn.name, []).append(fn)
    hot = [fn for fn in functions if fn.hot]
    reach: set[FunctionDef] = set(hot)
    queue = list(hot)
    while queue:
        fn = queue.pop()
        body = stripped[fn.body_start:fn.body_end]
        for call in re.finditer(r"(\w+)\s*\(", body):
            for callee in by_name.get(call.group(1), ()):
                if callee not in reach and callee is not fn:
                    reach.add(callee)
                    queue.append(callee)
    return reach


def builtin_check_file(path: Path, text: str,
                       stripped: str) -> list[Finding]:
    raw_lines = text.splitlines()
    stripped_lines = stripped.splitlines()
    offsets = line_offsets(stripped)
    findings: list[Finding] = []

    include_texts = [strip_comments_and_strings(t)
                     for _, t in resolve_local_includes(path, text)]
    sources = [stripped, *include_texts]

    # --- unordered-iteration -------------------------------------------
    if is_library_code(path):
        names = unordered_names(sources)
        if names:
            for index, line in enumerate(stripped_lines):
                for loop in RANGE_FOR_RE.finditer(line):
                    target = loop.group(1)
                    base = re.split(r"[.\->(]", target)[0]
                    if base in names or target in names:
                        findings.append(Finding(path, index + 1,
                                                "unordered-iteration",
                                                f"over '{target}'"))

    # --- parallel-float-accumulation -----------------------------------
    floats = float_names(sources)
    for call in PARALLEL_CALL_RE.finditer(stripped):
        call_end = match_balanced(stripped, stripped.index("(", call.start()),
                                  "(", ")")
        span = stripped[call.start():call_end]
        for lam in LAMBDA_RE.finditer(span):
            brace = call.start() + lam.end() - 1
            body_end = match_balanced(stripped, brace, "{", "}")
            body = stripped[brace:body_end]
            for acc in COMPOUND_FLOAT_RE.finditer(body):
                if acc.group(1) in floats:
                    pos = brace + acc.start()
                    findings.append(Finding(
                        path, line_of(offsets, pos),
                        "parallel-float-accumulation",
                        f"'{acc.group(1)}' accumulates across iterations"))
            for acc in PLAIN_ACCUM_RE.finditer(body):
                if acc.group(1) in floats:
                    pos = brace + acc.start()
                    findings.append(Finding(
                        path, line_of(offsets, pos),
                        "parallel-float-accumulation",
                        f"'{acc.group(1)}' accumulates across iterations"))

    # --- hot rules ------------------------------------------------------
    functions = extract_functions(stripped, raw_lines, offsets)
    hot_set = hot_reachable(functions, stripped)
    in_hot_tu = is_library_code(path) and any(
        part in HOT_PATH_PARTS for part in path.parts)

    for fn in hot_set:
        body = stripped[fn.body_start:fn.body_end]
        label = (f"in '{fn.name}'" if fn.hot
                 else f"in '{fn.name}', reachable from a hot function")
        for m in NEW_EXPR_RE.finditer(body):
            findings.append(Finding(
                path, line_of(offsets, fn.body_start + m.start()),
                "hot-heap-allocation", f"new expression {label}"))
        for m in MAKE_SMART_RE.finditer(body):
            findings.append(Finding(
                path, line_of(offsets, fn.body_start + m.start()),
                "hot-heap-allocation", f"make_unique/make_shared {label}"))
        for m in OWNING_LOCAL_RE.finditer(body):
            end = m.end()
            if end < len(body) and body[end:].lstrip().startswith("<"):
                end = match_balanced(body, body.index("<", end), "<", ">")
            rest = body[end:]
            decl = re.match(r"\s*(\w+)\s*[;={(]", rest)
            if decl and not re.match(r"\s*[&*]", rest):
                findings.append(Finding(
                    path, line_of(offsets, fn.body_start + m.start()),
                    "hot-heap-allocation",
                    f"local owning std::{m.group(1)} '{decl.group(1)}' "
                    f"{label}"))

    if in_hot_tu:
        for index, line in enumerate(stripped_lines):
            if STD_FUNCTION_RE.search(line):
                findings.append(Finding(path, index + 1, "hot-std-function"))
    else:
        for m in STD_FUNCTION_RE.finditer(stripped):
            fn = innermost_function(functions, m.start())
            if fn is not None and fn in hot_set:
                findings.append(Finding(
                    path, line_of(offsets, m.start()), "hot-std-function",
                    f"in hot '{fn.name}'"))

    # --- missing-guarded-by --------------------------------------------
    if is_library_code(path):
        findings.extend(check_guarded_by(path, stripped, offsets))

    return findings


def class_bodies(stripped: str) -> list[tuple[str, int, int]]:
    """(name, body_start, body_end) of every class/struct definition,
    including nested ones."""
    out = []
    for match in CLASS_RE.finditer(stripped):
        before = stripped[max(0, match.start() - 16):match.start()]
        if re.search(r"\benum\s*$", before):
            continue
        body_start = match.end() - 1
        body_end = match_balanced(stripped, body_start, "{", "}")
        out.append((match.group(3), body_start, body_end))
    return out


def class_statements(body: str) -> list[tuple[int, str]]:
    """Depth-1 statements of a class body (offset within body, text).
    Method bodies are flushed at their closing brace; access-specifier
    labels are stripped from the front of the following statement."""
    statements: list[tuple[int, str]] = []
    start = 1  # skip the opening '{'
    i = 1
    end = len(body) - 1  # the closing '}'
    while i < end:
        ch = body[i]
        if ch in "({":
            closer = ")" if ch == "(" else "}"
            group_end = match_balanced(body, i, ch, closer)
            if ch == "{":
                rest = body[group_end:group_end + 2].lstrip()
                if not rest.startswith(";") and not rest.startswith(",") \
                        and not rest.startswith("="):
                    statements.append((start, body[start:group_end]))
                    start = group_end
                    i = group_end
                    continue
            i = group_end
            continue
        if ch == ";":
            statements.append((start, body[start:i + 1]))
            start = i + 1
        i += 1
    cleaned: list[tuple[int, str]] = []
    for offset, stmt in statements:
        delta = 0
        label = re.match(r"\s*(?:public|private|protected)\s*:", stmt)
        if label:
            delta = label.end()
            stmt = stmt[label.end():]
        cleaned.append((offset + delta, stmt))
    return cleaned


def check_guarded_by(path: Path, stripped: str,
                     offsets: list[int]) -> list[Finding]:
    findings: list[Finding] = []
    classes = class_bodies(stripped)
    for name, body_start, body_end in classes:
        body = stripped[body_start:body_end]
        # Blank out nested class definitions: their members are judged in
        # their own pass, against their own mutexes.
        for other_name, other_start, other_end in classes:
            if other_start > body_start and other_end <= body_end:
                rel_start = other_start - body_start
                rel_end = other_end - body_start
                body = (body[:rel_start] +
                        "".join("\n" if c == "\n" else " "
                                for c in body[rel_start:rel_end]) +
                        body[rel_end:])
        statements = class_statements(body)
        members: list[tuple[int, str, str]] = []  # (offset, stmt, kind)
        owns_mutex = False
        for offset, stmt in statements:
            head = stmt.strip()
            if not head or head.startswith(("using ", "typedef ", "friend ",
                                            "template", "static_assert",
                                            "struct ", "class ", "enum ",
                                            "union ", "public", "private",
                                            "protected")):
                continue
            without_macros = MACRO_CALL_RE.sub("", stmt)
            if "(" in without_macros:
                continue  # method / constructor declaration
            if MUTEX_TYPE_RE.search(stmt):
                owns_mutex = True
                members.append((offset, stmt, "mutex"))
            else:
                members.append((offset, stmt, "data"))
        if not owns_mutex:
            continue
        for offset, stmt, kind in members:
            if kind == "mutex":
                continue
            if GUARD_ANNOTATION_RE.search(stmt):
                continue
            if FIELD_EXEMPT_RE.search(stmt):
                continue
            field = re.search(r"(\w+)\s*(?:=[^;]*|\{[^;]*\})?;", stmt)
            detail = (f"field '{field.group(1)}'" if field else "field")
            findings.append(Finding(
                path, line_of(offsets, body_start + offset +
                              (len(stmt) - len(stmt.lstrip()))),
                "missing-guarded-by", f"{detail} of mutex-owning '{name}'"))
    return findings


# ---------------------------------------------------------------------------
# libclang frontend
# ---------------------------------------------------------------------------


def probe_libclang():
    """Returns (cindex module, None) when libclang is usable, else
    (None, reason)."""
    try:
        from clang import cindex  # type: ignore
    except ImportError as error:
        return None, f"python 'clang' package not importable ({error})"
    try:
        cindex.Index.create()
    except Exception as error:  # noqa: BLE001 — any load failure means skip
        return None, f"libclang shared library not loadable ({error})"
    return cindex, None


def find_compile_commands(build_dir: Path | None, paths: list[Path])\
        -> Path | None:
    candidates: list[Path] = []
    if build_dir is not None:
        candidates.append(build_dir)
    here = Path.cwd()
    candidates.extend([here, *sorted(here.glob("build*"))])
    for path in paths:
        for ancestor in [path, *path.parents]:
            candidates.extend(sorted(ancestor.glob("build*")))
            if (ancestor / "CMakeLists.txt").is_file():
                break
    for candidate in candidates:
        if (candidate / "compile_commands.json").is_file():
            return candidate / "compile_commands.json"
    return None


class LibclangFrontend:
    """Parses TUs from compile_commands.json with libclang and evaluates
    the same rules as the builtin frontend on real ASTs. Any per-TU parse
    or rule failure falls back to the builtin frontend for that file, so a
    libclang regression can never hide findings."""

    def __init__(self, cindex, compdb_path: Path):
        self.ci = cindex
        self.index = cindex.Index.create()
        self.compdb = cindex.CompilationDatabase.fromDirectory(
            str(compdb_path.parent))

    def tu_args(self, source: Path) -> list[str] | None:
        commands = self.compdb.getCompileCommands(str(source))
        if not commands:
            return None
        arguments = list(commands[0].arguments)
        args: list[str] = []
        skip_next = False
        for arg in arguments[1:]:  # drop the compiler itself
            if skip_next:
                skip_next = False
                continue
            if arg in ("-c", str(source)):
                continue
            if arg == "-o":
                skip_next = True
                continue
            args.append(arg)
        return args

    def check_file(self, path: Path) -> list[Finding] | None:
        """Findings for `path`, or None when this frontend cannot handle it
        (headers, files outside the compile db, parse errors)."""
        if path.suffix not in (".cpp", ".cc", ".cxx"):
            return None
        args = self.tu_args(path)
        if args is None:
            return None
        try:
            tu = self.index.parse(str(path), args=args)
        except Exception:  # noqa: BLE001
            return None
        if any(d.severity >= d.Error for d in tu.diagnostics):
            return None
        try:
            return self.check_tu(path, tu)
        except Exception as error:  # noqa: BLE001
            print(f"mstc_tidy: libclang rule failure on {path}: {error}; "
                  f"falling back to builtin frontend", file=sys.stderr)
            return None

    def check_tu(self, path: Path, tu) -> list[Finding]:
        ci = self.ci
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        findings: list[Finding] = []

        def in_main_file(cursor) -> bool:
            loc = cursor.location
            return (loc.file is not None and
                    Path(loc.file.name).resolve() == path.resolve())

        def canonical(cursor) -> str:
            try:
                return cursor.type.get_canonical().spelling
            except Exception:  # noqa: BLE001
                return ""

        functions: list = []
        calls: dict[str, set[str]] = {}

        def walk(cursor, enclosing_usr: str | None):
            for child in cursor.get_children():
                kind = child.kind
                usr = enclosing_usr
                if kind in (ci.CursorKind.FUNCTION_DECL,
                            ci.CursorKind.CXX_METHOD,
                            ci.CursorKind.CONSTRUCTOR,
                            ci.CursorKind.DESTRUCTOR,
                            ci.CursorKind.FUNCTION_TEMPLATE) \
                        and child.is_definition() and in_main_file(child):
                    functions.append(child)
                    usr = child.get_usr()
                elif kind == ci.CursorKind.CALL_EXPR and usr is not None:
                    ref = child.referenced
                    if ref is not None:
                        calls.setdefault(usr, set()).add(ref.get_usr())
                if in_main_file(child):
                    self.rule_unordered(ci, child, path, findings)
                    self.rule_parallel_float(ci, child, path, findings)
                    self.rule_guarded_by(ci, child, path, raw_lines, findings)
                    self.rule_std_function_decl(ci, child, path, findings)
                walk(child, usr)

        walk(tu.cursor, None)

        # Hot reachability over USRs.
        def is_hot(cursor) -> bool:
            line = cursor.extent.start.line
            for probe in range(max(0, line - 4), line):
                if probe < len(raw_lines) and \
                        HOT_MARK_RE.search(raw_lines[probe]):
                    return True
            return False

        by_usr = {fn.get_usr(): fn for fn in functions}
        hot_usrs = {usr for usr, fn in by_usr.items() if is_hot(fn)}
        queue = list(hot_usrs)
        while queue:
            usr = queue.pop()
            for callee in calls.get(usr, ()):
                if callee in by_usr and callee not in hot_usrs:
                    hot_usrs.add(callee)
                    queue.append(callee)

        for usr in hot_usrs:
            self.rule_hot_body(ci, by_usr[usr], path, findings)

        return findings

    def rule_unordered(self, ci, cursor, path, findings):
        if cursor.kind != ci.CursorKind.CXX_FOR_RANGE_STMT:
            return
        if not is_library_code(path):
            return
        children = list(cursor.get_children())
        for child in children:
            if child.kind in (ci.CursorKind.DECL_STMT, ci.CursorKind.VAR_DECL,
                              ci.CursorKind.COMPOUND_STMT):
                continue
            type_name = ""
            try:
                type_name = child.type.get_canonical().spelling
            except Exception:  # noqa: BLE001
                pass
            if "unordered_map" in type_name or "unordered_set" in type_name \
                    or "unordered_multi" in type_name:
                findings.append(Finding(path, cursor.location.line,
                                        "unordered-iteration",
                                        f"range type '{child.spelling}'"))
            break

    def rule_parallel_float(self, ci, cursor, path, findings):
        if cursor.kind != ci.CursorKind.CALL_EXPR:
            return
        if cursor.spelling != "parallel_for":
            return

        def scan(node):
            for child in node.get_children():
                if child.kind == ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
                    type_name = ""
                    try:
                        type_name = child.type.get_canonical().spelling
                    except Exception:  # noqa: BLE001
                        pass
                    tokens = {t.spelling for t in child.get_tokens()}
                    if type_name in ("float", "double", "long double") and \
                            tokens & {"+=", "-=", "*="}:
                        findings.append(Finding(
                            path, child.location.line,
                            "parallel-float-accumulation"))
                scan(child)

        for child in cursor.get_children():
            if child.kind == ci.CursorKind.LAMBDA_EXPR:
                scan(child)
            else:
                for sub in child.walk_preorder():
                    if sub.kind == ci.CursorKind.LAMBDA_EXPR:
                        scan(sub)
                        break

    def rule_guarded_by(self, ci, cursor, path, raw_lines, findings):
        if cursor.kind not in (ci.CursorKind.CLASS_DECL,
                               ci.CursorKind.STRUCT_DECL):
            return
        if not cursor.is_definition() or not is_library_code(path):
            return
        fields = [c for c in cursor.get_children()
                  if c.kind == ci.CursorKind.FIELD_DECL]
        mutexes = [f for f in fields
                   if MUTEX_TYPE_RE.search(
                       f.type.get_canonical().spelling or "")
                   or "Mutex" in (f.type.spelling or "")]
        if not mutexes:
            return
        mutex_usrs = {f.get_usr() for f in mutexes}
        for field in fields:
            if field.get_usr() in mutex_usrs:
                continue
            type_name = field.type.get_canonical().spelling or ""
            if FIELD_EXEMPT_RE.search(type_name) or \
                    field.type.is_const_qualified():
                continue
            line_index = field.extent.start.line - 1
            window = " ".join(
                raw_lines[line_index:field.extent.end.line])
            if GUARD_ANNOTATION_RE.search(window):
                continue
            findings.append(Finding(
                path, field.location.line, "missing-guarded-by",
                f"field '{field.spelling}' of mutex-owning "
                f"'{cursor.spelling}'"))

    def rule_std_function_decl(self, ci, cursor, path, findings):
        if cursor.kind not in (ci.CursorKind.VAR_DECL,
                               ci.CursorKind.FIELD_DECL,
                               ci.CursorKind.PARM_DECL):
            return
        if not (is_library_code(path) and
                any(part in HOT_PATH_PARTS for part in path.parts)):
            return
        type_name = cursor.type.get_canonical().spelling or ""
        if type_name.startswith("std::function<") or \
                "std::function<" in type_name:
            findings.append(Finding(path, cursor.location.line,
                                    "hot-std-function",
                                    f"'{cursor.spelling}'"))

    def rule_hot_body(self, ci, fn, path, findings):
        for cursor in fn.walk_preorder():
            if cursor.location.file is None:
                continue
            if cursor.kind == ci.CursorKind.CXX_NEW_EXPR:
                findings.append(Finding(
                    path, cursor.location.line, "hot-heap-allocation",
                    f"new expression in hot '{fn.spelling}'"))
            elif cursor.kind == ci.CursorKind.CALL_EXPR and \
                    cursor.spelling in ("make_unique", "make_shared"):
                findings.append(Finding(
                    path, cursor.location.line, "hot-heap-allocation",
                    f"{cursor.spelling} in hot '{fn.spelling}'"))
            elif cursor.kind == ci.CursorKind.VAR_DECL:
                type_name = cursor.type.get_canonical().spelling or ""
                if re.search(r"\bstd::(vector|deque|list|map|set|basic_string"
                             r"|unordered_\w+|function|queue|priority_queue"
                             r"|stack)<", type_name) and \
                        not type_name.endswith(("&", "*")):
                    findings.append(Finding(
                        path, cursor.location.line, "hot-heap-allocation",
                        f"local owning '{cursor.spelling}' in hot "
                        f"'{fn.spelling}'"))
                if "std::function<" in type_name and \
                        not any(part in HOT_PATH_PARTS
                                for part in path.parts):
                    findings.append(Finding(
                        path, cursor.location.line, "hot-std-function",
                        f"in hot '{fn.spelling}'"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*"))
                         if p.suffix in CXX_SUFFIXES and p.is_file())
        elif path.is_file():
            files.append(path)
        else:
            print(f"mstc_tidy: no such file or directory: {path}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="mstc_tidy.py",
        description="Determinism and contract checker for the mstc repo.")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build tree containing compile_commands.json "
                             "(located automatically when omitted)")
    parser.add_argument("--frontend", choices=("auto", "builtin", "libclang"),
                        default="auto",
                        help="auto (default): libclang when available, "
                             "builtin structural frontend otherwise")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and descriptions, then exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    files = collect_files(args.paths)

    libclang = None
    if args.frontend in ("auto", "libclang"):
        cindex, reason = probe_libclang()
        compdb = None
        if cindex is not None:
            compdb = find_compile_commands(args.build_dir, files)
            if compdb is None:
                reason = ("no compile_commands.json found — configure a "
                          "build tree (CMAKE_EXPORT_COMPILE_COMMANDS is ON "
                          "in every preset) or pass --build-dir")
        if cindex is not None and compdb is not None:
            try:
                libclang = LibclangFrontend(cindex, compdb)
            except Exception as error:  # noqa: BLE001
                reason = f"compile database unusable ({error})"
        if libclang is None:
            if args.frontend == "libclang":
                print(f"mstc_tidy: SKIPPED (not failed): libclang frontend "
                      f"unavailable: {reason}", file=sys.stderr)
                return 0
            print(f"mstc_tidy: note: libclang unavailable ({reason}); "
                  f"using the bundled structural frontend",
                  file=sys.stderr)

    findings: list[Finding] = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as error:
            print(f"mstc_tidy: cannot read {path}: {error}", file=sys.stderr)
            continue
        stripped = strip_comments_and_strings(text)
        per_file = libclang.check_file(path) if libclang is not None else None
        if per_file is None:
            per_file = builtin_check_file(path, text, stripped)
        raw_lines = text.splitlines()
        findings.extend(
            finding for finding in per_file + check_source(path, stripped)
            if finding.rule not in allowed_rules(raw_lines, finding.line - 1))

    unique: dict[tuple, Finding] = {}
    for finding in findings:
        unique.setdefault(finding.key(), finding)
    ordered = sorted(unique.values(), key=Finding.key)
    for finding in ordered:
        print(finding)
    if ordered:
        print(f"mstc_tidy: {len(ordered)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
