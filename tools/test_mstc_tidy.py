#!/usr/bin/env python3
"""Self-test for mstc_tidy.py: each known-bad fixture must be reported with
the expected rule id, each known-good fixture must pass, the shipped src/
tree must be clean, and every allow marker in src/ must still suppress a
finding. Fixtures are pinned against the bundled structural frontend
(always available); when libclang is present the fixture suite and the
src/ sweep run again under it, so both frontends are held to the same
verdicts. Run directly or via ctest (mstc_tidy_selftest)."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mstc_tidy import ALLOW_RE

TOOLS_DIR = Path(__file__).resolve().parent
TIDY = TOOLS_DIR / "mstc_tidy.py"
FIXTURES = TOOLS_DIR / "tidy_fixtures"
REPO_SRC = TOOLS_DIR.parent / "src"

# fixture path (relative to tidy_fixtures/) -> set of rule ids that must all
# appear in the output; empty set = fixture must come back clean. Fixtures
# under src/ are library code.
EXPECTATIONS = {
    "bad_raw_random.cpp": {"raw-random"},
    "bad_parallel_reduce.cpp": {"parallel-float-reduce"},
    "src/bad_iostream.cpp": {"iostream-in-lib"},
    "src/bad_wall_clock.cpp": {"wall-clock"},
    "src/bad_all_pairs.cpp": {"all-pairs-scan"},
    "src/bad_per_receiver_schedule.cpp": {"per-receiver-schedule"},
    "src/good_per_receiver_suppressed.cpp": set(),
    "src/bad_env_read.cpp": {"env-read"},
    "src/good_env_read_suppressed.cpp": set(),
    "src/good_all_pairs_suppressed.cpp": set(),
    "src/good_clean.cpp": set(),
    "src/good_suppressed.cpp": set(),
    "src/bad_unordered_iter.cpp": {"unordered-iteration"},
    "src/good_ordered_iter.cpp": set(),
    "src/good_unordered_suppressed.cpp": set(),
    "bad_parallel_float.cpp": {"parallel-float-accumulation"},
    "good_parallel_slots.cpp": set(),
    "good_parallel_suppressed.cpp": set(),
    "src/bad_hot_alloc.cpp": {"hot-heap-allocation"},
    "src/good_hot_outparam.cpp": set(),
    "src/good_hot_suppressed.cpp": set(),
    "src/bad_hot_std_function.cpp": {"hot-std-function"},
    "src/sim/bad_std_function.cpp": {"hot-std-function"},
    "src/good_std_function_cold.cpp": set(),
    "src/core/good_std_function_waived.cpp": set(),
    "src/bad_missing_guard.cpp": {"missing-guarded-by"},
    "src/good_guarded.cpp": set(),
    "src/good_guard_suppressed.cpp": set(),
}

# Every rule has a known-bad fixture, so these are all the rule ids.
ALL_RULES = set().union(*EXPECTATIONS.values())

FINDING_RE = re.compile(r"^(.+?):(\d+): \[([a-z0-9-]+)\]", re.MULTILINE)


def run_tidy(*args: str) -> tuple[int, str]:
    result = subprocess.run(
        [sys.executable, str(TIDY), *args],
        capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def libclang_usable() -> bool:
    # Exit 0 with a skip banner means unavailable; findings (exit 1) or a
    # silent pass mean the frontend actually ran.
    code, output = run_tidy("--frontend", "libclang", str(FIXTURES))
    return code != 0 or "SKIPPED" not in output


def check_fixtures(frontend: str, failures: list[str]) -> None:
    for relative, expected_rules in EXPECTATIONS.items():
        fixture = FIXTURES / relative
        if not fixture.is_file():
            failures.append(f"missing fixture: {fixture}")
            continue
        code, output = run_tidy("--frontend", frontend, str(fixture))
        tag = f"{relative} [{frontend}]"
        if expected_rules:
            if code == 0:
                failures.append(f"{tag}: expected nonzero exit, got 0")
            for rule in expected_rules:
                if f"[{rule}]" not in output:
                    failures.append(
                        f"{tag}: rule '{rule}' not reported; output:\n"
                        f"{output}")
        else:
            if code != 0:
                failures.append(
                    f"{tag}: expected clean (exit 0), got {code}; "
                    f"output:\n{output}")


def check_markers_suppress(failures: list[str]) -> None:
    """Strips every allow marker from a copy of src/ (kept in a directory
    named src, so it is still library code); each marker's line or the line
    after it must then carry a finding of a rule the marker names."""
    with tempfile.TemporaryDirectory() as workdir:
        copy = Path(workdir) / "src"
        shutil.copytree(REPO_SRC, copy)
        markers: list[tuple[Path, int, set[str]]] = []
        for path in sorted(copy.rglob("*")):
            if not path.is_file():
                continue
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            before = len(markers)
            for index, line in enumerate(lines):
                match = ALLOW_RE.search(line)
                if match:
                    rules = {r.strip() for r in match.group(1).split(",")}
                    markers.append((path, index + 1, rules))
                    lines[index] = line[:match.start()] + line[match.end():]
            if len(markers) > before:
                path.write_text("".join(lines), encoding="utf-8")
        _, output = run_tidy("--frontend", "builtin", str(copy))
        reported = {(Path(m.group(1)), int(m.group(2)), m.group(3))
                    for m in FINDING_RE.finditer(output)}
        for path, line, rules in markers:
            if not any((path, at, rule) in reported
                       for at in (line, line + 1) for rule in rules):
                failures.append(
                    f"src/{path.relative_to(copy)}:{line}: allow("
                    f"{', '.join(sorted(rules))}) suppresses no finding")


def main() -> int:
    failures: list[str] = []

    check_fixtures("builtin", failures)

    # The tree as shipped must be clean — the lint gate in CI relies on it.
    code, output = run_tidy("--frontend", "builtin", str(REPO_SRC))
    if code != 0:
        failures.append(
            f"src/ tree not tidy-clean [builtin] (exit {code}):\n{output}")
    check_markers_suppress(failures)

    # When libclang is actually usable here, hold it to the same verdicts.
    if libclang_usable():
        check_fixtures("libclang", failures)
        code, output = run_tidy("--frontend", "libclang", str(REPO_SRC))
        if code != 0:
            failures.append(
                f"src/ tree not tidy-clean [libclang] (exit {code}):\n"
                f"{output}")
    else:
        # Must degrade loudly but successfully: a skip, never a failure.
        code, output = run_tidy("--frontend", "libclang", str(REPO_SRC))
        if code != 0:
            failures.append(
                f"--frontend=libclang without libclang must exit 0 "
                f"(skip), got {code}:\n{output}")
        elif "SKIPPED" not in output:
            failures.append(
                "--frontend=libclang without libclang must print a skip "
                f"banner; output:\n{output}")

    # --list-rules must succeed and list exactly the fixtures' rule ids.
    result = subprocess.run(
        [sys.executable, str(TIDY), "--list-rules"],
        capture_output=True, text=True, check=False)
    if result.returncode != 0:
        failures.append("--list-rules exited nonzero")
    listed = {line.split(":", 1)[0] for line in result.stdout.splitlines()}
    if listed != ALL_RULES:
        failures.append(f"--list-rules lists {sorted(listed)}, expected "
                        f"{sorted(ALL_RULES)}")

    if failures:
        print("mstc_tidy self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"mstc_tidy self-test: {len(EXPECTATIONS)} fixtures, "
          f"{len(ALL_RULES)} rules + src/ sweep and markers OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
