#!/usr/bin/env python3
"""Drift check: every observability identifier the code can emit must be
documented in docs/OBSERVABILITY.md.

Parses the stable snake_case names out of:

  src/obs/counters.cpp   counter_name() + hist_name()   (`return "...";`)
  src/obs/ledger.cpp     the ledger field table          (`{"...",` rows)
  src/obs/profile.cpp    category_name(), the manifest's wall categories
  src/obs/trace.cpp      event_kind_name(), the trace's event kinds

and requires each to appear in docs/OBSERVABILITY.md wrapped in backticks
(the catalogue-table convention). Registered as the `check_counter_docs`
ctest (label: lint), so adding a counter without documenting it fails CI.

Exit status: 0 when the catalogue is complete, 1 when names are missing,
2 when a source file cannot be parsed at all (layout drifted).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "OBSERVABILITY.md"
# Name-mapping switch arms: `return "hello_tx";`.
RETURN_NAME_RE = re.compile(r'return\s+"([a-z0-9_]+)"\s*;')
# Ledger field table rows: `{"total_seconds",`.
TABLE_NAME_RE = re.compile(r'\{"([a-z0-9_]+)",')

OBS = REPO / "src" / "obs"
SOURCES = [
    (OBS / "counters.cpp", RETURN_NAME_RE),
    (OBS / "ledger.cpp", TABLE_NAME_RE),
    (OBS / "profile.cpp", RETURN_NAME_RE),
    (OBS / "trace.cpp", RETURN_NAME_RE),
]
# The fallback arm of every name-mapping switch, not a real identifier.
IGNORED = {"unknown"}


def emitted_names(source: Path, pattern: re.Pattern[str]) -> set[str]:
    names = set(pattern.findall(source.read_text(encoding="utf-8")))
    return names - IGNORED


def main() -> int:
    if not DOC.is_file():
        print(f"check_counter_docs: missing {DOC}", file=sys.stderr)
        return 2

    doc_text = DOC.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([a-z0-9_]+)`", doc_text))

    failures: list[str] = []
    total = 0
    for source, pattern in SOURCES:
        if not source.is_file():
            print(f"check_counter_docs: missing {source}", file=sys.stderr)
            return 2
        names = emitted_names(source, pattern)
        if not names:
            print(f"check_counter_docs: no names parsed from {source} — "
                  "has the name-mapping layout changed?", file=sys.stderr)
            return 2
        total += len(names)
        for name in sorted(names - documented):
            failures.append(f"{source.relative_to(REPO)}: `{name}` is "
                            f"emitted but not documented in "
                            f"{DOC.relative_to(REPO)}")

    for failure in failures:
        print(failure)
    if failures:
        print(f"check_counter_docs: {len(failures)} undocumented name(s)",
              file=sys.stderr)
        return 1
    print(f"check_counter_docs: {total} names all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
