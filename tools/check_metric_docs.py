#!/usr/bin/env python3
"""Check that every metric name registered under src/ is documented.

Every string literal passed as the first argument of `counter(`, `gauge(`
or `histogram(` in a C++ file under src/ must match a name in the
"Metric naming" table of docs/observability.md. The first cell of each
row lists names in backticks:

  * a full dotted name, e.g. `exchange.count`;
  * a short form `.changed`, which replaces the last component of the
    name before it (`exchange.count` / `.changed` is exchange.changed);
  * a prefix ending in `.*`, which matches every name below it.

Names built at run time (a prefix plus a suffix) are not literals and are
not checked; document them with a `.*` row.

Exit 0 when every literal is documented, 1 when some are not, 2 when the
table cannot be found.

Usage: check_metric_docs.py [ROOT]   (default: the current directory)
"""

from __future__ import annotations

import pathlib
import re
import sys

DOC = pathlib.Path("docs") / "observability.md"
TABLE_HEADING = "## Metric naming"
CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
# The first argument is the name; Tracer::counter(ts, name, value) takes a
# timestamp first and so never matches.
REGISTRATION = re.compile(r'\b(counter|gauge|histogram)\(\s*"([^"]*)"')
BACKTICKED = re.compile(r"`([^`]+)`")


def documented_names(doc: str) -> tuple[set[str], list[str]] | None:
    """Exact names and `.*` prefixes from the metric table, or None."""
    start = doc.find(TABLE_HEADING)
    if start < 0:
        return None
    exact: set[str] = set()
    prefixes: list[str] = []
    rows = 0
    for line in doc[start:].splitlines()[1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|") or line.startswith("| ---"):
            continue
        cell = line.split("|")[1]
        last = ""
        for token in BACKTICKED.findall(cell):
            if token.startswith(".") and last:
                token = last.rsplit(".", 1)[0] + token
            if token.endswith(".*"):
                prefixes.append(token[:-1])
            else:
                exact.add(token)
            last = token
        rows += 1
    if rows <= 1:  # Only the header row, or none.
        return None
    return exact, prefixes


def registered_names(src: pathlib.Path) -> list[tuple[str, str, int]]:
    """(name, file, line) for every literal metric registration."""
    found = []
    for path in sorted(src.rglob("*")):
        if not path.is_file() or path.suffix not in CXX_SUFFIXES:
            continue
        text = path.read_text(encoding="utf-8")
        for match in REGISTRATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((match.group(2), str(path), line))
    return found


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    doc_path = root / DOC
    try:
        table = documented_names(doc_path.read_text(encoding="utf-8"))
    except OSError as error:
        print(f"check_metric_docs: {error}", file=sys.stderr)
        return 2
    if table is None:
        print(f"check_metric_docs: no '{TABLE_HEADING}' table in {doc_path}",
              file=sys.stderr)
        return 2
    exact, prefixes = table

    registered = registered_names(root / "src")
    missing = [
        (name, path, line)
        for name, path, line in registered
        if name not in exact and not any(name.startswith(p) for p in prefixes)
    ]
    for name, path, line in missing:
        print(f"{path}:{line}: metric '{name}' has no row in {DOC}",
              file=sys.stderr)
    if missing:
        print(f"{len(missing)} undocumented registration(s)", file=sys.stderr)
        return 1
    print(f"ok: {len(registered)} registrations documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
