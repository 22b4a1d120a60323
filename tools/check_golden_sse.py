#!/usr/bin/env python3
"""Fail when a golden bench output reports a higher SSE than a base revision.

Compares every bench/golden/*.txt in the working tree with the same file at
a base git revision and exits 1 if any SSE cell rose. A fit change may move
the last printed digits of a golden, but a least-squares fit that got worse
is a regression whatever the diff says.

SSE cells are found in three layouts:
  * a table column whose header names SSE ("Multistart (SSE)", "a1=1 SSE");
  * a table row whose label cell is exactly "SSE" (every number in the row);
  * an inline "SSE=<number>" token outside tables ("  SSE=5.2334e-05 ...").

Cells are matched by position (table, row, column; or the n-th inline
token). A golden whose SSE cells no longer line up with the base is reported
and fails too, since a rise could hide in it. Goldens new at the head have
nothing to compare and are skipped.

Usage: python3 tools/check_golden_sse.py [--base REV] [--dir bench/golden]
"""
import argparse
import glob
import math
import os
import re
import subprocess
import sys

INLINE_SSE = re.compile(r"(?<![A-Za-z0-9_])SSE=(\S+)")
SSE_WORD = re.compile(r"(?<![A-Za-z0-9_])SSE(?![A-Za-z0-9_])")


def parse_number(text):
    text = text.strip().rstrip("%")
    try:
        return float(text)
    except ValueError:
        return None


def sse_cells(text):
    """Map of cell key -> (label, raw cell text) for every SSE cell in text."""
    cells = {}
    table = -1
    header = None
    row = 0
    inline = 0
    in_table = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("+") and stripped.endswith("+"):
            if not in_table:
                in_table = True
                table += 1
                header = None
                row = 0
            continue
        if stripped.startswith("|") and stripped.endswith("|"):
            in_table = True
            parts = [c.strip() for c in stripped[1:-1].split("|")]
            if header is None:
                header = parts
                continue
            row += 1
            if "SSE" in parts:
                # A row labelled SSE: every cell right of the label.
                cols = range(parts.index("SSE") + 1, len(parts))
            else:
                cols = [c for c, name in enumerate(header) if SSE_WORD.search(name)]
            for col in cols:
                if col >= len(parts):
                    continue
                name = header[col] if col < len(header) else "col%d" % (col + 1)
                label = "table %d row %d (%s) column '%s'" % (
                    table + 1, row, parts[0] or "cont.", name)
                cells[("table", table, row, col)] = (label, parts[col])
            continue
        in_table = False
        for match in INLINE_SSE.finditer(line):
            inline += 1
            label = "inline SSE #%d (%s)" % (inline, stripped[:40])
            cells[("inline", inline)] = (label, match.group(1))
    return cells


def rose(base, head):
    b = parse_number(base)
    h = parse_number(head)
    if b is None or h is None:
        return base != head
    if math.isnan(h):
        return not math.isnan(b)
    return h > b


def git_show(rev, path):
    result = subprocess.run(["git", "show", "%s:%s" % (rev, path)],
                            capture_output=True, text=True)
    return result.stdout if result.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against (default: HEAD)")
    parser.add_argument("--dir", default="bench/golden",
                        help="golden directory, relative to the repository root")
    args = parser.parse_args()

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    failures = []
    compared = 0
    for path in sorted(glob.glob(os.path.join(root, args.dir, "*.txt"))):
        rel = os.path.relpath(path, root)
        base_text = git_show(args.base, rel)
        if base_text is None:
            print("skip %s: not in %s" % (rel, args.base))
            continue
        with open(path) as f:
            head_text = f.read()
        base_cells = sse_cells(base_text)
        head_cells = sse_cells(head_text)
        if base_cells.keys() != head_cells.keys():
            failures.append("%s: SSE cells do not line up with %s (%d vs %d cells)"
                            % (rel, args.base, len(base_cells), len(head_cells)))
            continue
        for key, (label, base_value) in base_cells.items():
            compared += 1
            head_value = head_cells[key][1]
            if rose(base_value, head_value):
                failures.append("%s: %s rose %s -> %s" % (rel, label, base_value, head_value))

    for failure in failures:
        print("FAIL " + failure)
    print("%d SSE cells compared against %s, %d failure(s)" % (compared, args.base, len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
