"""Generated blocks in EXPERIMENTS.md.

A generated block sits between a `<!-- name:begin -->` line and a
`<!-- name:end -->` marker. sync_blocks() compares the committed blocks with
freshly rendered bodies byte for byte and, on request, rewrites them.
tools/bench_gate.py (the bench tables) and tools/gen_metric_catalog.py (the
metric catalog) share it.
"""

from __future__ import annotations

import difflib
import re
import sys


def sync_blocks(path, bodies, update):
    """Compare each {name: body} with the committed block of that name.

    Returns the unified diff (a list of lines, empty when every block is
    equal). With `update`, a differing file is rewritten with the bodies.
    """
    with open(path) as f:
        text = f.read()
    diff = []
    for name, body in bodies.items():
        begin, end = f"<!-- {name}:begin -->", f"<!-- {name}:end -->"
        found = re.search(re.escape(begin) + r"\n(.*?)" + re.escape(end), text, re.S)
        if not found:
            sys.exit(f"error: {path} lacks the {begin} ... {end} markers")
        committed, fresh = found.group(1), body + "\n"
        if committed != fresh:
            diff += difflib.unified_diff(committed.splitlines(), fresh.splitlines(),
                                         f"{path} {name} (committed)",
                                         f"{name} (rendered)", lineterm="")
            text = text[:found.start(1)] + fresh + text[found.end(1):]
    if update and diff:
        with open(path, "w") as f:
            f.write(text)
    return diff
