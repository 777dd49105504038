"""Set-up as a CLI user pays it, in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR INPUT_DIR WORKLOAD [ITEMS_JSON]

Imports `rigicert.cli`, reads every input file of the workload, builds the
lazy tables the workload's first item would build, then prints "ready".
The caller times the interval from starting this process to that line.

With ITEMS_JSON (a file holding a list of argument lists, file names
relative to INPUT_DIR), it then runs each through `rigicert.cli.main`, output
discarded, and prints "peak_rss_kb N": the peak memory of a process that
holds only rigicert, its inputs and those requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

#: lru_cache tables in rigicert.algebra.solubility that a k33 certificate
#: builds on first use (the soluble cycle types of degree 6 and 8).
LAZY_TABLE_DEGREES = {"k33": (6, 8)}


def warm(workload: str) -> None:
    """Build the lazy tables the workload's first item needs."""
    degrees = LAZY_TABLE_DEGREES.get(workload, ())
    if degrees:
        from rigicert.algebra.solubility import soluble_cycle_types

        for degree in degrees:
            soluble_cycle_types(degree)


def main(src: str, inputs: str, workload: str, items_json: str | None = None) -> None:
    sys.path.insert(0, src)
    import rigicert.cli  # the import is part of what is being timed

    for path in sorted(Path(inputs).iterdir()):
        path.read_bytes()
    warm(workload)
    print("ready", flush=True)
    if items_json is None:
        return
    for argv in json.loads(Path(items_json).read_text()):
        argv = [str(Path(inputs) / a) if a.endswith(".txt") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = rigicert.cli.main(argv)
        if code not in (0, 1, 2):
            sys.exit(f"{' '.join(argv)}: exit code {code}")
    print(f"peak_rss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:5])
