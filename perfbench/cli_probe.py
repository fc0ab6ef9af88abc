"""Run one fedpca command in this process with the tracer or tracemalloc on.

Usage: python cli_probe.py {trace|mem} RESULT.json <fedpca arguments...>

``trace`` installs the span tracer at every binding site, runs the command
under ``fedpca.accounting.track()`` and writes the spans, the accounting
counters and any binding problems to RESULT.json. ``mem`` starts tracemalloc
after the imports and writes the peak traced allocation of the command.
Exits with the command's own exit code.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fedpca.cli  # noqa: E402
from fedpca import accounting  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    mode, result_path, args = argv[0], Path(argv[1]), argv[2:]
    if mode == "trace":
        tracer = Tracer()
        problems = tracer.install()
        try:
            with accounting.track() as acct:
                code = fedpca.cli.main(args)
        finally:
            problems += tracer.uninstall()
        result = {"spans": tracer.spans, "problems": problems,
                  "accounting": {"events": acct.total_events, "peak_elems": acct.max_elements}}
    elif mode == "mem":
        tracemalloc.start()
        try:
            code = fedpca.cli.main(args)
            result = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
        finally:
            tracemalloc.stop()
    else:
        print(f"cli_probe: unknown mode {mode!r}", file=sys.stderr)
        return 2
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
