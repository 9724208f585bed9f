"""Run ``qfcool.cli`` once under the span tracer.

    python bench/traced_cli.py STATS.json [qfcool cli arguments...]

Behaves like ``python -m qfcool.cli`` (same output, same exit code) and
writes the call counts and self times of the invocation to STATS.json
and its spans to STATS.json.spans.  Pool workers forked by the CLI are not traced.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, attach_qfcool

import qfcool.cli


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    attach_qfcool(tracer)
    tracer.start_tracing()
    try:
        code = qfcool.cli.main(argv)
    finally:
        tracer.stop_tracing()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write(stats_path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
