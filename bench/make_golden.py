"""Regenerate bench/golden.json from the qfcool in ``src/``.

    python3 bench/make_golden.py

Only for a change that is meant to alter output bytes; such a change
says so in CHANGES.md.  The digests pin the CSV bytes of
``sweep --eps-s 0.4`` and of the 25-phi landscape with its two boundary
files; for ``verify --format json`` only the names, point counts,
tolerances and pass flags are kept (``max_deviation`` is rounding noise).
"""

from __future__ import annotations

import json
import shutil
import time

import checks
from run import OUT_DIR, Runner, golden_outputs


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / "tmp-golden"
    tmp.mkdir(exist_ok=True)
    runner = Runner(tmp, time.monotonic() + 600.0)
    outputs = {}
    try:
        for name in checks.GOLDEN_OPS:
            outputs.update(golden_outputs(runner, name, runner.env))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {"digests": outputs, "verify": outputs.pop("verify")}
    checks.GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
