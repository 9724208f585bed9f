"""Write tests/cli_digests.json: the sha256 of stdout and the exit code of
each command-line invocation that ``tests/test_cli_bytes.py`` pins.

Run it only for a deliberate change of output bytes, and record that
change in CHANGES.md:

    PYTHONPATH=src python tests/make_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qfcool.cli import main

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

_POINT = ["--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.2"]
_WORKING_POINT = ["--eps-s", "0.4", "--phi", "1.2"]
_FORMATS = ("json", "csv")

INVOCATIONS = {
    **{f"run_{fmt}{suffix}": ["run", *_POINT, "--format", fmt, *flags]
       for fmt in _FORMATS for suffix, flags in (("", []), ("_verify", ["--verify"]))},
    **{f"threshold_{fmt}": ["threshold", "--eps-s", "0.4", "--format", fmt] for fmt in _FORMATS},
    **{f"optimize_{objective}_{fmt}": ["optimize", "--objective", objective, *_WORKING_POINT,
                                       "--format", fmt]
       for objective in ("cop", "eta", "chi") for fmt in _FORMATS},
    "sweep_json": ["sweep", "--format", "json"],
    "landscape_json": ["sweep", "--landscape", "--format", "json"],
    "verify_table": ["verify"],
    **{f"verify_{fmt}": ["verify", "--format", fmt] for fmt in _FORMATS},
    "verify_grid7_t2.3_json": ["verify", "--grid-n", "7", "--discord-stride", "3",
                               "--temperature", "2.3", "--format", "json"],
}


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of ``qfcool.cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def write_digests() -> None:
    doc = {}
    for name, argv in INVOCATIONS.items():
        code, digest = run(argv)
        doc[name] = {"argv": argv, "exit_code": code, "sha256": digest}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests()
