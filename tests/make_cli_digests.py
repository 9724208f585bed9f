"""Write tests/cli_digests.json: the sha256 of stdout and the exit code of
each command-line invocation that ``tests/test_cli_bytes.py`` pins, and
the sha256 of stderr and the exit code of each bad input it pins.

Run it only for a deliberate change of output bytes, and record that
change in CHANGES.md:

    PYTHONPATH=src python tests/make_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

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
    "help": ["--help"],
    **{f"help_{command}": [command, "--help"]
       for command in ("run", "sweep", "threshold", "optimize", "verify")},
}

# Bad input, one invocation per error family, with the text of its config
# file (or None).  The file is written to CONFIG in a fresh working directory,
# so that the path the error message names is the same wherever this runs.
CONFIG = "c.cfg"
BAD_INPUTS = {
    "error_bad_temperature": (["run", *_POINT, "--temperature", "-1"], None),
    "error_missing_required_option": (["run", "--eps-s", "0.4", "--eps-a", "0.8"], None),
    "error_bad_config_value": (["run", "--config", CONFIG],
                               "eps_s = 0.4\neps_a = abc\nphi = 1.2\n"),
    "error_bad_config_choice": (["threshold", "--eps-s", "0.4", "--config", CONFIG],
                                "format = xml\n"),
    "error_malformed_config_line": (["run", "--config", CONFIG], "eps-s 0.4\n"),
    "error_domain_bound": (["run", "--eps-s", "0.8", "--eps-a", "0.4", "--phi", "1.2"], None),
    "error_grid_bound": (["sweep", "--n-eps-a", "1"], None),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of ``qfcool.cli.main(argv)``.

    COLUMNS is fixed because argparse wraps help text to the terminal width.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(list(argv))
    return code, _sha256(out.getvalue())


def run_bad_input(argv: list[str], config: str | None) -> tuple[int, str, str]:
    """Exit code, stdout and sha256 of the stderr of ``main(argv)``, run in a
    fresh working directory that holds ``config`` as CONFIG."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                Path(CONFIG).write_text(config, encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), _sha256(err.getvalue())


def write_digests() -> None:
    doc = {}
    for name, argv in INVOCATIONS.items():
        code, digest = run(argv)
        doc[name] = {"argv": argv, "exit_code": code, "sha256": digest}
    for name, (argv, config) in BAD_INPUTS.items():
        code, _, digest = run_bad_input(argv, config)
        doc[name] = {"argv": argv, "config": config, "exit_code": code, "stderr_sha256": digest}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests()
