"""Every pinned command-line invocation reproduces its stdout bytes and exit code,
and every pinned bad input its stderr bytes and exit code.

The pins live in tests/cli_digests.json and are written only by
tests/make_cli_digests.py.  The sweep CSV and the landscape CSV are
pinned by bench/golden.json (tests/test_golden.py), which also pins the
names, counts and verdicts of the verify checks; the verify bytes,
deviations included, are pinned here.
"""

import json

import pytest

from make_cli_digests import BAD_INPUTS, DIGESTS, INVOCATIONS, run, run_bad_input

PINNED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_invocation_is_pinned():
    assert {name: pin["argv"] for name, pin in PINNED.items()} == {
        **INVOCATIONS, **{name: argv for name, (argv, _) in BAD_INPUTS.items()}}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_matches_its_digest(name):
    pin = PINNED[name]
    assert run(pin["argv"]) == (pin["exit_code"], pin["sha256"])


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_stderr_matches_its_digest(name):
    pin = PINNED[name]
    assert run_bad_input(pin["argv"], pin["config"]) == (pin["exit_code"], "", pin["stderr_sha256"])
