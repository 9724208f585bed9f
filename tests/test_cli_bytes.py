"""Every pinned command-line invocation reproduces its stdout bytes and exit code.

The pins live in tests/cli_digests.json and are written only by
tests/make_cli_digests.py.  The sweep CSV, the landscape CSV and the
verify structure are pinned by bench/golden.json (tests/test_golden.py).
"""

import json

import pytest

from make_cli_digests import DIGESTS, INVOCATIONS, run

PINNED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_invocation_is_pinned():
    assert {name: pin["argv"] for name, pin in PINNED.items()} == INVOCATIONS


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_output_matches_its_digest(name):
    pin = PINNED[name]
    assert run(pin["argv"]) == (pin["exit_code"], pin["sha256"])
