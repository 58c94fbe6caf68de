"""Byte-identity of the pinned commands: every line of ``golden/pins.txt``
runs in process and must exit 0 with stdout of the pinned sha256.  CI
checks the same file with each command run as a subprocess."""

import hashlib
from pathlib import Path

import pytest

from hilbert_hodge import cli

PINS = Path(__file__).parent / "golden" / "pins.txt"


def _pins():
    """A ``(sha256, output file, argv)`` param per pinned command, in file order."""
    pins = []
    for line in PINS.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name, *argv = line.split()
            pins.append(pytest.param(digest, name, argv, id=" ".join(argv)))
    return pins


def test_each_pin_writes_its_own_output_file():
    names = [pin.values[1] for pin in _pins()]
    assert names and len(set(names)) == len(names)


@pytest.mark.parametrize("digest, name, argv", _pins())
def test_pinned_command_output(capsys, digest, name, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, name
