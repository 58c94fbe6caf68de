"""Byte-identity of the pinned commands: every line of ``golden/pins.txt``
runs in process and must exit 0 with stdout of the pinned sha256, and each
JSON table reads back as the table of its spec and invariants.  CI checks
the same file with each command run as a subprocess under plain
``python``; ``test_optimized`` shows that ``python -O`` changes nothing."""

import hashlib
import json
from pathlib import Path

import pytest

from hilbert_hodge import cli
from hilbert_hodge.serialize import tables_from_document

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
    if argv[0] == "table" and argv[-2:] == ["--format", "json"]:
        tables_from_document(json.loads(captured.out))
