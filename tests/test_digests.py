"""The byte contract: each command in e2ebench/digests.json prints its recorded CSV.

The commands run in process through ``cli.main``. Standard output is hashed
as it is written and never held, since ``ergomap --points 1201`` prints
51 MB. The digests were recorded on a CPU with AVX-512, and numpy's kernels
round differently without it, so on such a CPU some of them differ.
"""

import contextlib
import hashlib
import json
from pathlib import Path

import pytest

from gadengine import cli

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "e2ebench" / "digests.json").read_text(encoding="utf-8"))


class Sha256Sink:
    """A write-only text stream that feeds the UTF-8 bytes written to it to sha256."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("command", DIGESTS)
def test_command_prints_its_recorded_bytes(command):
    sink = Sha256Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(command.split()) == 0
    assert sink.hash.hexdigest() == DIGESTS[command]
