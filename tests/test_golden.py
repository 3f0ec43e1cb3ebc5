"""Golden traces: sha256 of the paper-table1 trace CSVs at the default dt.

The digests pin every byte ``simulate`` writes, so an engine refactor that
moves a last digit, an event row or a record fails here.  A deliberate
change to the trace must update a digest and say why.
"""

import hashlib

import pytest

from geogami.cli import main

GOLDEN_SHA256 = {
    "cyclic": "be6c218c9240b272f6b05876d2eb05568cce9c10eeb4f73f817947818a3cacc5",
    "pyramid": "ed817ce380b6d9b46d7e9e5b8bf6b5c27d95a22830fbb102e4f89340efa5e583",
    "spindle5": "e9ac2e34c268dae5e903f1a1a1f9a9218d4849a15bbececded4fc3c3db758e1b",
    "spindle10": "a224c2c5d3b3ea6f47e47fb969409dcc6527d3a886f4e7e0500745f1bbb72835",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_paper_table1_trace_bytes(mode, tmp_path, capsys):
    assert main(["simulate", "--preset", "paper-table1", "--mode", mode,
                 "--dt", "1e-3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / f"trace_{mode}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[mode]
