"""Golden CLI reports: the exact commands on every catalog instance, at
fixed exact h and c, must print the recorded reports.  Each report is
compared by the SHA-256 digest of its JSON with the timing field wall_ms
removed, together with its exit code.  A few commands on instances past
the catalog are recorded too: K4 (d = 3, 16 fixed points) and
a = [[1] * 6] (15 walls, Laurent q-monomials in the iota basis).

    python tests/test_golden_reports.py --write

re-records tests/data/golden_reports.json from the current code."""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hypertoric import catalog
from hypertoric.cli import main

DATA = Path(__file__).parent / "data" / "golden_reports.json"
COMMANDS = {
    "check": ["check"],
    "ring": ["ring"],
    "ring --classical": ["ring", "--classical"],
    "ring --matrices": ["ring", "--matrices"],
    "gkz": ["gkz"],
    "resonance": ["resonance"],
}
# (a, theta_hat) of the instances past the catalog, and their commands
WIDE = {
    "k4": ([[1, 1, 1, 0, 0, 0], [-1, 0, 0, 1, 1, 0], [0, -1, 0, -1, 0, 1]],
           [3, -1, 2, 5, -4, 7]),
    "ones_6": ([[1] * 6], [5, 4, 3, 2, 1, 0]),
}
WIDE_COMMANDS = [("k4", "ring --matrices"), ("ones_6", "ring --matrices"),
                 ("ones_6", "gkz")]


def data_of(name):
    """(a, theta_hat) of a catalog or a WIDE instance."""
    if name in WIDE:
        return WIDE[name]
    td = catalog.INSTANCES[name]()
    return [list(row) for row in td.a], list(td.theta_hat)


def report_digest(tmp_dir, name, command):
    """'exit code:sha256' of the report of command on instance name."""
    a, theta_hat = data_of(name)
    path = Path(tmp_dir) / f"{name}.json"
    path.write_text(json.dumps({
        "a": a, "theta_hat": theta_hat,
        "params": {"hbar": "1/3", "c": ["1/5"] * len(a)}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[command], str(path)])
    report = json.loads(out.getvalue())
    del report["wall_ms"]
    text = json.dumps(report, indent=2, sort_keys=True)
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()}"


CASES = [(name, command) for name in catalog.INSTANCES
         for command in COMMANDS] + WIDE_COMMANDS


@pytest.mark.parametrize("name, command", CASES)
def test_report_matches_golden_digest(name, command, tmp_path):
    golden = json.loads(DATA.read_text())
    assert report_digest(tmp_path, name, command) == \
        golden[f"{name} {command}"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name} {command}": report_digest(tmp, name, command)
                   for name, command in CASES}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
