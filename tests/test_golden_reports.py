"""Golden CLI reports: the exact commands on every catalog instance, at
fixed exact h and c, must print the recorded reports.  Each report is
compared by the SHA-256 digest of its JSON with the timing field wall_ms
removed, together with its exit code.

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


def report_digest(tmp_dir, name, command):
    """'exit code:sha256' of the report of command on instance name."""
    td = catalog.INSTANCES[name]()
    path = Path(tmp_dir) / f"{name}.json"
    path.write_text(json.dumps({
        "a": [list(row) for row in td.a], "theta_hat": list(td.theta_hat),
        "params": {"hbar": "1/3", "c": ["1/5"] * td.d}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[command], str(path)])
    report = json.loads(out.getvalue())
    del report["wall_ms"]
    text = json.dumps(report, indent=2, sort_keys=True)
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()}"


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("name", list(catalog.INSTANCES))
def test_report_matches_golden_digest(name, command, tmp_path):
    golden = json.loads(DATA.read_text())
    assert report_digest(tmp_path, name, command) == \
        golden[f"{name} {command}"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name} {command}": report_digest(tmp, name, command)
                   for name in catalog.INSTANCES for command in COMMANDS}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
