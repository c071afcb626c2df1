"""The benchmark's workloads print the reports it records.

Each workload that `BENCHMARK.json` names runs in-process with its argv from
`perfbench/workloads.json` at the reference seed, and its stdout must hash
to the recorded `stdout_sha256` and hold the recorded PASS count, so a
change of report bytes fails here before it fails the benchmark.  Both
files are only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from klrcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
INVOCATIONS = [(workload["name"], inv) for workload in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
               for inv in CONFIG["workloads"][workload["name"]]["invocations"]]


@pytest.mark.parametrize("name, inv", INVOCATIONS,
                         ids=[f"{name}-{inv['argv'][1]}" for name, inv in INVOCATIONS])
def test_workload_stdout_matches_its_digest(name, inv, capsys):
    assert main(inv["argv"] + ["--seed", str(CONFIG["reference_seed"])]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("PASS") for line in out.splitlines()) == inv["pass_lines"]
    assert hashlib.sha256(out.encode()).hexdigest() == inv["stdout_sha256"]
