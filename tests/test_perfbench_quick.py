"""Smoke test: the benchmark harness runs its toy-size corpora end to end,
so an API change in the program cannot silently break it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("midscale-mix", "large-fold", "wide-n", "exact-k")


def test_quick_run_solves_every_workload_correctly(tmp_path):
    # Without --trace the harness writes nothing; its last stdout line is
    # the JSON summary of every workload.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(summary) == sorted(WORKLOADS)
    for name, res in summary.items():
        assert res["correct"] is True, name
        assert res["failed"] == 0, name
        assert res["attempted"] > 0, name
