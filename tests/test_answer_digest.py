"""Smoke test: tools/answer_digest.py runs its toy-size corpora end to end
and prints one digest per workload, the same on every run."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("midscale-mix", "large-fold", "wide-n", "exact-k")


def test_quick_run_prints_one_stable_digest_per_workload(tmp_path):
    outputs = []
    for hash_seed in ("0", "1"):  # answers must not depend on set order
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--quick", "--seeds", "401"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        outputs.append(proc.stdout)
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == [*WORKLOADS, "k-spread"]
    for line in lines:
        assert re.fullmatch(r"\S+ [1-9]\d* [0-9a-f]{64}", line), line
    assert outputs[1] == outputs[0]
