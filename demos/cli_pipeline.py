#!/usr/bin/env python3
"""End-to-end command-line pipeline: generate -> solve -> verify.

Everything runs through the installed `kknapsack` CLI (equivalently
`python3 -m kknapsack.cli`) inside a temporary directory, so this doubles
as a smoke test of the packaging. Each stage's stdout is shown, then the
script audits the artifacts: the generated corpus must be loadable, the
solve output must parse as JSON with a feasible selection, and
verification must report zero failures. Timing lives in the repository's
benchmark, `perfbench/run.py`.

Usage:
  python3 demos/cli_pipeline.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(args, **kw):
    cmd = [sys.executable, "-m", "kknapsack.cli", *args]
    print(f"$ kknapsack {' '.join(args)}")
    proc = subprocess.run(cmd, capture_output=True, text=True, **kw)
    if proc.stdout:
        print(proc.stdout.rstrip())
    if proc.returncode != 0:
        print(proc.stderr.rstrip())
        raise SystemExit(f"stage failed with exit code {proc.returncode}")
    print()
    return proc


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        corpus = tmpdir / "corpus"

        print("=" * 64)
        print("stage 1: generate a seeded corpus")
        print("=" * 64)
        run([
            "generate", "--out-dir", str(corpus), "--distribution", "uniform",
            "--count", "4", "--n", "12", "--cardinality", "3", "--seed", "11",
            "--weight-max", "30",
        ])
        manifest = json.loads((corpus / "manifest.json").read_text())
        files = sorted(p.name for p in corpus.glob("instance_*.json"))
        print(f"corpus files: {files}")
        ok &= len(manifest["instances"]) == 4 and len(files) == 4

        print("=" * 64)
        print("stage 2: solve one instance at eps = 1/4")
        print("=" * 64)
        target = corpus / files[0]
        proc = run(["solve", "--input", str(target), "--epsilon", "1/4"])
        out = json.loads(proc.stdout)
        print(f"parsed solve output: value={out['value']} "
              f"weight={out['weight']} items={out['items']}")
        ok &= set(out) == {
            "value", "weight", "count", "items", "epsilon_user", "elapsed_ms"
        }
        ok &= out["count"] == len(out["items"]) <= 3

        print("=" * 64)
        print("stage 3: verify the whole corpus against the exact oracle")
        print("=" * 64)
        proc = run([
            "verify", "--input", str(corpus), "--epsilon", "1/4",
            "--oracle", "brute",
        ])
        lines = proc.stdout.strip().splitlines()
        ok &= all("PASS" in ln for ln in lines[:-1])
        ok &= "0 failure(s)" in lines[-1]

    print()
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
