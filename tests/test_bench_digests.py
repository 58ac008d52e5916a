"""The benchmark's output digests stay pinned.

Each workload of ``perfbench/run.py`` hashes every ``psched pipeline``
output of its seeded pool.  A change that is meant to keep outputs byte
for byte must keep these digests; a change that alters outputs on purpose
updates the pins here and says why in ``CHANGES.md``.  The pins follow the
current outputs; ``perfbench/BASELINE.md`` records the first measurement
and is not updated, so its digests may differ from these.

The runs are separate processes, started together, so that the
benchmark's fresh import of ``psched`` stays out of the test process.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# sha256 output digests of seeds 301 and 302: two relabelings, so that a
# byte change one of them happens to hide still shows.  exact-collapse
# changed when the horizon search began to emit the list schedule that
# certifies the optimum, hinted-replay when the exact oracle began to
# return that certified schedule as the reference to replay; deep-enum's
# seed-301 pin matches perfbench/BASELINE.md.
PINNED = {
    ("exact-collapse", 301): "c99bac18692c0856e1fcc9823559b0820652cc78e96210fa2d7d5495e1319aed",
    ("deep-enum", 301): "86afc3f0a6c24e8f6fef706fa73c37d024c7ebc02cbd4788535e6a21e0a237d6",
    ("hinted-replay", 301): "5ff61f88d929892a2f95ef8c7a7adb853b9bc1b058a65de6995898a4c83e5813",
    ("exact-collapse", 302): "2b1e165cbb38fcd5a114b57e6d8bcb5c722c4beef0def6848e2e719d656b77d2",
    ("deep-enum", 302): "2b562ae6d06e9768eabc90b3aff50a258e12fd653226f03d8d15b9129ded19c9",
    ("hinted-replay", 302): "e9c95f8e783177718938df410b89b75a02d0aa644f3e5cdd576b0ae210165dc0",
}


@pytest.fixture(scope="module")
def bench_runs():
    procs = {
        (name, seed): subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for name, seed in PINNED
    }
    runs = {}
    try:
        for key, proc in procs.items():
            out, _ = proc.communicate(timeout=600)
            runs[key] = (proc.returncode, out)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return runs


@pytest.mark.parametrize("key", sorted(PINNED), ids=[
    name if seed == 301 else f"{name}-s{seed}" for name, seed in sorted(PINNED)])
def test_benchmark_output_digest_is_pinned(bench_runs, key):
    code, out = bench_runs[key]
    assert code == 0, out
    digests = [line.split()[-1] for line in out.splitlines()
               if line.strip().startswith("output digest sha256 ")]
    assert digests == [PINNED[key]], out
