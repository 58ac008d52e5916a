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
SEED = 301
# sha256 output digests of seed 301.  exact-collapse changed when the
# horizon search began to emit the list schedule that certifies the
# optimum; the other two match perfbench/BASELINE.md.
PINNED = {
    "exact-collapse": "c99bac18692c0856e1fcc9823559b0820652cc78e96210fa2d7d5495e1319aed",
    "deep-enum": "86afc3f0a6c24e8f6fef706fa73c37d024c7ebc02cbd4788535e6a21e0a237d6",
    "hinted-replay": "6d8f3a38aa4b8eebdaf05b09a3e33c14c0cf6a47646ec8ee24861bb847973851",
}


@pytest.fixture(scope="module")
def bench_runs():
    procs = {
        name: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for name in PINNED
    }
    runs = {}
    try:
        for name, proc in procs.items():
            out, _ = proc.communicate(timeout=600)
            runs[name] = (proc.returncode, out)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_output_digest_is_pinned(bench_runs, name):
    code, out = bench_runs[name]
    assert code == 0, out
    digests = [line.split()[-1] for line in out.splitlines()
               if line.strip().startswith("output digest sha256 ")]
    assert digests == [PINNED[name]], out
