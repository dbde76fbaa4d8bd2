"""The pinned CLI jobs print the same bytes whatever the hash seed.

Set and dict iteration order of str keys follows PYTHONHASHSEED, so a
report that leaned on it would differ from process to process.  For the
13 determinism jobs and for the 100 extension-family jobs, each seed
gets one fresh interpreter that runs all of them through ``cli.main``;
both must print the pinned bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_acceptance import (
    DETERMINISM_JOBS,
    EXTENSION_FAMILY_JOBS,
    PINNED_EXTENSION_FAMILY,
    PINNED_STDOUT_SHA256,
)

SRC = Path(__file__).resolve().parent.parent / "src"

JOBS_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from fcrystal import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"hash": hash("fcrystal"), "runs": runs}))
"""


def _run_jobs(seed, jobs=DETERMINISM_JOBS):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", JOBS_SCRIPT, json.dumps(jobs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_determinism_jobs_ignore_the_hash_seed():
    zero, other = _run_jobs(0), _run_jobs(12345)
    assert zero["hash"] != other["hash"], "the hash seed did not reach the interpreter"
    assert len(zero["runs"]) == len(other["runs"]) == len(DETERMINISM_JOBS)
    for argv, pinned, (code0, out0), (code1, out1) in zip(
        DETERMINISM_JOBS, PINNED_STDOUT_SHA256, zero["runs"], other["runs"]
    ):
        assert code0 == code1 == 0, argv
        assert out0 == out1, argv
        assert hashlib.sha256(out0.encode()).hexdigest() == pinned, argv


def test_extension_family_jobs_ignore_the_hash_seed():
    zero, other = _run_jobs(0, EXTENSION_FAMILY_JOBS), _run_jobs(12345, EXTENSION_FAMILY_JOBS)
    assert zero["hash"] != other["hash"], "the hash seed did not reach the interpreter"
    assert len(EXTENSION_FAMILY_JOBS) == len(PINNED_EXTENSION_FAMILY) == 100
    for run in (zero, other):
        got = [(code, hashlib.sha256(out.encode()).hexdigest()) for code, out in run["runs"]]
        assert got == list(PINNED_EXTENSION_FAMILY)
