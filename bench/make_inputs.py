"""Make the benchmark's stored input pulses anew and compare them byte for byte.

The closed-system (``pulse_se.csv``) and robust (``pulse_ddme.csv``) pulses of
the three stock tasks take seconds of Krotov iterations to make, so the
benchmark reads them from ``bench/inputs/<task>/``.  This script runs
``ddcontrol optimize`` for each task from this checkout's ``src/`` into
``bench/out/inputs/<task>/`` and checks that the pulse files it writes are
identical to the stored ones.  Run from the repository root:

    python3 bench/make_inputs.py

Exit status 0 means every stored file was reproduced exactly.  After a
change that alters the pulses on purpose, copy the new files from
``bench/out/inputs/`` over ``bench/inputs/`` and say so with the change.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
STORED = BENCH / "inputs"
FRESH = BENCH / "out" / "inputs"
TASKS = ("z-gate", "x-gate", "hadamard")
FILES = ("pulse_se.csv", "pulse_ddme.csv")


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    mismatched = []
    for task in TASKS:
        out = FRESH / task
        cmd = [sys.executable, "-m", "ddcontrol.cli", "optimize", "--task", task, "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{task}: ddcontrol optimize exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for name in FILES:
            same = (out / name).read_bytes() == (STORED / task / name).read_bytes()
            print(f"{task}/{name}: {'identical' if same else 'DIFFERS'}")
            if not same:
                mismatched.append(f"{task}/{name}")
    if mismatched:
        print(f"stored inputs differ from a fresh run: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
