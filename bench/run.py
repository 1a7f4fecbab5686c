"""Benchmark of the ddcontrol package.

Runs one named workload for a fixed time and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics (the spans go to ``bench/out/``).  The end-to-end times are
corrected for the host's changing speed (see ``HostReference``).  Run from
the repository root:

    python3 bench/run.py --workload tcorr-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory and nowhere
else, so the benchmark measures the checkout it sits in.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread.  The matrices are 2x2 to 16x16: OpenBLAS's second thread
# doubles the CPU time of an optimization without shortening it, and makes
# the timings noisier.  Set before numpy is imported, so children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("tcorr-sweep", "ensemble-validate", "master-scan")
# Set-ups per run: this process and SETUP_REPEATS - 1 fresh interpreters.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Host reference (see HostReference): the reference time spent just before
# and just after each timed piece, each as a share of that piece; the chunk
# time that times are scaled to, about the chunk's time on an uncontended
# core of the 2.0 GHz Xeon host the bounds were set on; and the percentile
# of chunk times reported as the run's fast speed.
REF_SHARE = 0.125
REF_MIN_S = 0.005
REF_NOMINAL_S = 1.1e-3
REF_FAST_PERCENTILE = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import ddcontrol from this checkout's src/, refusing any other copy."""
    if not (SRC / "ddcontrol" / "__init__.py").is_file():
        raise ImportError(f"no ddcontrol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ddcontrol

    where = Path(ddcontrol.__file__).resolve().parent
    if where != (SRC / "ddcontrol").resolve():
        raise ImportError(f"imported ddcontrol from {where}, expected {SRC / 'ddcontrol'}")


class HostReference:
    """A fixed numpy kernel, timed in short chunks next to every timed piece.

    The host's speed changes by up to 1.9x, in spells from milliseconds to
    minutes, through contention from outside the machine.  A piece's time
    is scaled by ``REF_NOMINAL_S / local``, where ``local`` is the mean
    chunk time of the blocks just before and just after it: the piece's
    time at the host speed where a chunk takes REF_NOMINAL_S.  The kernel
    (small complex matmuls in a Python loop) slows as the program's
    small-matrix code does.  It is no code of the program, so a change to
    the program moves the scaled time in full.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._b = np.linspace(0.0, 1.0, 400 * 4).reshape(400, 2, 2) + 0.5j
        self.chunks = []
        for _ in range(50):  # warm-up, not recorded
            self._kernel()

    def _kernel(self):
        u = self._b
        for _ in range(10):
            u = self._np.matmul(self._b, u) * 0.5

    def block(self, seconds):
        """Time chunks for at least ``seconds``; their chunk times."""
        times = []
        end = time.perf_counter() + max(seconds, REF_MIN_S)
        while True:
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if t1 >= end:
                break
        self.chunks += times
        return times

    def timed(self, fn, expected_s):
        """Run ``fn`` between two blocks: (result, seconds, local chunk time).

        The local chunk time is the mean over both blocks' chunks, so a
        short block weighs little.
        """
        before = self.block(REF_SHARE * expected_s)
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        chunks = before + self.block(REF_SHARE * elapsed)
        return out, elapsed, sum(chunks) / len(chunks)

    def fast(self):
        return float(self._np.percentile(self.chunks, REF_FAST_PERCENTILE))


def child_setup(args):
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(args):
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if tracer:
        with tracer.phase("setup"):
            workload.setup()
    else:
        workload.setup()
    own_setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    host = HostReference()
    after_setup = host.block(REF_SHARE * own_setup_s)
    setups, setup_local = [own_setup_s], [sum(after_setup) / len(after_setup)]
    if not tracer:
        for _ in range(SETUP_REPEATS - 1):
            setup_s, _, ref_s = host.timed(lambda: child_setup(args), own_setup_s)
            setups.append(setup_s)
            setup_local.append(ref_s)

    def call(op):
        """(output, None), or (None, traceback) if the operation raised."""
        try:
            if tracer:
                with tracer.phase("op"), tracer.span(tracing.OP_SPAN):
                    return op.run(), None
            return op.run(), None
        except Exception:  # the run goes on and reports the failure
            return None, traceback.format_exc()

    times = {op.name: [] for op in workload.ops}
    local = {op.name: [] for op in workload.ops}
    attempted = failed = rounds = 0
    unexpected, round_msgs, reported = [], [], set()
    loop_start = time.perf_counter()
    # whole rounds only, and none that would end past the measuring time
    while rounds == 0 or (time.perf_counter() - loop_start) * (rounds + 1) / rounds <= args.seconds:
        outputs = {}
        for op in workload.ops:
            expected_s = times[op.name][-1] if times[op.name] else 0.0
            (out, error), elapsed, ref_s = host.timed(lambda: call(op), expected_s)
            times[op.name].append(elapsed)
            local[op.name].append(ref_s)
            attempted += 1
            if error is not None:
                fails = [("exception", error)]
            else:
                outputs[op.name] = out
                fails = op.check(out)
            if not fails:
                continue
            failed += 1
            expected = op.known_fault is not None and {n for n, _ in fails} == {op.known_fault}
            if not expected:
                unexpected.append(op.name)
            for check, msg in fails:
                if (op.name, check) not in reported:
                    reported.add((op.name, check))
                    tag = "known fault" if expected else "FAILED"
                    print(f"{tag}: {op.name}: {check}: {msg}", file=sys.stderr)
        if len(outputs) == len(workload.ops):
            round_msgs += workload.round_checks(outputs)
        rounds += 1

    for msg in sorted(set(round_msgs)):
        print(f"FAILED round check: {msg}", file=sys.stderr)
    correct = not unexpected and not round_msgs
    work_per_round = sum(op.work for op in workload.ops)
    round_s = [sum(ts[r] for ts in times.values()) for r in range(rounds)]
    scaled_s = [sum(times[n][r] * REF_NOMINAL_S / local[n][r] for n in times) for r in range(rounds)]
    setups_scaled = [s * REF_NOMINAL_S / ref_s for s, ref_s in zip(setups, setup_local)]
    fast = host.fast()
    slowdown = sum(round_s) / sum(scaled_s)

    def fmt(xs):
        return [round(x, 4) for x in xs]

    print(
        f"{args.workload}: {rounds} rounds of {len(workload.ops)} operations, "
        f"{work_per_round} {workload.unit} per round; operation time per round "
        f"{fmt(round_s)} s, scaled {fmt(scaled_s)} s; set-ups {fmt(setups)} s, "
        f"scaled {fmt(setups_scaled)} s; reference chunk {fast * 1e3:.4f} ms fast, "
        f"host slowdown {slowdown:.3f}",
        file=sys.stderr,
    )
    if tracer:
        metrics = tracer.layer_metrics(rounds, fast, slowdown)
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "columns": ["name", "start", "end", "parent", "phase"],
                       "spans": tracer.spans, "metrics": metrics}, fh)
        print(f"spans written to {path}", file=sys.stderr)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "work_per_s": {"value": work_per_round * rounds / sum(scaled_s), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
