"""cnre benchmark: one workload per process, metrics as JSON on the last line.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload is set up several times (``setup_s`` is the
median), does one untimed unit of work to warm up, then runs its timed work
for at least ``--seconds`` seconds, and the end-to-end metrics are printed.
With ``--trace 1`` the workload runs a fixed amount of work three times
(untraced, traced, untraced), and the per-layer metrics of the traced pass
are printed with the tracing overhead. The spans are written to
``bench_traces/`` in the checkout. A line of details and run environment
precedes the result line. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

# One BLAS thread: on a 2-core box OpenBLAS's second thread spins between the
# many small matmuls of reason_batch, doubling CPU use for about 10% of speed
# on train (and none on explain), and a busy neighbour on the other core then
# shows up as noise. Set before numpy is imported; the details line records it.
# One evaluate worker too: CNRE_THREADS > 1 scores users on a thread pool,
# which would break the one-core load and the tracer's single span stack.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CNRE_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-ups per run: at least SETUPS, and more until SETUP_SECONDS (or the
# run's --seconds, if shorter) have passed, so that a cheap set-up (train's)
# still gets its median over several seconds. They are split between the
# start and the end of the run, so that the median samples the host's speed
# at both ends, as the rates do.
SETUPS = 3
SETUP_SECONDS = 6.0


def _import_cnre():
    """Import cnre from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cnre", "__init__.py")):
        sys.exit(f"bench: no cnre sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import cnre
    if not os.path.abspath(cnre.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: cnre imported from {cnre.__file__}, not {SRC}")


def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(), "cnre_threads": os.environ["CNRE_THREADS"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "git_commit": _git_commit()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(wl):
    """Set ``wl`` up from its inputs alone and return the seconds it took."""
    wl.release()
    gc.collect()
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def setups(wl, least, seconds):
    """Set ``wl`` up at least ``least`` times and for at least ``seconds``."""
    times = []
    while len(times) < least or sum(times) < seconds:
        times.append(setup(wl))
    return times


def timed_run(name, seed, seconds, workdir, size=None):
    import workloads
    wl = workloads.make(name, seed, workdir, size)
    budget = min(SETUP_SECONDS, seconds) / 2
    setup_times = setups(wl, SETUPS - 1, budget)
    # One untimed unit first: the first fit in a process spends seconds in
    # page faults while the allocator grows, and that time varies with the
    # host's memory state.
    warm = wl.run(0)
    out = wl.run(seconds)
    setup_times += setups(wl, 1, budget)
    out.attempted += warm.attempted
    out.failed += warm.failed
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pairs_per_s": (out.pairs_per_s, "1/s"),
        "eval_pairs_per_s": (out.rank_pairs_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.details["setup_runs_s"] = setup_times
    return out, metrics


def traced_run(name, seed, workdir, trace_path, size=None):
    """The same fixed work three times: untraced, traced, untraced.

    The first pass only warms up (the first fit in a process runs slower
    while the allocator grows), so the overhead compares two warm passes.
    """
    import workloads
    from tracer import Tracer
    wl = workloads.make(name, seed, workdir, size)

    def one_pass(tracer=workloads.Untraced):
        seconds = tracer.span("bench.setup", setup, wl)
        out = tracer.span("bench.run", wl.run, 0, tracer)
        return out, seconds + out.work_seconds

    warm, _ = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        out, traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    base, untraced = one_pass()
    tracer.write(trace_path)

    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    out.attempted += warm.attempted + base.attempted
    out.failed += warm.failed + base.failed
    return out, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "explain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_cnre()

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        if args.trace:
            trace_dir = os.path.join(ROOT, "bench_traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
            out, metrics = traced_run(args.workload, args.seed, workdir, trace_path)
        else:
            out, metrics = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "details": out.details, "environment": environment()},
                     sort_keys=True, default=float))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
