"""svineq benchmark: one workload, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` runs operations for S seconds and prints the end-to-end
metrics, scaled to a reference host speed (see speed.py).  ``--trace 1``
runs a fixed number of operations three times (plain, traced, plain) and
prints the per-layer metrics; the spans go to ``.perfbench_out/``.
Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs each workload in its own process and ends with one JSON object
keyed by workload.  The exit code is 0 when the run completed, whatever
its checks found.
"""

from __future__ import annotations

import os

# One BLAS thread: one client, and no thread pool competing for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SETUP_PROBES = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def blas_threads() -> int | str:
    """Threads of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def provenance(args) -> dict:
    import numpy as np

    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "git unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def set_up(args, workdir: Path):
    """Import the program, build the inputs and warm up: the set-up time."""
    import svineq.cli  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir, args.size == "tiny")
    workload.prepare()
    workload.warmup()
    return workload


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes, from spawn to their first operation.

    Returns (raw, scaled).  Each probe runs reference units right after
    its set-up, while the host is in the same state, and reports them.
    """
    raw, scaled = [], []
    for _ in range(1 if args.size == "tiny" else SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
        t0 = time.time()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, scale = map(float, proc.stdout.split()[-2:])
        raw.append(ready - t0)
        scaled.append((ready - t0) * scale)
    return raw, scaled


class Tally:
    """Operation counts, failures and check errors of a run.

    An input counts toward ``attempted`` and ``failed`` once, however
    often the run repeats it; a repeat whose output differs from the
    first is a check error.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[tuple, str] = {}

    def add(self, outcome) -> None:
        self.errors.extend(outcome.errors)
        first = self.digests.get(outcome.key)
        if first is None:
            self.digests[outcome.key] = outcome.digest
            self.attempted += outcome.ops
            self.failed += outcome.failed
        elif first != outcome.digest:
            self.errors.append(f"{' '.join(map(str, outcome.key))}: "
                               f"rerun output differs ({first} vs {outcome.digest})")


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, pct)."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def run_timed(workload, seconds: float, tally: Tally, ref) -> dict[str, float]:
    """Operations for ``seconds``; each is timed alone and checked after."""
    stamps, durations, counts = [], [], []
    clock = time.perf_counter
    ref.sample()
    deadline = clock() + seconds
    i = 0
    while clock() < deadline or i < workload.cycle:
        ref.maybe_sample()
        t0 = clock()
        raw = workload.op(i)
        t1 = clock()
        stamps.append((t0 + t1) / 2.0)
        durations.append(t1 - t0)
        outcome = workload.check(i, raw)
        counts.append(outcome.ops)
        tally.add(outcome)
        i += 1
    ref.sample()
    scaled = [d * ref.scale(t) for t, d in zip(stamps, durations)]
    print(f"timed: {i} calls, {sum(counts)} ops in {sum(durations):.3f} s of calls, "
          f"{len(ref.durations)} reference units")

    def figures(ds):
        per_op_ms = [1e3 * d / n for d, n in zip(ds, counts)]
        tail_ms, tail_pct = tail(per_op_ms)
        return {
            "ops_per_s": sum(counts) / sum(ds),
            "op_ms_p50": statistics.median(per_op_ms),
            "op_ms_tail": tail_ms,
        }, tail_pct

    unscaled, _ = figures(durations)
    values, tail_pct = figures(scaled)
    print(f"op_ms_tail is p{tail_pct:.2f} of {len(counts)} samples")
    print("unscaled " + " ".join(f"{k}={v!r}" for k, v in unscaled.items()))
    return values


def run_pass(workload, n: int, ref) -> tuple[float, float, list]:
    """Operations 0..n-1 with their checks; returns (raw s, scaled s, outcomes)."""
    clock = time.perf_counter
    stamps, durations, outcomes = [], [], []
    for i in range(n):
        ref.maybe_sample()
        t0 = clock()
        outcomes.append(workload.check(i, workload.op(i)))
        t1 = clock()
        stamps.append((t0 + t1) / 2.0)
        durations.append(t1 - t0)
    ref.sample()
    scaled_s = sum(d * ref.scale(t) for t, d in zip(stamps, durations))
    return sum(durations), scaled_s, outcomes


def run_traced(workload, tally: Tally, out_dir: Path, args, ref) -> dict[str, tuple[float, str]]:
    from tracer import Tracer

    n = workload.trace_ops()
    # Plain passes before and after the traced one, so that drift during
    # the run does not show up as tracing overhead.
    ref.sample()
    _, before_s, plain = run_pass(workload, n, ref)
    tracer = Tracer()
    tracer.install()
    try:
        traced_raw_s, traced_s, traced = run_pass(workload, n, ref)
    finally:
        tracer.uninstall()
    _, after_s, plain_again = run_pass(workload, n, ref)
    # The passes share their keys, so a traced output that differs from
    # the plain one is a rerun error.
    for outcome in plain + traced + plain_again:
        tally.add(outcome)
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    print(f"traced: {n} calls, {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    print(f"numkernel.lapack.share base: trace.wall_s = {traced_raw_s:.6f} s")
    overhead = traced_s / ((before_s + after_s) / 2.0) - 1.0
    return tracer.metrics(sum(o.ops for o in traced), traced_raw_s, overhead)


def run_one(args) -> int:
    from speed import SpeedReference

    spec = load_spec()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = set_up(args, workdir)
        ready = time.time()
        ref = SpeedReference()
        if args.setup_probe:
            for _ in range(5):
                ref.sample()
            print(f"ready {ready!r} {ref.scale(ref.times[2])!r}")
            return 0
        setup_here = time.perf_counter() - _T_START
        print("provenance " + json.dumps(provenance(args), sort_keys=True))
        print(f"workload {workload.name}: {workload.why}")
        tally = Tally()
        if args.trace:
            measured = run_traced(workload, tally, ROOT / ".perfbench_out", args, ref)
            wanted = spec["per_layer"]
        else:
            values = run_timed(workload, args.seconds, tally, ref)
            raw, scaled = probe_setup(args)
            print(f"setup_s probes unscaled {[round(p, 4) for p in raw]}, "
                  f"scaled {[round(p, 4) for p in scaled]}; this process {setup_here:.4f} s")
            values["setup_s"] = statistics.median(scaled)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            measured = {k: (v, units[k]) for k, v in values.items()}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    for line in workload.report_lines():
        print(line)
    for err in tally.errors[:20]:
        print(f"check failed: {err}")
    if len(tally.errors) > 20:
        print(f"check failed: ... {len(tally.errors) - 20} more")
    metrics = {}
    for m in wanted:
        value, unit = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": unit}
        print(f"{m['name']} = {value!r} {unit}")
    print(f"failed_frac = {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints its lines and a summary."""
    results = {}
    for name in (w["name"] for w in load_spec()["workloads"]):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
