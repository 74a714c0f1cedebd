"""walkwait benchmark: one workload per run, closed loop, one client, one thread.

    python3 perfbench/run.py --workload {decide,curves,verify} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  The inputs come from
``workloads.generate(workload, seed, blocks)``; the program sees only
those.

Plain run (``--trace 0``): warm up with one op per model kind, then make
ROUNDS closed-loop passes over the first blocks of the pool (see
BLOCKS_PER_SECOND).  Each execution works on scenario and model objects
built for it off the clock, so no state is carried from one execution of an
input to the next.  After each op a fixed slice of reference work is timed,
off the op's clock, and each op's time is scaled to the nominal machine
speed by the slices around it (see reference.py); set-up is scaled alike.
``ops_per_s`` is the number of executions over the scaled time spent in
them; each input's latency is its median over the passes.  Set-up is timed
in fresh interpreters before, between and after the passes.  Outputs are
checked against ``oracle`` after the clock stops.  Prints one line per
end-to-end metric, a ``detail`` JSON line with machine info, sample counts,
check verdicts and the unscaled figures, and last the result JSON.

Traced run (``--trace 1``): alternate plain and traced passes over the first
few blocks of the pool for about S seconds (at least one of each).  The
first traced pass gives the per-layer metrics, so its counts repeat exactly
for a seed; the time spent in the ops of each pass gives
``trace.overhead_frac``.  Spans go to
``.bench_out/``.

Exit code 0 on a completed run, also when ops failed their checks (they are
counted); 2 when the program source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up is timed in this many pairs of fresh interpreters (the set-up and
# its reference, see reference.py) before the first timed pass and after
# each pass; the median is reported.
SETUP_PER_GAP = 3
SETUP_TIMEOUT_S = 60
# Timed passes over the same inputs; each input's latency is its median
# over the passes.
ROUNDS = 5
# No further pass starts after this multiple of --seconds, which bounds a
# run's length when the machine is slow.
OVERRUN = 1.5
# Blocks of the pool timed per second of --seconds: the work is fixed for a
# given --seconds, sized so that ROUNDS passes, with their reference slices,
# take 0.6 to 1.0 of that on a 2-vCPU Intel Xeon with Python 3.11 at the
# commit that defined the benchmark.  Per-op cost varies from input to
# input, so many inputs timed a few times each give steadier figures from
# seed to seed than few inputs timed often.
BLOCKS_PER_SECOND = {"decide": 0.16, "curves": 1.4, "verify": 0.45}
# Each op's time is scaled by the reference slices of the ops within this
# many of it in the same pass (see reference.py).
SCALE_HALF_WINDOW = 10
# Blocks of the pool in the traced run's passes.
TRACE_BLOCKS = 2
# glibc malloc settings for the measuring process (mallopt parameter, value).
# By default glibc adapts its mmap threshold to the blocks freed so far, so
# numpy's 0.5 MB Monte Carlo temporaries are sometimes reused from the heap
# and sometimes mapped and page-faulted in afresh: the same verify inputs
# took 0.40 to 0.51 s from one process to the next.  With the thresholds
# fixed above any block the program allocates, they took 0.35 s in every
# process.
MALLOC_PINS = ((-3, 32 << 20),  # M_MMAP_THRESHOLD
               (-1, 64 << 20))  # M_TRIM_THRESHOLD

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_out":
        return "B"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


# ------------------------------------------------------------------ ops


class DecideOp:
    """One policy query: stationary points, then the optimal policy."""

    def __init__(self, ww, spec, _workdir, _index):
        self.ww, self.spec = ww, spec

    def prepare(self):
        self.scenario, self.model = workloads.build(self.ww, self.spec)

    def run(self):
        opt = self.ww.optimizer
        return (opt.find_stationary_points(self.scenario, self.model),
                opt.optimal_policy(self.scenario, self.model))

    @staticmethod
    def output(result):
        points, policy = result
        return ([(p.t_wait, p.kind, p.expected_tt) for p in points],
                (policy.strategy, policy.expected_tt, policy.t_wait))


class CurvesOp:
    """One in-process ``walkwait sweep`` on a generated config file."""

    def __init__(self, ww, spec, workdir, index):
        self.ww = ww
        config = workdir / f"config{index:03d}.json"
        config.write_text(json.dumps(spec["config"]))
        self.csv = workdir / f"sweep{index:03d}.csv"
        self.argv = ["sweep", str(config), "--var", spec["var"],
                     "--from", repr(spec["start"]), "--to", repr(spec["stop"]),
                     "--steps", str(spec["steps"]), "--out", str(self.csv)]
        if spec["var"] == "d1":
            self.argv += ["--tw", repr(spec["tw"])]

    def prepare(self):  # the sweep reads its config file itself
        pass

    def run(self):
        code = self.ww.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"walkwait sweep exited {code}")
        return None

    def output(self, _result):
        return self.csv.read_text()


class VerifyOp:
    """One MC estimate with its analytic expectation."""

    def __init__(self, ww, spec, _workdir, _index):
        self.ww, self.spec = ww, spec
        self.n, self.seed = spec["n"], spec["mc_seed"]

    def prepare(self):
        self.scenario, self.model, self.strategy = workloads.build(self.ww, self.spec)

    def run(self):
        mc = self.ww.mcsim
        return (mc.estimate(self.scenario, self.model, self.strategy, self.n, self.seed),
                mc.analytic_expectation(self.scenario, self.model, self.strategy))

    @staticmethod
    def output(result):
        est, analytic = result
        return (est.mean, est.stderr, est.n, analytic)


OPS = {"decide": DecideOp, "curves": CurvesOp, "verify": VerifyOp}


# ------------------------------------------------------------ measuring


def probe(*args: str) -> float:
    """Seconds printed by one fresh interpreter running probe_setup.py."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), *args],
        cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, blocks: int, repeats: int,
                  discard_first: bool) -> list[tuple[float, float]]:
    """(set-up seconds, reference start-up seconds) from `repeats` pairs of
    fresh interpreters, after one discarded pair that may compile the sources
    if `discard_first`."""
    times = []
    for i in range(repeats + discard_first):
        pair = probe(workload, str(seed), str(blocks)), probe("reference")
        if i or not discard_first:
            times.append(pair)
    return times


class Pass:
    """Executions of ops, with each one's latency and checkable output, and
    the time of the reference slice run after each op when one is given."""

    def __init__(self, reference_slice=None):
        self.latency = []
        self.slice_s = []
        self.records = []  # (pool index, output or None, error or None)
        self.reference_slice = reference_slice

    def execute(self, ops, index, prepare=True):
        op = ops[index]
        t0 = time.perf_counter()
        try:
            if prepare:
                op.prepare()  # off the clock
            t0 = time.perf_counter()
            result = op.run()
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.latency.append(t1 - t0)
        if self.reference_slice is not None:
            self.reference_slice()
            self.slice_s.append(time.perf_counter() - t1)
        output = None
        if error is None:
            try:
                output = op.output(result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        self.records.append((index, output, error))


def run_pass(ops, prepare=True, reference_slice=None) -> tuple[Pass, float]:
    """One pass over `ops`; with `prepare` false, each op must have been
    prepared for it beforehand."""
    p = Pass(reference_slice)
    start = time.perf_counter()
    for i in range(len(ops)):
        p.execute(ops, i, prepare)
    return p, time.perf_counter() - start


def check(workload: str, pool, passes) -> dict:
    """Verdict per execution, off the clock.  Each distinct output of a pool
    input is checked once; repeats with an identical output reuse it."""
    import oracle

    checker = oracle.CHECKERS[workload]
    cache = {}
    tally = {}
    examples = {}
    for p in passes:
        for index, output, error in p.records:
            if error is not None:
                status, detail = "error", error
            else:
                key = (index, repr(output))
                if key not in cache:
                    try:
                        cache[key] = checker(pool[index], output)
                    except Exception as exc:
                        cache[key] = ("wrong", f"checker raised {type(exc).__name__}: {exc}")
                status, detail = cache[key]
            tally[status] = tally.get(status, 0) + 1
            if status != "ok" and len(examples) < 10:
                examples.setdefault(f"{status}:{index}", detail)
    attempted = sum(tally.values())
    return {
        "attempted": attempted,
        "failed": attempted - tally.get("ok", 0),
        "correct": not tally.get("wrong") and not tally.get("error"),
        "statuses": tally,
        "failing_inputs": examples,
    }


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def pin_malloc() -> bool:
    """Apply MALLOC_PINS; False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_PINS)


def machine_info() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ----------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walkwait" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'walkwait'} not found", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one thread, pinned before numpy loads
        os.environ[var] = "1"
    malloc_pinned = pin_malloc()
    sys.path.insert(0, str(SRC))

    import walkwait

    if not Path(walkwait.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported walkwait from {walkwait.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import walkwait.cli  # noqa: F401 - the package does not import it

    blocks = TRACE_BLOCKS if args.trace else timed_blocks(args)
    pool = workloads.generate(args.workload, args.seed, blocks)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = [OPS[args.workload](walkwait, spec, workdir, i) for i, spec in enumerate(pool)]
        kinds = {}
        for i, spec in enumerate(pool):
            kinds.setdefault(spec.get("config", spec)["model"]["kind"], i)
        for i in kinds.values():  # warm-up: one op per model kind
            Pass().execute(ops, i)
        if args.trace:
            result = traced_run(args, walkwait, pool, ops)
        else:
            result = plain_run(args, pool, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["detail"]["machine"] = dict(machine_info(), malloc_pinned=malloc_pinned)
    result["detail"].update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                            trace=args.trace, pool_size=len(pool),
                            clients=1, loop="closed")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(final, detail=result["detail"]), indent=1, sort_keys=True))
    print(json.dumps(final))
    return 0


def timed_blocks(args) -> int:
    return max(1, round(args.seconds * BLOCKS_PER_SECOND[args.workload]))


def timing_figures(setup_s, latency_s) -> tuple[dict, list[float]]:
    """The timing metrics from set-up samples and per-pass lists of op
    seconds, and each input's latency in ms, its median over the passes."""
    per_input_ms = [statistics.median(x) * 1000.0 for x in zip(*latency_s)]
    executions = sum(len(lat) for lat in latency_s)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": executions / sum(sum(lat) for lat in latency_s),
        "latency_p50_ms": statistics.median(per_input_ms),
        "latency_p90_ms": percentile(per_input_ms, 90) if len(per_input_ms) >= 2 else per_input_ms[0],
    }, per_input_ms


def plain_run(args, pool, ops) -> dict:
    blocks = timed_blocks(args)
    slice_fn, nominal_s = reference.work(args.workload)
    slice_fn()  # warm
    setup = measure_setup(args.workload, args.seed, blocks, SETUP_PER_GAP, True)
    passes, elapsed = [], 0.0
    # up to ROUNDS passes; at least two, and none started after OVERRUN * seconds
    while len(passes) < ROUNDS and (len(passes) < 2 or elapsed < OVERRUN * args.seconds):
        p, t = run_pass(ops, reference_slice=slice_fn)
        passes.append(p)
        elapsed += t
        setup += measure_setup(args.workload, args.seed, blocks, SETUP_PER_GAP, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = check(args.workload, pool, passes)
    factors = [reference.scale_factors(p.slice_s, nominal_s, SCALE_HALF_WINDOW) for p in passes]
    values, per_input_ms = timing_figures(
        [s * reference.NOMINAL_S["import"] / ref for s, ref in setup],
        [[t * f for t, f in zip(p.latency, fs)] for p, fs in zip(passes, factors)])
    unscaled, _ = timing_figures([s for s, _ in setup], [p.latency for p in passes])
    n = len(per_input_ms)
    values.update(ok_frac=1.0 - verdict["failed"] / verdict["attempted"],
                  peak_rss_mb=peak_rss_mb)
    all_factors = [f for fs in factors for f in fs]
    detail = {
        "checks": {k: verdict[k] for k in ("statuses", "failing_inputs")},
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "inputs_timed": n,
        "rounds": len(passes),
        "samples_beyond_p90": sum(x > values["latency_p90_ms"] for x in per_input_ms),
        "timed_s": elapsed,
        "busy_s": sum(sum(p.latency) for p in passes),
        "reference": reference.KIND[args.workload],
        "speed_scale": {"median": statistics.median(all_factors),
                        "min": min(all_factors), "max": max(all_factors)},
        "unscaled": unscaled,
        "setup_samples_s": setup,
    }
    return {
        "correct": verdict["correct"], "attempted": verdict["attempted"],
        "failed": verdict["failed"], "detail": detail,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def traced_run(args, walkwait, pool, ops) -> dict:
    import tracer

    passes, plain_t, traced_t = [], [], []
    first = None
    start = time.perf_counter()
    while not traced_t or time.perf_counter() - start < args.seconds:
        p, _ = run_pass(ops)
        passes.append(p)
        plain_t.append(sum(p.latency))
        for op in ops:  # built before tracing, so the spans hold the ops alone
            op.prepare()
        tr = tracer.Tracer()
        tr.install(walkwait)
        try:
            p, _ = run_pass(ops, prepare=False)
        finally:
            tr.uninstall()
        passes.append(p)
        traced_t.append(sum(p.latency))
        if first is None:
            first = tr
    verdict = check(args.workload, pool, passes)
    values = first.metrics()
    values["trace.overhead_frac"] = 1.0 - statistics.median(plain_t) / statistics.median(traced_t)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    first.save(spans)
    detail = {
        "checks": {k: verdict[k] for k in ("statuses", "failing_inputs")},
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "plain_busy_s": plain_t,
        "traced_busy_s": traced_t,
        "spans": len(first.start),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return {
        "correct": verdict["correct"], "attempted": verdict["attempted"],
        "failed": verdict["failed"], "detail": detail,
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
