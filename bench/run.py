"""rncgeo benchmark runner.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 10 --trace 0

One closed-loop client, one process, one thread.  The library is imported
from `src/` next to this directory and driven only through its public
functions.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.  The
line before it records the run environment and notes (failures, sample
counts, raw wall times).

Set-up (import, fixed inputs and documents, the first round's inputs, one
untimed warm-up op per n) is timed in this process and in fresh child
processes; `setup_s` is the median.  The timed loop then runs whole rounds
of ops until `--seconds` have passed and at least MIN_OPS ops are done, so
that the 90th percentile has at least ten samples beyond it.  Each later
round's inputs are generated between rounds, outside the op timings.
`ops_per_s` is ops divided by the summed op time: the answer checks are
the client's think time and are not counted.

Times are reported at reference speed.  On a shared 2-vCPU VM a fixed
pure-Python loop alternated between two speeds 1.5x apart in blocks of 1
to 30 s, which moved raw wall times by 15-25% between runs of the same
inputs.  So after every op the runner times a fixed reference kernel that
does not touch rncgeo, and scales the op's wall time by REF_S over the
median of the nearby reference samples; set-up stages are scaled the same
way.  Ops dominated by big-integer elimination slow down only about half
as much as the kernel does, so those workloads scale by the square root of
that ratio (`Workload.speed_exponent`).  On a machine where the kernel
takes REF_S, the numbers are plain wall times.  Raw wall times are kept in
the notes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from checks import Refused  # noqa: E402
from tracing import Tracer, per_layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 3  # this process plus two fresh children
REF_S = 1e-3  # nominal duration of one reference kernel run
REF_WINDOW = 2  # reference samples on each side of an op


def reference_kernel():
    """Fixed pure-Python work (Fraction sums, big-int products) that does not
    touch rncgeo; its wall time tracks the speed the machine gives this
    process at the moment."""
    total = Fraction(0)
    for i in range(1, 225):
        total += Fraction(i, i * i + 1)
    acc = 1
    for i in range(1, 290):
        acc = acc * (2**89 - i) % (2**127 - 1)
    return total, acc


def reference_sample() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def normalized(latencies, refs, exponent):
    """Each latency scaled to reference speed: times REF_S over the median of
    the reference samples taken around it, raised to `exponent`."""
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        out.append(latency * (REF_S / local) ** exponent)
    return out


def throughput(latencies, refs, exponent) -> float:
    """Ops per second of op time, at reference speed."""
    return len(latencies) / sum(normalized(latencies, refs, exponent))


class Lib:
    """The library's modules, looked up once; calls go through module
    attributes so the traced pass sees its wrappers."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import rncgeo

        origin = Path(rncgeo.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"rncgeo imported from {origin}, not from {SRC}")
        self.pkg = rncgeo
        for name in ("cli", "curves", "generate", "postulation", "projective",
                     "quadrics", "serialize"):
            setattr(self, name, importlib.import_module(f"rncgeo.{name}"))
        # the package re-exports the function `construct` under the module's name
        self.construct_mod = sys.modules["rncgeo.construct"]


class SetupClock:
    """Times set-up in stages, with a reference sample at every stage
    boundary; each stage is scaled to reference speed by the mean of the
    samples on either side."""

    def __init__(self, exponent):
        self.exponent = exponent
        self.raw = 0.0
        self.normalized = 0.0
        self.ref = reference_sample()
        self.start = perf_counter()

    def lap(self) -> None:
        elapsed = perf_counter() - self.start
        ref = reference_sample()
        self.raw += elapsed
        self.normalized += elapsed * (REF_S / ((self.ref + ref) / 2)) ** self.exponent
        self.ref = ref
        self.start = perf_counter()


def set_up(workload_name: str, seed: int, workdir: Path):
    """Everything before the timed loop; returns (library, workload, round 0
    ops, warm-up tally, set-up clock)."""
    clock = SetupClock(WORKLOADS[workload_name].speed_exponent)
    lib = Lib()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](lib, seed, str(workdir))
    clock.lap()
    for _ in workload.prepare():
        clock.lap()
    first = workload.round_ops(0)
    clock.lap()
    warmup = Tally(workload)
    for op in workload.warmup_ops():
        warmup.add(op)
        clock.lap()
    return lib, workload, first, warmup, clock


OK, REFUSED, WRONG = "ok", "refused", "wrong"


def run_op(op, refusal):
    """(latency_s, status, reason, result); failures are never retried.

    REFUSED: the library declared the input not generic (raised `refusal`,
    or the CLI reported a NotGeneric error class).  WRONG: a wrong answer,
    or any other exception, typed or not.  Both count as failed ops; only
    WRONG makes the run's `correct` false."""
    start = perf_counter()
    try:
        result = op.call()
    except refusal as exc:
        return perf_counter() - start, REFUSED, f"raised {exc!r}", None
    except (Exception, SystemExit) as exc:  # argparse exits on a bad argv
        return perf_counter() - start, WRONG, f"raised {exc!r}", None
    latency = perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Refused as exc:
        return latency, REFUSED, str(exc), result
    except Exception as exc:
        return latency, WRONG, f"check raised {exc!r}", result
    return latency, OK if ok else WRONG, "" if ok else "wrong answer", result


class Tally:
    def __init__(self, workload):
        self.refusal = workload.lib.pkg.NotGeneric
        self.exponent = workload.speed_exponent
        self.latencies = []
        self.refs = []  # one reference sample after each op
        self.failures = []  # "status kind label: reason"
        self.wrong = 0
        self.records = []  # (kind, n, label, digest)
        self.results = []

    def add(self, op, keep_results=False):
        latency, status, reason, result = run_op(op, self.refusal)
        self.latencies.append(latency)
        self.refs.append(reference_sample())
        if status != OK:
            self.failures.append(f"{status} {op.kind} {op.label}: {reason}")
            self.wrong += status == WRONG
        digest = op.digest(result) if status == OK else status
        self.records.append((op.kind, op.n, op.label, digest))
        if keep_results:
            self.results.append(result)

    @property
    def normalized(self) -> list:
        return normalized(self.latencies, self.refs, self.exponent)

    @property
    def ops_per_s(self) -> float:
        return throughput(self.latencies, self.refs, self.exponent)


def timed_loop(workload, first_ops, seconds, rounds, keep_first=False) -> Tally:
    """Whole rounds from round 0 until `seconds` passed and MIN_OPS ops ran,
    or exactly `rounds` rounds when given; `keep_first` keeps the answers
    of round 0."""
    tally = Tally(workload)
    start = perf_counter()
    r, ops = 0, first_ops
    while True:
        for op in ops:
            tally.add(op, keep_first and r == 0)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif perf_counter() - start >= seconds and len(tally.latencies) >= MIN_OPS:
            break
        ops = workload.round_ops(r)
    return tally


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = tally.normalized
    attempted = len(lat)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.ops_per_s, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ok_ratio": ((attempted - len(tally.failures)) / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_pass(workload, ops):
    """Run the ops once with every layer wrapped; returns (tracer, tally,
    hit ratio of the per-pencil row cache over the pass).  The cache is
    emptied afterwards, so the untraced rerun of the same ops starts as
    cold as the traced pass did."""
    lib = workload.lib
    cache = getattr(lib.quadrics, "_space_rows_cached", None)
    before = cache.cache_info() if cache is not None else None
    tracer = Tracer()
    tally = Tally(workload)
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            tracer.span(f"op.{op.kind}", tally.add, op, True)
    finally:
        tracer.uninstall()
    ratio = 0.0
    if cache is not None:
        after = cache.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        ratio = hits / (hits + misses) if hits + misses else 0.0
        cache.cache_clear()
    return tracer, tally, ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (self-test, sweeps)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for setup_s)")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        lib, workload, first_ops, warmup, clock = set_up(
            args.workload, args.seed, workdir
        )
        setup_s, raw_setup_s = clock.normalized, clock.raw
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        notes = {
            "setup_refusals": workload.setup_refusals,
            "warmup_failures": warmup.failures,
        }
        correct = not warmup.wrong
        if args.trace:
            # one traced round, then the untraced loop from the same round 0:
            # same inputs for the overhead ratio and the output comparison
            tracer, traced, cache_ratio = traced_pass(workload, first_ops)
            tally = timed_loop(workload, first_ops, args.seconds, args.rounds, keep_first=True)
            if workload.compare_traced_output:
                mismatched = [
                    op.label for op, traced_out, untraced_out
                    in zip(first_ops, traced.results, tally.results)
                    if traced_out != untraced_out
                ]
                notes["traced_output_mismatches"] = mismatched
                correct = correct and not mismatched
            layer = tracer.layer_metrics()
            layer["quadrics.space_rows.cache_hit_ratio"] = cache_ratio
            layer["serialize.bytes_out"] = sum(
                workload.output_bytes(res) for res in traced.results
            )
            layer["work.input_bits_max"] = max(op.input_bits for op in first_ops)
            k = len(first_ops)
            untraced = throughput(tally.latencies[:k], tally.refs[:k], tally.exponent)
            layer["trace.overhead_ratio"] = untraced / traced.ops_per_s - 1
            units = per_layer_metric_names()
            metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            failures = traced.failures + tally.failures
            correct = correct and not traced.wrong
            records = {"traced": traced.records, "timed": tally.records}
            attempted = len(traced.latencies) + len(tally.latencies)
        else:
            tally = timed_loop(workload, first_ops, args.seconds, args.rounds)
            setups = [setup_s] + [
                child_setup_seconds(args.workload, args.seed)
                for _ in range(SETUP_REPEATS - 1)
            ]
            notes["setup_s_samples"] = setups
            metrics = end_to_end(tally, statistics.median(setups))
            failures = tally.failures
            records = {"timed": tally.records}
            attempted = len(tally.latencies)
        notes["raw_wall"] = {
            "setup_s": raw_setup_s,
            "ops_per_s": len(tally.latencies) / sum(tally.latencies),
            "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(tally.latencies, n=10)[8] * 1e3,
            "reference_median_ms": statistics.median(tally.refs) * 1e3,
        }
        notes["failures"] = failures
        notes["latency_p90_samples"] = len(tally.latencies)
        env = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "rncgeo_version": lib.pkg.__version__,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump({"env": env, "notes": notes, "metrics": metrics, "ops": records}, fh)
        print(json.dumps({"env": env, "notes": notes}))
        print(json.dumps({
            "correct": correct and not tally.wrong,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
