"""Benchmark for primeframes: one workload per run, outputs checked.

    python3 bench/run.py --workload search --seed 1 --seconds 15 --trace 0

Workloads: search, factor, transform_stream (see bench/README.md).  The
run builds its inputs from --seed, times whole cycles of ops until the
ops have taken --seconds (and any once-per-run ops are done), checks
every op's output outside the timed span, and prints each metric with
its unit.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Metric names and units
come from BENCHMARK.json at the repository root.

Times are scaled to a reference speed (see Reference), because the same
work can take up to twice as long on a shared host from one minute to the
next.

Everything runs in this one process, BLAS pinned to one thread; the CLI
is driven in-process through primeframes.cli.main.  A result file with
the environment and the unscaled times goes to .bench_out/, and a traced
run also writes its spans there.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WORKLOADS = ("search", "factor", "transform_stream")
# The reference loop's mean time on a quiet 2-CPU x86-64 host (Xeon, 2 GHz),
# and how much op time passes between two of its samples.
REF_NOMINAL_S = 0.003
REF_EVERY_S = 0.05
REF_WINDOW = 3


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_library():
    """Import numpy, primeframes and the benchmark's modules."""
    for path in (os.path.join(ROOT, "src"), BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy
    import primeframes
    import tracer
    import workloads
    return numpy, primeframes, tracer, workloads


def make_workload(wl, name, tr, seed, workdir, tiny):
    if name == "search":
        return wl.Search(tr, seed, wl.SEARCH_TINY if tiny else wl.SEARCH_FULL)
    if name == "factor":
        return wl.Factor(tr, seed, workdir,
                         wl.FACTOR_TINY if tiny else wl.FACTOR_FULL)
    return wl.TransformStream(tr, seed,
                              wl.TRANSFORM_TINY if tiny else wl.TRANSFORM_FULL)


def trace_overhead(np, lat, keys, traced) -> float:
    """Gap between traced and untraced ops/s over op kinds run both ways:
    per kind the median latency of each mode, weighted by the kind's count."""
    by_key = {}
    for t, key, on in zip(lat, keys, traced):
        by_key.setdefault(key, ([], []))[0 if on else 1].append(t)
    on_s = off_s = 0.0
    for traced_lat, plain_lat in by_key.values():
        if traced_lat and plain_lat:
            count = len(traced_lat) + len(plain_lat)
            on_s += count * float(np.median(traced_lat))
            off_s += count * float(np.median(plain_lat))
    return 1.0 - off_s / on_s if on_s else 0.0


class Reference:
    """A fixed loop of interpreter work, small numpy calls and one 2^16-point
    FFT, independent of primeframes, timed between ops.

    On a shared host the same work can take up to twice as long from one
    second or minute to the next.  An op's time scaled by REF_NOMINAL_S
    over the median of the reference samples taken around it reads as it
    would at the reference speed, so runs made in different phases of the
    host's load compare."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((3, 12)) + 0j
        self.signal = rng.standard_normal(1 << 16) + 0j
        self.samples = []
        self.sample()  # the first call also plans the FFT: not a sample
        self.samples.clear()

    def sample(self):
        np = self.np
        t0 = perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        for _ in range(50):
            np.linalg.norm(self.small @ self.small.conj().T)
        np.fft.fft(self.signal)
        self.samples.append(perf_counter() - t0)

    def scales(self, at):
        """Per op, REF_NOMINAL_S over the median of the REF_WINDOW samples
        before and the REF_WINDOW samples after it; ``at`` holds the number
        of samples taken before each op.  The median ignores the odd
        sample that an interrupt stretches to several times the others."""
        np = self.np
        n = len(self.samples)
        medians = [np.median(self.samples[max(0, a - REF_WINDOW):
                                          max(1, min(n, a + REF_WINDOW))])
                   for a in range(n + 1)]
        return REF_NOMINAL_S / np.asarray(medians)[np.asarray(at)]


def run_op(wl, tr, op, on: bool):
    """Time one op, then check its output outside the timed span.

    Returns the latency (the deadline itself for a miss), whether the op
    missed its deadline, and an error message or None."""
    span = tr.open("op." + op.key) if on else -1
    out = err = None
    missed = False
    t0 = perf_counter()
    try:
        if op.deadline_s:
            out = wl.with_deadline(op.deadline_s, op.run)
        else:
            out = op.run()
    except wl.DeadlineMiss:
        missed = True
    except Exception as exc:  # an op that raises is a failed op
        err = "%s: %s: %s" % (op.key, type(exc).__name__, exc)
    dt = perf_counter() - t0
    if on:
        tr.close(span)
    if missed:
        if op.miss_expected:
            return op.deadline_s, True, None
        return op.deadline_s, True, "%s: missed its %.1f s deadline" % (
            op.key, op.deadline_s)
    if err is not None:
        return dt, False, err
    span = tr.open("check") if on else -1
    try:
        op.check(out)
    except wl.CheckFailed as exc:
        err = str(exc)
    except Exception as exc:  # malformed output
        err = "%s: check raised %s: %s" % (op.key, type(exc).__name__, exc)
    finally:
        if on:
            tr.close(span)
    return dt, False, err


def measure(name, seed, seconds, trace, tiny=False, import_s=0.0):
    """Set up, run the timed cycles, check every op; return the result."""
    np, _, tracer_mod, wl = load_library()
    tr = tracer_mod.Tracer()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    ref = Reference(np)
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            ref.sample()
            ref.sample()
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            tr.on = trace
            tr.op = -(rep + 1)
            t0 = perf_counter()
            w = make_workload(wl, name, tr, seed, workdir, tiny)
            setup_times.append(perf_counter() - t0)
        ref.sample()

        lat, keys, traced, missed_ops, ref_at = [], [], [], [], []
        failures, unexpected_misses = [], []
        spent = since_ref = 0.0
        k = 0
        while (spent < seconds or w.pending(k) or k == 0
               or (trace and k < 2)):
            for op in w.cycle(k):
                on = trace and (k % 2 == 0 or not op.repeats)
                tr.on = on
                tr.op = len(lat)
                dt, missed, err = run_op(wl, tr, op, on)
                if missed and not op.miss_expected:
                    unexpected_misses.append(op.key)
                if err is not None:
                    failures.append(err)
                lat.append(dt)
                ref_at.append(len(ref.samples))
                missed_ops.append(missed)
                keys.append(op.key)
                traced.append(on)
                spent += dt
                since_ref += dt
                if since_ref >= REF_EVERY_S:
                    ref.sample()
                    since_ref = 0.0
            k += 1
        tr.on = False

        # A missed deadline is wall time, so it is not scaled.
        scales = ref.scales(ref_at)
        # Set-up is scaled by the samples taken during it and just after:
        # the seven set-up samples alone proved too few to be steady.
        setup_scale = REF_NOMINAL_S / float(np.median(ref.samples[:25]))
        unscaled_setup = import_s + float(np.median(setup_times))
        lat_arr = np.asarray(lat)
        scaled = np.where(missed_ops, lat_arr, lat_arr * scales)
        p50, p90 = wl.p50_p90(scaled)
        metrics = {
            "setup_s": unscaled_setup * setup_scale,
            "ops_per_s": len(lat) / float(scaled.sum()),
            "op_ms_p50": p50 * 1e3,
            "op_ms_p90": p90 * 1e3,
        }
        extra = {
            "cycles": k,
            "ref_s": ref.samples,
            "op_ref_at": ref_at,
            "unscaled": {"setup_s": unscaled_setup,
                         "ops_per_s": len(lat) / float(lat_arr.sum()),
                         "op_ms_p50_p90": [t * 1e3 for t in wl.p50_p90(lat)]},
            "setup_runs_s": setup_times,
            "failed_frac": "%d/%d attempted ops" % (len(failures), len(lat)),
            "failures": failures[:20],
            "deadline_misses": ["%d,%d,%d" % miss
                                for miss in getattr(w, "misses", [])],
            "unexpected_misses": unexpected_misses,
            "op_keys": keys, "op_s": lat, "op_traced": traced,
        }
        if trace:
            stats = tr.stats(scales, setup_scale)
            layer = w.layer_metrics(stats)
            layer["frames.check_tight.calls"] = (
                stats["frames.check_tight"]["calls"])
            layer["frames.check_tight.us_p50"] = wl.p50_p90(
                stats["frames.check_tight"]["durations"])[0] * 1e6
            layer["frames.construct.busy_s"] = wl.per_setup_median(
                stats["frames.construct"])
            layer["tetris.stf.ms_p50"] = wl.p50_p90(
                stats["tetris.stf"]["durations"])[0] * 1e3
            layer["trace.overhead_frac"] = trace_overhead(
                np, scaled, keys, traced)
            extra["end_to_end_while_tracing"] = metrics
            metrics = layer
            extra["spans_file"] = os.path.join(
                OUT_DIR, "spans-%s-seed%d.npz" % (name, seed))
            tr.save(extra["spans_file"])
        if hasattr(w, "verdicts"):
            extra["verdicts"] = {key: list(v) if isinstance(v, tuple) else v
                                 for key, v in w.verdicts.items()}
        return {"attempted": len(lat), "failed": len(failures),
                "metrics": metrics, "extra": extra}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment(np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def emit(result, declared: dict) -> dict:
    """Metrics named in BENCHMARK.json, each with its unit.  A declared
    metric that the workload does not measure (its layer is not called
    here) reads 0; a measured metric that is not declared is an error."""
    undeclared = set(result["metrics"]) - set(declared)
    if undeclared:
        raise KeyError("metrics not in BENCHMARK.json: %s"
                       % ", ".join(sorted(undeclared)))
    return {name: {"value": float(result["metrics"].get(name, 0.0)),
                   "unit": unit}
            for name, unit in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        t0 = perf_counter()
        import numpy  # noqa: F401
        numpy_import_s = perf_counter() - t0
        before_library = set(sys.modules)
        np = load_library()[0]
        import_times = [perf_counter() - t0 - numpy_import_s]
        declared = declared_metrics()
    except (ImportError, OSError) as exc:
        print("error: cannot load primeframes or BENCHMARK.json: %s" % exc,
              file=sys.stderr)
        return 2
    # numpy's import is the same for every version of primeframes and the
    # noisiest part of start-up (0.17-0.28 s between runs on one host), so
    # it is recorded on its own and left out of setup_s.  The rest is
    # imported afresh SETUP_REPEATS times, each time with every module that
    # the first import added, and setup_s takes the median.
    added = set(sys.modules) - before_library
    for _ in range(SETUP_REPEATS - 1):
        for name in added:
            sys.modules.pop(name, None)
        t0 = perf_counter()
        np = load_library()[0]
        import_times.append(perf_counter() - t0)
    import_s = float(np.median(import_times))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = emit(result, declared[kind])
    env = environment(np)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics,
              "numpy_import_s": numpy_import_s, "import_s": import_times,
              "attempted": result["attempted"], "failed": result["failed"],
              **result["extra"]}
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    for key, val in env.items():
        print("env %s %s" % (key, val))
    print("ops %d attempted, %s" % (result["attempted"],
                                    result["extra"]["failed_frac"]))
    for miss in result["extra"]["deadline_misses"]:
        print("deadline miss (n, m, size) = (%s)" % miss)
    for failure in result["extra"]["failures"]:
        print("FAILED %s" % failure)
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
