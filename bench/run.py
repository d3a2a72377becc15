"""utsf benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed makes every input (``bench/workloads.py``
writes them under ``.bench_run/``); the package is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (median of several set-ups), latency of one loop operation
(pretrain step, finetune step or forecast request) as median and p90,
windows per second and peak RSS. Times are scaled to a reference host
speed measured inside the run (``bench/hostspeed.py``); the raw times are
saved too. Seeded quality figures (final loss, eval MSE) are printed but not
gated: they vary with each seed's data.

``--trace 1`` gives the per-layer metrics instead, as raw times. It runs
half the time untraced, then the same number of operations with every layer
wrapped by ``bench/tracing.py``; the ratio of the two wall times is the
tracing overhead. Spans go to ``.bench_run/<workload>-s<seed>-spans.csv``.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``. A failed operation or output check sets ``correct`` to false
and the exit code to 1; a run that cannot start exits 2 without a result.
"""

import os

# BLAS reads its thread count when numpy is first imported, so pin it first.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 5      # setup_s is the median of this many set-ups
SETUP_KERNEL_SAMPLES = 10  # host-speed samples before each set-up
WARMUP_OPS = 3         # run before timing starts, so lazy state is built
MAX_FAILED_OPS = 10    # stop the loop early past this many failed operations

END_TO_END_UNITS = {"setup_s": "s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
                    "windows_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> str:
    """Ask the loaded OpenBLAS for its thread count (Linux only)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": blas_threads(), "blas_threads_env": BLAS_THREADS,
            "nproc": os.cpu_count(), "commit": git_commit()}


class Runner:
    """Drives one workload: prep, timed set-ups, warm-up, the closed loop."""

    def __init__(self, work, tracer):
        from hostspeed import HostSpeed

        self.work = work
        self.tracer = tracer
        self.speed = HostSpeed()        # sampled after every operation
        self.setup_speed = HostSpeed()  # sampled around set-ups, whose time it scales
        self.tracing = False
        self.ops = 0
        self.failed_ops = 0
        work.rooted = self.rooted

    def rooted(self, name, ident, fn, *args):
        if self.tracing:
            return self.tracer.root(name, ident, fn, *args)
        return fn(*args)

    def setups(self, repeats: int) -> list:
        times = []
        for r in range(repeats):
            for _ in range(SETUP_KERNEL_SAMPLES):
                self.setup_speed.sample()
            t0 = time.perf_counter()
            self.rooted("bench.setup", r, self.work.setup)
            times.append(time.perf_counter() - t0)
        return times

    def one_op(self) -> float | None:
        i = self.ops
        self.ops += 1
        t0 = time.perf_counter()
        try:
            self.rooted("bench.op", i, self.work.op, i)
        except Exception:  # a failed operation is counted, reported and skipped
            self.failed_ops += 1
            traceback.print_exc(file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        self.work.after_op(i)
        self.speed.sample()
        return dt

    def loop(self, seconds: float, min_ops: int) -> list:
        """Operations until ``seconds`` passed and ``min_ops`` succeeded,
        ending on a multiple of the workload's period."""
        latencies = []
        deadline = time.perf_counter() + seconds
        while self.failed_ops <= MAX_FAILED_OPS:
            dt = self.one_op()
            if dt is not None:
                latencies.append(dt)
            if (self.ops % self.work.period == 0 and len(latencies) >= min_ops
                    and time.perf_counter() >= deadline):
                break
        return latencies

    def counted(self, n: int) -> float:
        """Wall time of exactly ``n`` operations."""
        t0 = time.perf_counter()
        for _ in range(n):
            self.one_op()
        return time.perf_counter() - t0


def end_to_end(work, setup_times, latencies, setup_scale: float, scale: float) -> tuple[dict, dict]:
    """Set-up times are multiplied by ``setup_scale``, loop times by ``scale``
    (see bench/hostspeed.py)."""
    ms = [1000.0 * t for t in latencies]
    values = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "latency_ms_p50": statistics.median(ms) * scale,
        "latency_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8] * scale,
        "windows_per_s": work.windows_per_s(latencies) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup_times), "latency_ms_p50": len(ms), "latency_ms_p90": len(ms),
               "windows_per_s": work.window_count(latencies)}
    return values, samples


def layer_metrics(tracer, overhead: float) -> dict:
    from tracing import REPORTED_OPS

    inside, calls, n_ops = tracer.rollup("bench.op")

    def per_op(name):
        return 1000.0 * inside.get(name, 0.0) / n_ops

    def per_call(name):
        n, seconds = calls.get(name, (0, 0.0))
        return 1000.0 * seconds / n if n else 0.0

    def per_op_count(key):
        return tracer.counts.get(("bench.op", key), 0.0) / n_ops

    m = {}
    for op in REPORTED_OPS:
        m[f"tensor.fwd_ms.{op}"] = (per_op(f"tensor.fwd.{op}"), "ms")
        m[f"tensor.vjp_ms.{op}"] = (per_op(f"tensor.vjp.{op}"), "ms")
    m["tensor.backward_ms"] = (per_op("tensor.backward"), "ms")
    m["tensor.nodes_per_step"] = (per_op_count("tensor.nodes"), "count")
    m["tensor.out_mb_per_step"] = (per_op_count("tensor.out_bytes") / 1e6, "MB")
    m["model.build_ms"] = (per_call("model.build"), "ms")
    for part in ("embed", "backbone", "merge", "split", "head"):
        m[f"model.{part}_ms"] = (per_op(f"model.{part}"), "ms")
    produced = per_op_count("training.grad_produced")
    m["training.adam_ms"] = (per_op("training.adam"), "ms")
    m["training.adam_scalars_per_step"] = (per_op_count("training.adam_scalars"), "count")
    m["training.grad_useful_ratio"] = (per_op_count("training.grad_useful") / produced if produced else 0.0,
                                       "ratio")
    m["training.eval_window_ms"] = (per_call("training.eval_window"), "ms")
    m["training.ckpt_load_ms"] = (per_call("training.ckpt_load"), "ms")
    m["training.ckpt_save_ms"] = (per_call("training.ckpt_save"), "ms")
    m["data.load_csv_ms"] = (per_call("data.load_csv"), "ms")
    csv_rows = sum(v for (_, k), v in tracer.counts.items() if k == "data.csv_rows")
    csv_seconds = calls.get("data.load_csv", (0, 0.0))[1]
    m["data.csv_rows_per_s"] = (csv_rows / csv_seconds if csv_seconds else 0.0, "1/s")
    m["data.sample_ms"] = (per_op("data.sample"), "ms")
    m["data.build_model_input_ms"] = (per_op("data.build_model_input"), "ms")
    m["cli.config_ms"] = (per_op("cli.config"), "ms")
    m["cli.write_ms"] = (per_op("cli.write"), "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def measure(runner, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced: prep, timed set-ups, warm-up, then the closed loop.
    Returns metrics, sample counts and the raw (unscaled) timings."""
    work = runner.work
    work.prep()
    setup_times = runner.setups(SETUP_REPEATS)
    runner.counted(WARMUP_OPS)
    latencies = runner.loop(seconds, work.min_ops)
    setup_scale, scale = runner.setup_speed.scale(), runner.speed.scale()
    values, samples = end_to_end(work, setup_times, latencies, setup_scale, scale)
    raw = {"host_scale": scale, "kernel_ms": runner.speed.kernel_ms(),
           "kernel_samples": len(runner.speed.samples), "setup_host_scale": setup_scale,
           "setup_s": setup_times, "latency_s": latencies}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, samples, raw


def measure_traced(runner, tracing, seconds: float) -> tuple[dict, dict]:
    """Traced prep and set-up, then half the time untraced and the same
    number of operations traced; the ratio of their wall times, each divided
    by the host-speed kernel's median in that half, is the overhead."""
    work = runner.work

    def traced(fn, *args):
        uninstall = tracing.install(runner.tracer)
        runner.tracing = True
        try:
            return fn(*args)
        finally:
            runner.tracing = False
            uninstall()

    def prep_and_setup():
        runner.rooted("bench.prep", 0, work.prep)
        runner.setups(1)

    traced(prep_and_setup)
    runner.loop(0.0, WARMUP_OPS)  # ends on a period boundary, so both halves run equal evals
    first, k0 = runner.ops, len(runner.speed.samples)
    t0 = time.perf_counter()
    runner.loop(seconds / 2, max(work.period, work.min_ops // 2))
    untraced_s = time.perf_counter() - t0
    k1 = len(runner.speed.samples)
    traced_s = traced(runner.counted, runner.ops - first)
    kernel = runner.speed.samples
    overhead = (traced_s / statistics.median(kernel[k1:])) / (untraced_s / statistics.median(kernel[k0:k1]))
    return layer_metrics(runner.tracer, overhead), {"trace.overhead_ratio": runner.ops - first}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "utsf" / "__init__.py").is_file():
        print(f"error: no utsf package at {SRC / 'utsf'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}' (have {sorted(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}"
    directory = RUN_DIR / tag
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    tracer = tracing.Tracer()
    work = workloads.WORKLOADS[args.workload](directory, args.seed)
    runner = Runner(work, tracer)
    try:
        if args.trace:
            metrics, samples = measure_traced(runner, tracing, args.seconds)
            quality, raw = {}, {}
        else:
            metrics, samples, raw = measure(runner, args.seconds)
            quality = work.quality()
        checks = work.checks()
    except Exception:  # nothing to report: the workload could not run
        traceback.print_exc(file=sys.stderr)
        print(f"error: workload '{args.workload}' did not complete", file=sys.stderr)
        return 2

    attempted = runner.ops + work.extra_attempted() + len(checks)
    failed = runner.failed_ops + sum(not ok for _, ok, _ in checks)
    env = environment()
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"{name:40s} {value:14.6g} {unit}" + (f"  (n={n})" if n is not None else ""))
    if raw:
        print(f"{'host.kernel_ms':40s} {raw['kernel_ms']:14.6g} ms  (n={raw['kernel_samples']}; "
              f"times above are raw times x {raw['host_scale']:.4f}, "
              f"setup_s x {raw['setup_host_scale']:.4f})")
    for name, value in quality.items():
        print(f"{name:40s} {value:14.6g} mse  (seeded, not gated)")
    print(f"{'failed_ratio':40s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    print(json.dumps({"env": env}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, samples=samples, quality=quality,
                  raw=raw,
                  checks=[{"name": c, "ok": ok, "detail": d} for c, ok, d in checks])
    (RUN_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        tracer.write_csv(RUN_DIR / f"{tag}-spans.csv")
    shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
