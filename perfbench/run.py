"""Benchmark of the tbma sampler: one workload per invocation.

    python3 perfbench/run.py --workload paper-sparse --seed 1 --seconds 50 --trace 0

Inputs are generated from ``--seed`` and written to files under
``.perfbench_work/``; the jobs then read only those files.  The untraced
pass (``--trace 0``) repeats the user job until ``--seconds`` have passed
(at least three times) and reports each end-to-end time as the upper
quartile of its samples.  The traced pass (``--trace 1``) alternates an
untraced job with the same job under timing wrappers, asserts that both
produce bit-identical chains, runs a single-threaded BLAS baseline in a
subprocess, and reports per-layer metrics.  Every run prints one metric per
line and, last, a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; spans and
the environment record go to ``.perfbench_out/``.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_UNTRACED_JOBS = 3
PHASE_SECONDS_PER_JOB = 0.75
MAX_PHASE_SAMPLES_PER_JOB = 50
CHILD_TIMEOUT_S = 120.0


def _import_package():
    """Put this checkout's ``src`` first on the path and refuse any other tbma."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import tbma

    if Path(tbma.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"tbma imported from {tbma.__file__}, not from {ROOT / 'src'}")


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return []
    libraries = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        libraries.append({"library": Path(path).name, "threads": threads})
    return libraries


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's BLAS so it is listed)

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _upper_quartile(values) -> float:
    """75th percentile of ``values``, interpolated between samples.

    On a shared virtual machine the CPU's speed switches between a fast and a
    slow state, and a whole run can stay in the slow one.  A run's median
    moves with its share of fast time, which varies from run to run; its upper
    quartile lies in the slow state in nearly every run, so it tracks the
    program's cost about twice as steadily.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs jobs of one workload and counts attempted and failed operations."""

    def __init__(self, name: str, seed: int, work: Path):
        from perfbench import workloads as wl

        self.wl = wl
        self.name = name
        # The sampler workload's settings; None on summarize-wide.
        self.workload = wl.SAMPLER_WORKLOADS.get(name)
        self.seed = seed
        self.work = work
        self.sampler = self.workload is not None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        if self.sampler:
            self.inputs = wl.make_sampler_inputs(self.workload, seed, work)
        else:
            self.inputs = wl.make_summarize_inputs(seed, work)

    def chain_seed(self, job: int) -> int:
        return (self.seed * 1000 + job) % 2**64

    def warm_up(self) -> None:
        """One short job so lazy imports, allocator arenas and BLAS threads
        are ready before timing; a long user run amortises these."""
        if self.sampler:
            from perfbench.tracing import Tracer

            short = self.wl.with_iterations(self.workload, 3)
            self.wl.sampler_job(short, self.inputs, self.chain_seed(999), self._out_dir("warm"), Tracer())

    def _out_dir(self, label: str) -> Path:
        path = self.work / f"out-{label}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def operation(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{label}: {f}" for f in failures]

    def job(self, index: int, tracer, label: str):
        """One user job plus its output checks; None if it raised."""
        from tbma.errors import NumericalError

        out_dir = self._out_dir("jobs")
        try:
            if self.sampler:
                result = self.wl.sampler_job(self.workload, self.inputs, self.chain_seed(index), out_dir, tracer)
            else:
                result = self.wl.summarize_job(self.inputs, out_dir, tracer)
        except NumericalError as exc:
            self.operation(label, [f"NumericalError: {exc}"])
            return None
        failures = self.wl.check_job(result, tracer, self.sampler)
        if not self.sampler:
            failures += self.wl.check_generated(result, self.inputs)
            # The loaded chains were just compared with the generated ones;
            # holding those instead keeps memory flat however many jobs run.
            result.outputs = [generated for _, generated in self.inputs]
        self.operation(label, failures)
        return result

    def replay_setup(self, tracer) -> None:
        if self.sampler:
            self.wl.sampler_setup(self.inputs, tracer)
        else:
            self.wl.summarize_setup(self.inputs, tracer)

    def recovery(self, results) -> None:
        if self.sampler and results:
            outputs = [r.outputs[0] for r in results]
            self.operation("recovery", self.wl.check_recovery(self.workload, outputs, self.inputs.truth_psi))


def untraced_pass(runner: Runner, seconds: float) -> tuple[dict, list]:
    from perfbench.layers import ess_gamma_per_s
    from perfbench.tracing import Tracer

    runner.warm_up()
    records, results = [], []
    phases = {"setup": [], "output": [], "chain.summaries": []}
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_UNTRACED_JOBS or time.perf_counter() < deadline:
        tracer = Tracer()
        result = runner.job(index, tracer, f"job{index}")
        index += 1
        if result is None:
            continue
        records.append(tracer)
        results.append(result)
        # Short phases are run again on their own after each job, so that
        # their samples span the run as the jobs do and add up to a steady mean.
        replays = {"setup": runner.replay_setup, "output": lambda t: runner.wl.write_outputs(result, t)}
        if not runner.sampler:
            replays["chain.summaries"] = lambda t: runner.wl.summarise(result.outputs, t)
        for name, replay in replays.items():
            batch = [tracer.total_s(name)]
            while sum(batch) < PHASE_SECONDS_PER_JOB and len(batch) < MAX_PHASE_SAMPLES_PER_JOB:
                replay_tracer = Tracer()
                replay(replay_tracer)
                batch.append(replay_tracer.total_s(name))
            phases[name] += batch
    runner.recovery(results)
    if not results:
        return {}, records

    metrics = {
        "wall_s": (_upper_quartile(t.total_s("job") for t in records), "s"),
        "setup_s": (_upper_quartile(phases["setup"]), "s"),
        "output_s": (_upper_quartile(phases["output"]), "s"),
    }
    print(f"{runner.name}: {len(records)} jobs, "
          f"{len(phases['setup'])} setup and {len(phases['output'])} output samples")
    if runner.sampler:
        chain_s = _upper_quartile(t.total_s("chain.run_chain") for t in records)
        metrics["sweep_ms"] = (chain_s * 1e3 / runner.workload.iterations, "ms")
        outputs = [r.outputs[0] for r in results]
        print(f"{runner.name} ess_gamma_per_s = {ess_gamma_per_s(records, outputs):.6g} 1/s (per layer, not gated)")
    else:
        stored = sum(out.kept for out in results[-1].outputs)
        metrics["sweep_ms"] = (_upper_quartile(phases["chain.summaries"]) * 1e3 / stored, "ms")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return metrics, records


def _blas1_sweep_ms(args, runner: Runner) -> float:
    """Sweep time of the same chain in a child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--blas1-child", str(runner.work)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        runner.operation("blas1", [f"child exited with {child.returncode}: {child.stderr.strip()[-500:]}"])
        return 0.0
    runner.operation("blas1", [])
    return float(json.loads(child.stdout.strip().splitlines()[-1])["sweep_ms"])


def blas1_child(runner: Runner) -> None:
    from perfbench.tracing import Tracer

    runner.warm_up()
    tracer = Tracer()
    runner.wl.sampler_job(runner.workload, runner.inputs, runner.chain_seed(0), runner._out_dir("blas1"), tracer)
    print(json.dumps({"sweep_ms": tracer.total_s("chain.run_chain") * 1e3 / runner.workload.iterations}))


def traced_pass(args, runner: Runner) -> tuple[dict, list, list]:
    from perfbench import layers
    from perfbench.tracing import Tracer, instrumented

    runner.warm_up()
    plain, traced, results = [], [], []
    absent: list[str] = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        untraced_tracer, traced_tracer = Tracer(), Tracer()
        first = runner.job(index, untraced_tracer, f"untraced{index}")
        with instrumented(traced_tracer) as absent:
            second = runner.job(index, traced_tracer, f"traced{index}")
        if first is not None and second is not None:
            # summarize-wide samples nothing, and its jobs' loaded traces are
            # already checked against the generated chains.
            if runner.sampler:
                diffs = [d for a, b in zip(first.outputs, second.outputs) for d in runner.wl.output_differences(a, b)]
                runner.operation(f"identity{index}", [f"traced chain differs in {diffs}"] if diffs else [])
            plain.append(untraced_tracer)
            traced.append(traced_tracer)
            # The traced job's own outputs, so that its byte counts pair with
            # the traced spans' write and load times.
            results.append(second)
        index += 1
    runner.recovery(results)
    if not results:
        return {}, traced, absent
    blas1 = _blas1_sweep_ms(args, runner) if runner.sampler else 0.0
    metrics = layers.layer_metrics(runner, plain, traced, results, blas1, absent)
    return metrics, traced, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas1-child", dest="blas1_child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import the tbma package of this checkout: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    if args.blas1_child:
        blas1_child(Runner(args.workload, args.seed, Path(args.blas1_child) / "blas1"))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics, tracers, absent = traced_pass(args, runner)
        else:
            metrics, tracers = untraced_pass(runner, args.seconds)
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    if args.trace:
        metrics["env.nproc"] = (env["nproc"], "count")
        metrics["env.blas_threads"] = (max((lib["threads"] or 0 for lib in env["blas"]), default=0), "count")
    report = {
        "correct": not runner.failures and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(report, workload=args.workload, seed=args.seed, trace=args.trace, environment=env,
                  failures=runner.failures, absent_layers=absent, spans=[t.to_json() for t in tracers])
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(f"env: {json.dumps(env)}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name in absent:
        print(f"absent layer: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
