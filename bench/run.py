"""The levelpers benchmark: one command per workload run.

    python3 bench/run.py --workload level-small --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The run measures set-up time (fresh
interpreter processes importing ``levelpers.cli``), then starts one fresh
worker process that generates the seeded inputs, runs the workload's jobs
for the given seconds and checks every output (see worker.py), and reads
the worker's peak RSS when it ends.  Times are scaled to a reference
machine speed (see speed.py).  The last line of standard output is one
JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.

    python3 bench/run.py --describe          # sizes of every workload's inputs
    python3 bench/run.py --record-digests    # reference digests of the default seed
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 11
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing levelpers.cli,
    scaled to the reference speed, and unscaled.

    One untimed import first writes the bytecode cache, which users do
    not pay on every run.  Each import is scaled by the calibration
    kernel run just before and just after it (see speed.py).
    """
    import speed

    command = [sys.executable, "-c", "import levelpers.cli"]
    subprocess.run(command, env=_env(), check=True, timeout=60)
    raw, scaled = [], []
    kernel = speed.kernel_seconds()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, env=_env(), check=True, timeout=60)
        took = time.perf_counter() - start
        after = speed.kernel_seconds()
        raw.append(took)
        scaled.append(took * speed.KERNELS["interp"][1] * 2 / (kernel + after))
        kernel = after
    return statistics.median(scaled), statistics.median(raw)


def run_worker(args, workdir: Path, timeout: float) -> tuple[dict, float]:
    """Run one worker; return its result and its peak RSS in MB."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.Popen(command, env=_env(), stdout=sys.stderr.fileno())
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def describe() -> dict:
    """Input sizes of every workload at the default seed, with the environment."""
    sys.path.insert(0, str(SRC))
    from levelpers.report import input_to_map, parse_input

    import checks
    from workloads import criticals, make_jobs

    out = {"environment": environment(), "workloads": {}}
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for name, reason in why.items():
        jobs = []
        for job in make_jobs(name, checks.DEFAULT_SEED):
            f = input_to_map(parse_input(job.input_text()))
            jobs.append({"job": job.name, "kind": job.kind, "simplices": len(f.complex.simplices),
                         "criticals": criticals(job.doc)})
        out["workloads"][name] = {"why": reason, "jobs": jobs}
    return out


def record_digests() -> dict:
    """Digests of every output file of the default seed, one job at a time."""
    sys.path.insert(0, str(SRC))
    import checks
    import worker
    from workloads import WORKLOADS

    out = {}
    for name in WORKLOADS:
        workdir = WORK / "digests" / name
        runner = worker.Runner(name, checks.DEFAULT_SEED, workdir)
        runner.expected = None
        out[name] = {}
        for i, job in enumerate(runner.jobs):
            _, problems = runner.run(i)
            if problems:
                raise RuntimeError(f"{name}/{job.name}: {problems}")
            suffixes = {"analyze": ("json", "svg"), "check": ("txt",), "sublevel": ("json",)}[job.kind]
            out[name][job.name] = {s: checks.digest((runner.outdir / f"{job.name}.{s}").read_bytes())
                                   for s in suffixes}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="levelpers benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "levelpers" / "__init__.py").is_file():
        return _fail(f"no levelpers package under {SRC}; run from the root of a checkout")
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.record_digests:
        import checks

        checks.REFERENCE.write_text(json.dumps(record_digests(), indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
        print(f"wrote {checks.REFERENCE}")
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not 0 < args.seconds <= 120:
        return _fail("--seconds must be in (0, 120]")

    began = time.monotonic()
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup, setup_raw = (None, None) if args.trace else measure_setup()
        result, rss_mb = run_worker(args, workdir, DEADLINE_S - (time.monotonic() - began))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(str(exc))

    attempted, failed = result["jobs"], result["failed"]
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs, {failed} failed")
    if args.trace:
        import tracing

        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in result["per_layer"].items()}
        for target in result["absent"]:
            print(f"absent wrap target: {target}")
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "job_p50_s": {"value": result["job_p50_s"], "unit": "s"},
            "job_tail_s": {"value": result["job_tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"job_tail_s is p{result['tail_percentile']:.1f} of {attempted} jobs; "
              f"speed scale {result['scale']:.3f}; unscaled wall_s {result['raw_wall_s']:.4f}, "
              f"setup_s {setup_raw:.4f}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':34s} {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
