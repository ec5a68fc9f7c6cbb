"""One workload run in a fresh process: generate inputs, run the job list
as a closed loop with one client, check every output, write a result.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

Started by run.py, which reads this process's peak RSS when it ends.
Jobs run in list order, in whole passes over the list, until the time is
up; each job starts when the previous one finished.
With --trace 1 the first half of the time runs untraced and the second
half traced, which gives the tracing overhead on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import KERNEL, euler_characteristic, make_jobs, write_inputs  # noqa: E402

import levelpers  # noqa: E402
import levelpers.cli  # noqa: E402
import levelpers.report  # noqa: E402
import levelpers.sublevel  # noqa: E402

if not Path(levelpers.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"levelpers was imported from {levelpers.__file__}, not from this checkout")


def _fmt(x: float) -> str:
    return repr(float(x))


def sublevel_route(text: str) -> str:
    """The documented library route to the sub-level bars, as JSON rows."""
    parsed = levelpers.report.parse_input(text)
    f = levelpers.report.input_to_map(parsed)
    sb = levelpers.sublevel.sublevel_barcode(f)
    rows = [{"degree": r, "birth": _fmt(b), "death": None if d == float("inf") else _fmt(d),
             "multiplicity": m} for r, b, d, m in sb.rows()]
    return json.dumps({"criticals": [_fmt(t) for t in sb.grid.criticals],
                       "sublevel_bars": rows}, indent=2) + "\n"


class Runner:
    """Runs and checks single jobs of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.jobs = make_jobs(workload, seed)
        self.inputs = write_inputs(self.jobs, workdir / "inputs")
        self.outdir = workdir / "outputs"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.euler = [euler_characteristic(job.doc) for job in self.jobs]
        reference = checks.load_reference().get(workload, {}) if seed == checks.DEFAULT_SEED else None
        self.expected = None if reference is None else [reference.get(job.name) for job in self.jobs]

    def run(self, i: int) -> tuple[float, list[str]]:
        """Latency of job i and the problems found in its output."""
        job, path = self.jobs[i], str(self.inputs[i])
        out = self.outdir / job.name
        code = None
        start = time.perf_counter()
        try:
            if job.kind == "analyze":
                code = levelpers.cli.main(["analyze", "--input", path, "--output", f"{out}.json",
                                           "--svg", f"{out}.svg"])
            elif job.kind == "check":
                code = levelpers.cli.main(["check", "--input", path, "--output", f"{out}.txt",
                                           "--seed", "0"])
            else:
                text = Path(path).read_text(encoding="utf-8")
                Path(f"{out}.json").write_text(sublevel_route(text), encoding="utf-8")
                code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a job that raises is a failed job, not a dead benchmark
            return time.perf_counter() - start, [f"raised {exc!r}"]
        latency = time.perf_counter() - start
        return latency, self.check(i, code)

    def check(self, i: int, code) -> list[str]:
        job, out = self.jobs[i], self.outdir / self.jobs[i].name
        if job.kind == "check":
            files = {"txt": Path(f"{out}.txt").read_bytes()}
            problems = checks.check_check(code, files["txt"].decode())
        elif code != 0:
            return [f"exited {code}"]
        elif job.kind == "analyze":
            files = {"json": Path(f"{out}.json").read_bytes(), "svg": Path(f"{out}.svg").read_bytes()}
            problems = checks.check_analyze(files["json"].decode(), files["svg"].decode(), self.euler[i])
        else:
            files = {"json": Path(f"{out}.json").read_bytes()}
            problems = checks.check_sublevel(files["json"].decode(), self.euler[i])
        if self.expected is not None:
            problems += checks.check_digests(files, self.expected[i])
        return problems


def closed_loop(runner: Runner, seconds: float, probe: speed.SpeedProbe, tracer=None):
    """Run whole passes over the job list until the time is up (the pass
    under way then is finished, so every job runs equally often); returns
    (job index, latency, problems, start time) records."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        for i in range(len(runner.jobs)):
            probe.maybe_sample()
            if tracer is not None:
                tracer.start_job(len(records))
            start = time.perf_counter()
            latency, problems = runner.run(i)
            records.append((i, latency, problems, start))
    probe.maybe_sample()
    return records


def summarize(records, n_jobs: int, probe: speed.SpeedProbe) -> dict:
    """End-to-end timings of one loop; each latency is scaled to reference
    seconds by the calibration samples nearest to it in time."""
    scaled = [(i, latency * probe.scale(start)) for i, latency, _, start in records]
    by_job = [[lat for i, lat in scaled if i == j] for j in range(n_jobs)]
    latencies = sorted(lat for _, lat in scaled)
    tail_index = max(len(latencies) - 11, 0)  # the highest percentile with 10 jobs beyond it
    return {
        "wall_s": sum(statistics.median(lats) for lats in by_job),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": latencies[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / len(latencies),
        "jobs": len(latencies),
        "failed": sum(1 for *_, problems, _ in records if problems),
        "raw_wall_s": sum(statistics.median(lat for i, lat, _, _ in records if i == j)
                          for j in range(n_jobs)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.workdir)
    n = len(runner.jobs)
    runner.run(0)  # warm-up: first-call costs of argparse, numpy and the file cache
    probe = speed.SpeedProbe(KERNEL[args.workload])
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    records = closed_loop(runner, untraced_seconds, probe)
    result = summarize(records, n, probe)

    problems = [f"{runner.jobs[i].name}: {p}" for i, _, ps, _ in records for p in ps]
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = closed_loop(runner, args.seconds / 2, probe, tracer)
        finally:
            tracer.uninstall()
        scale = probe.scale()
        problems += [f"{runner.jobs[i].name}: {p}" for i, _, ps, _ in traced for p in ps]
        traced_summary = summarize(traced, n, probe)
        layers = tracing.layer_metrics(tracer.spans, tracer.counts,
                                       {k: i for k, (i, *_) in enumerate(traced)})
        for key, value in layers.items():
            if key.endswith("_s"):
                layers[key] = value * scale
        layers["trace.job_s"] = traced_summary["wall_s"]
        layers["trace.overhead_s"] = traced_summary["wall_s"] - result["wall_s"]
        layers["trace.absent"] = len(tracer.absent)
        result["per_layer"] = layers
        result["absent"] = tracer.absent
        result["jobs"] += traced_summary["jobs"]
        result["failed"] += traced_summary["failed"]
        with open(args.workdir / "spans.csv", "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in tracer.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{job}\n")

    result["scale"] = probe.scale()
    result["problems"] = problems[:20]
    (args.workdir / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
