"""Run one workload of the forge benchmark and print its result.

    python3 bench/run.py --workload recipe --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`. BLAS is pinned to one thread before numpy loads. The workload is
set up several times (`setup_s` is the median), then runs whole rounds of
identical work that fit within `--seconds`, timing a fixed reference
kernel before the first round and after each one; `run_rel` is the
rounds' wall time over the reference time paired with them. With
`--trace 1`, half the time runs untraced and half traced, and the
per-layer metrics come from the traced half. The last line of standard
output is the result object; a per-run record goes to `bench/out/`.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up repeats at least MIN_SETUPS times and until the set-ups add up to
# SETUP_SECONDS, so a set-up of a few milliseconds still gets a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 25, 2.0
# Steps of the reference kernel: 0.12 to 0.15 s on the 2-vCPU VM of README.md.
REFERENCE_STEPS = 8000
END_TO_END = {"setup_s": "s", "run_rel": "ratio", "peak_rss_mb": "MB"}


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that runs no forge code: small
    numpy products and plain Python, the mix the workloads spend their
    time in. Timed beside every round, it gauges how fast the shared host
    runs the process just then."""
    rng = np.random.default_rng(20251)
    x, w = rng.standard_normal((16, 64)), rng.standard_normal((64, 64)) / 8
    words = [f"w{i}" for i in range(64)]
    t0 = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        x = np.tanh(x @ w)
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + i
    return time.perf_counter() - t0


def _rounds(workload, budget: float):
    """Whole rounds, each followed by a reference timing, while another
    round as long as the last still ends within `budget` (at least one),
    so a run does not overrun its time."""
    times, refs = [], [reference_seconds()]
    digests, rates, out = [], [], None
    while not times or sum(times) + sum(refs) + times[-1] + refs[-1] <= budget:
        t0 = time.perf_counter()
        out = workload.run_round()
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        digests.append(workload.digest(out))
        rates.append(workload.rates(out))
    return times, refs, digests, rates, out


def relative_run(times: list[float], refs: list[float]) -> float:
    """The rounds' total wall time over the reference time paired with
    them: each round with the mean of the reference timings just before
    and just after it."""
    return sum(times) / sum((before + after) / 2 for before, after in zip(refs, refs[1:]))


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_times, workload = [], None
    try:
        while len(setup_times) < MIN_SETUPS or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS):
            if workload is not None:
                workload.close()
                workload = None
            t0 = time.perf_counter()
            workload = WORKLOADS[name](seed, work_dir)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.restore()
        budget = seconds / 2 if trace else seconds
        times, refs, digests, rates, out = _rounds(workload, budget)
        traced_times = []
        if tracer:
            tracer.phase = "round"
            tracer.install()
            try:
                traced_times, _, traced_digests, _, out = _rounds(workload, budget)
            finally:
                tracer.restore()
            digests += traced_digests
        # read before the checks, whose own memory is not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check = workload.check(out)
    finally:
        if tracer:
            tracer.restore()
        if workload is not None:
            workload.close()

    if len(set(digests)) != 1:
        check.problems.append("rounds of identical work gave different outputs")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_times": setup_times, "round_times": times,
              "reference_times": refs, "traced_round_times": traced_times,
              "problems": check.problems}
    if trace:
        metrics = {metric: 0.0 for metric, _, _ in tracing.PER_LAYER}
        metrics.update(tracing.layer_metrics(tracer, len(traced_times), len(setup_times),
                                             threading.get_ident(), workload.input_records))
        metrics.update(check.figures)
        untraced, traced = statistics.median(times), statistics.median(traced_times)
        metrics["trace.run_s"] = traced
        metrics["trace.untraced_run_s"] = untraced
        metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        metrics["bench.reference_ms"] = statistics.median(refs) * 1000.0
        for rate in ("two_stage_tokens_per_s", "fft_tokens_per_s", "eval_samples_per_s",
                     "refine_lines_per_s"):
            values = [r[rate] for r in rates if rate in r]
            metrics[rate] = statistics.median(values) if values else 0.0
        units = {metric: unit for metric, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {"setup_s": statistics.median(setup_times),
                   "run_rel": relative_run(times, refs),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    # every round is the same work (the digests agree), so one checked
    # round's counts stand for all; they do not grow with the round count
    result = {"correct": not check.problems, "attempted": check.attempted,
              "failed": check.failed,
              "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()}}
    record["result"] = result
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("recipe", "sweep", "refine", "sensitivity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "forge" / "__init__.py").is_file():
        print(f"bench: no forge sources at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = BENCH / "out"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = record["result"]
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, value in result["metrics"].items():
        print(f"{args.workload} {metric} = {value['value']:.6g} {value['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
