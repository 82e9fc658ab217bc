"""discrep benchmark: the norms, certify, lemmas and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload norms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --baseline          # ROADMAP baseline rows, once, ungated

One client runs the workload's requests in a closed loop, one after the
other, in whole passes over the seeded inputs, for `--seconds` (at least
enough whole passes for MIN_REQUESTS requests).  Every request's result is checked against the
oracle.  With `--trace 0` the end-to-end metrics are reported; with
`--trace 1` untraced and traced passes alternate and the per-layer
metrics and the tracing overhead are reported.  Every metric is printed
with its unit; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Results, the environment and,
for traced runs, the spans are also written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# At least this many requests per run, in whole passes.
MIN_REQUESTS = 40
# No new pass starts after this many seconds, whatever MIN_REQUESTS says.
HARD_LIMIT_S = 120
SETUP_PROBES = 4
# Ladder for the tail percentile: the highest with >= 10 samples beyond it
# at the guaranteed sample count (min_passes whole passes), so the
# percentile is the same in every run and on every commit.
PERCENTILES = (50, 75, 90, 95, 99)
# Machine-speed calibration: a fixed loop of Fraction arithmetic, like the
# library's kernels but calling nothing in it, timed before and after every
# request and set-up.  A time is reported as measured * CALIBRATION_S /
# (mean loop time around it), i.e. in seconds at the speed where the loop
# takes CALIBRATION_S.  On a shared host whose speed drifts by tens of percent for
# minutes at a time this keeps runs of the same code comparable; raw times
# go to the result file.
CALIBRATION_S = 0.004

END_TO_END_UNITS = {"wall_s": "s", "req_p50_s": "s", "req_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metric -> span whose self time it sums
LAYER_TIMES = {
    "pointsets.read_csv_s": "pointsets.read_csv",
    "discrepancy.l1_s": "discrepancy.l1",
    "discrepancy.cells_s": "discrepancy.cells",
    "discrepancy.l2_s": "discrepancy.l2",
    "discrepancy.linf_s": "discrepancy.linf",
    "auxiliary.build_tree_s": "auxiliary.build_tree",
    "auxiliary.inner_product_s": "auxiliary.inner_product",
    "auxiliary.product_check_s": "auxiliary.product_check",
    "auxiliary.lemma_suite_s": "auxiliary.lemma_suite",
    "testfn.certificate_s": "testfn.certificate",
    "cli.import_s": "cli.import",
    **{f"cli.{sub}_s": f"cli.{sub}" for sub in
       ("gen", "norms", "aux", "certificate", "lemmas", "comb", "lin", "constants")},
}
LAYER_COUNTS = [
    "pointsets.points", "discrepancy.cells", "discrepancy.sign_change_cells",
    "discrepancy.l1_inexact", "auxiliary.levels", "auxiliary.occupied",
    "auxiliary.unstabilized_trees", "auxiliary.product_pieces", "auxiliary.checks_run",
    "auxiliary.checks_skipped", "auxiliary.checks_failed",
]


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def calibration() -> float:
    """Seconds taken by the fixed calibration loop right now."""
    start = time.perf_counter()
    for _ in range(3):
        total, seen = Fraction(0), {}
        for k in range(1, 300):
            total += Fraction(k, k + 1) * Fraction(3, k + 2)
            seen[k % 37, k] = total.numerator & 0xFF
    return time.perf_counter() - start


def calibrated(seconds: float, loop_before: float, loop_after: float) -> float:
    return seconds * CALIBRATION_S * 2 / (loop_before + loop_after)


def setup(name: str, seed: int, workdir: Path):
    """Import, corpus generation, CSV write, reading inputs and warm-up, timed.

    Returns (calibrated seconds, raw seconds, workload)."""
    if name == "cli":
        import workloads  # noqa: F401  the benchmark's own code is not set-up
    calibration()
    before = calibration()
    start = time.perf_counter()
    if name != "cli":
        import discrep  # noqa: F401
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir, ROOT)
    workload.warm_up()
    raw = time.perf_counter() - start
    return calibrated(raw, before, calibration()), raw, workload


def probe_setups(name: str, seed: int, count: int) -> list[dict]:
    """Set-up times of `count` fresh processes."""
    samples = []
    for k in range(count):
        workdir = OUT / f"probe-{os.getpid()}-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
               "--seed", str(seed), "--workdir", str(workdir)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()}")
        samples.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return samples


def run_request(workload, request, tracer) -> dict:
    start = time.perf_counter()
    try:
        summary, error = workload.run(request, tracer), None
    except Exception:  # a failed request is counted, and the run goes on
        summary, error = None, traceback.format_exc(limit=4)
    return {"request": request, "raw": time.perf_counter() - start,
            "summary": summary, "error": error}


def one_pass(workload, tracer=None, first_request_id: int = 0) -> dict:
    """Every request once, in order, with the calibration loop between them.

    A request's calibrated latency uses the mean of the loop times just
    before and just after it."""
    gc.collect()
    records, loops = [], [calibration()]
    if tracer is not None:
        tracer.counts = defaultdict(int)
        first_span = len(tracer.spans)
    with tracer.patched() if tracer is not None and workload.in_process else nullcontext():
        for k, request in enumerate(workload.requests):
            if tracer is None:
                records.append(run_request(workload, request, None))
            else:
                tracer.request_id = first_request_id + k
                with tracer.span("request"):
                    records.append(run_request(workload, request, tracer))
            loops.append(calibration())
    for k, record in enumerate(records):
        record["latency"] = calibrated(record["raw"], loops[k], loops[k + 1])
    result = {"wall": sum(r["latency"] for r in records),
              "raw_wall": sum(r["raw"] for r in records), "records": records, "loops": loops}
    if tracer is not None:
        result.update(self=tracer.self_times(first_span), counts=dict(tracer.counts))
    return result


def measure(workload, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Whole passes until `seconds` would be exceeded; (untraced, traced) passes."""
    plain, traced = [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        step_start = time.perf_counter()
        plain.append(one_pass(workload))
        if tracer is not None:
            traced.append(one_pass(workload, tracer, len(traced) * len(workload.requests)))
        now = time.perf_counter()
        longest = max(longest, now - step_start)
        # the minimum sample count yields to a machine slowed past twice the budget
        enough = (tracer is not None or len(plain) >= min_passes(workload)
                  or now - begin + longest > 2 * seconds)
        if (enough and now - begin + longest > seconds) or now - begin + longest > HARD_LIMIT_S:
            return plain, traced


def check_records(workload, passes) -> tuple[int, int, list[str]]:
    attempted, problems = 0, []
    for record in (r for p in passes for r in p["records"]):
        attempted += 1
        found = [record["error"]] if record["error"] else None
        if found is None:
            try:
                found = workload.check(record["request"], record["summary"])
            except Exception:  # a malformed result is a failed request
                found = [traceback.format_exc(limit=4)]
        if found:
            problems.append(f"{record['request'].inp.name}: {'; '.join(found)}")
    return attempted, len(problems), problems


def min_passes(workload) -> int:
    return -(-MIN_REQUESTS // len(workload.requests))


def tail_percentile(min_samples: int) -> int:
    return max((p for p in PERCENTILES if min_samples * (100 - p) // 100 >= 10),
               default=PERCENTILES[0])


def end_to_end(workload, passes, setup_samples, raw_setups, rss_mb) -> tuple[dict, dict]:
    """Times are calibrated (see CALIBRATION_S) and filtered per input: each
    request's latency is replaced by the median over the run's repeats of
    the same input, so that a burst of machine noise during one pass does
    not move the figures.  wall_s is the sum of those medians over one
    pass's inputs; the percentiles are taken over every request of the run
    with its filtered latency."""
    by_input = defaultdict(list)
    for record in (r for p in passes for r in p["records"]):
        by_input[record["request"].inp.name].append(record["latency"])
    medians = {name: statistics.median(values) for name, values in by_input.items()}
    filtered = [medians[name] for name, values in by_input.items() for _ in values]
    percentile = tail_percentile(min_passes(workload) * len(workload.requests))
    cuts = statistics.quantiles(filtered, n=100, method="inclusive")
    values = {
        "wall_s": sum(medians.values()),
        "req_p50_s": statistics.median(filtered),
        "req_tail_s": cuts[percentile - 1],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_samples),
    }
    details = {"tail_percentile": percentile, "samples": len(filtered),
               "raw_pass_walls": [p["raw_wall"] for p in passes],
               "raw_setup_samples": raw_setups, "setup_samples": setup_samples,
               "input_latencies_s": dict(by_input),
               "raw_passes": [[[r["request"].inp.name, r["raw"]] for r in p["records"]]
                              for p in passes],
               "calibration_loops_s": [p["loops"] for p in passes]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, details


def per_layer(plain, traced) -> tuple[dict, dict]:
    """Self times are calibrated with their pass's calibration factor."""
    metrics = {}
    for metric, span in LAYER_TIMES.items():
        value = statistics.median(p["self"].get(span, 0.0) * p["wall"] / p["raw_wall"]
                                  for p in traced)
        metrics[metric] = {"value": value, "unit": "s"}
    for metric in LAYER_COUNTS:
        value = statistics.median(p["counts"].get(metric, 0) for p in traced)
        metrics[metric] = {"value": value, "unit": "count"}
    untraced_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.overhead_pct"] = {
        "value": 100 * (traced_wall - untraced_wall) / untraced_wall, "unit": "%"}
    details = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "traced_passes": len(traced)}
    return metrics, details


def report(metrics: dict, details: dict, env: dict, attempted: int, failed: int) -> None:
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("# " + ", ".join(f"{k}={v}" for k, v in details.items()
                           if not isinstance(v, (list, dict))))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} requests)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so that the calibration
    loop measures the CPU that the requests run on."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def run_benchmark(args, workdir: Path) -> int:
    env = {**environment(), "pinned_cpu": pin_to_one_cpu()}
    setup_first, raw_first, workload = setup(args.workload, args.seed, workdir)
    import discrep
    if Path(discrep.__file__).resolve().parent != SRC / "discrep":
        raise RuntimeError(f"discrep imported from {discrep.__file__}, not from {SRC}")
    if args.inject_wrong_reference:
        workload.wrong_reference = workload.requests[0].inp.name

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    plain, traced = measure(workload, args.seconds, tracer)
    rss_kib = (workload.peak_rss_kib if not workload.in_process
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    attempted, failed, problems = check_records(workload, plain + traced)
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        metrics, details = per_layer(plain, traced)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "request"), s)) for s in tracer.spans]))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        probes = probe_setups(args.workload, args.seed, SETUP_PROBES)
        metrics, details = end_to_end(workload, plain, [setup_first] + [p["setup_s"] for p in probes],
                                      [raw_first] + [p["raw_setup_s"] for p in probes],
                                      rss_kib / 1024)
    details = {"workload": args.workload, "seed": args.seed, **details}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps({**result, "details": details, "environment": env, "problems": problems[:50]},
                   indent=1))
    report(metrics, details, env, attempted, failed)
    print(json.dumps(result))
    return 0


def baseline() -> int:
    """ROADMAP's baseline rows, timed once each, printed beside its figures.

    The random set is the library's `random_uniform(256, seed=1)`, the set
    whose 4,222 log cells ROADMAP reports."""
    sys.path.insert(0, str(SRC))
    import corpus
    import workloads
    from discrep import PointSet, auxiliary, discrepancy, testfn
    from spans import Tracer

    tracer = Tracer()
    rand = PointSet(tuple(corpus.random_uniform_points(256, 1)))
    vdc128, vdc8 = PointSet(tuple(corpus.vdc(7))), PointSet(tuple(corpus.vdc(3)))
    rows = [
        ("random N=256 linf_norm", lambda: discrepancy.linf_norm(rand)),
        ("random N=256 l1_norm", lambda: discrepancy.l1_norm(rand)),
        ("random N=256 l2_norm_sq", lambda: discrepancy.l2_norm_sq(rand)),
        ("random N=256 certificate", lambda: testfn.certificate(rand)),
        ("vdc N=128 linf_norm", lambda: discrepancy.linf_norm(vdc128)),
        ("vdc N=128 l1_norm", lambda: discrepancy.l1_norm(vdc128)),
        ("vdc N=8 lemma_suite", lambda: auxiliary.lemma_suite(vdc8)),
    ]
    figures = workloads.REFERENCE["roadmap_baseline"]
    out = []
    print(f"{'row':28} {'measured':>10}  counts | ROADMAP")
    for label, call in rows:
        tracer.counts = defaultdict(int)
        with tracer.patched():
            start = time.perf_counter()
            call()
            seconds = time.perf_counter() - start
        counts = {k: v for k, v in tracer.counts.items() if k in (
            "discrepancy.cells", "discrepancy.sign_change_cells", "auxiliary.product_pieces")}
        out.append({"row": label, "seconds": seconds, "counts": counts, "roadmap": figures[label]})
        shown = ", ".join(f"{k.split('.')[1]}={v:,}" for k, v in counts.items())
        print(f"{label:28} {seconds:9.3f}s  {shown} | {figures[label]}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "baseline.json").write_text(json.dumps({"environment": environment(), "rows": out},
                                                  indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["norms", "certify", "lemmas", "cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="rerun the ROADMAP baseline rows once and print them")
    parser.add_argument("--inject-wrong-reference", action="store_true",
                        help="give the first input a wrong reference value")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "discrep" / "__init__.py").is_file():
        print(f"error: no discrep package under {SRC}", file=sys.stderr)
        return 2
    if args.baseline:
        return baseline()
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(args.workdir) if args.workdir else OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            seconds, raw, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds, "raw_setup_s": raw}))
            return 0
        return run_benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
