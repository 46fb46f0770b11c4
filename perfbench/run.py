"""End-to-end benchmark of the treescore CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

One process, one client, one op at a time (a closed loop): each op is a call
of ``treescore.cli.main(argv)`` on input files that the seeded generator wrote
during set-up, with outputs written to files. Outputs are checked after the
timed phase; a failed op (non-zero exit, exception or failed check) counts in
``failed`` and the run goes on. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every op runs twice, untraced and traced in alternating order; the traced
call has the public functions of each module wrapped in spans (see
bench_trace.py), the two outputs must be byte-identical, and the metrics are
per-layer call counts, self times and work counts plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
import bench_clock  # noqa: E402
import bench_gen  # noqa: E402
import bench_trace  # noqa: E402

SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
PATH_FLAGS = ("--graph", "--partition", "--output", "--trace")
OUTPUT_FLAGS = ("--output", "--trace")
MODES = ("plain", "traced")


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def measure_setup(workload: str, seed: int, work: Path, reps: int) -> tuple[float, Path, list[str]]:
    """Run set-up ``reps`` times in fresh processes; median seconds, input dir, problems.

    Each repetition imports treescore and writes the inputs (bench_gen.py);
    its time is calibrated by the kernel time of the same process. The first
    and last repetitions must write byte-identical files.
    """
    times, dirs = [], []
    for k in range(reps):
        out = work / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
        rep = json.loads(proc.stdout.splitlines()[-1])
        times.append(rep["setup_s"] * bench_clock.KERNEL_REF_NS / rep["kernel_ns"])
        dirs.append(out)
    problems = [] if _same_files(dirs[0], dirs[-1]) else ["set-up repetitions wrote different inputs"]
    for d in dirs[:-1]:
        shutil.rmtree(d)
    return statistics.median(times), dirs[-1], problems


def expand(op: dict, in_dir: Path, out_dir: Path) -> tuple[list[str], dict[str, Path]]:
    """The op's argv with its directories filled in, and its file arguments by flag."""
    argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in op["argv"]]
    files = {argv[i]: Path(argv[i + 1]) for i in range(len(argv) - 1) if argv[i] in PATH_FLAGS}
    return argv, files


def prepare_recom(op: dict, files: dict[str, Path], prev: dict[str, Path] | None,
                  in_dir: Path) -> None:
    """Write a segment's starting partition: the chain's start, or the previous segment's end."""
    target = files["--partition"]
    if "start" in op:
        shutil.copyfile(in_dir / op["start"], target)
        return
    try:
        out = json.loads(prev["--output"].read_text(encoding="utf-8"))
        part = {"m": out["m"], "assignment": out["final-partition"]}
    except (OSError, ValueError, KeyError):
        # The previous segment failed (and is counted so); restart from its input.
        shutil.copyfile(prev["--partition"], target)
        return
    target.write_text(json.dumps(part, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one CLI call; an exception is exit code -1."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return -1, f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue().strip()


def check_op(ts, op: dict, results: dict) -> str | None:
    """Why an op failed, or None: exit codes, output checks, traced/untraced identity."""
    for mode, (rc, err, files) in results.items():
        if rc != 0:
            return f"{mode} run exited {rc}: {err}"
    files = results.get("traced", results["plain"])[2]
    try:
        problem = bench_checks.CHECKS[op["kind"]](ts, op, files)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is None and len(results) > 1:
        plain, traced = (results[m][2] for m in MODES)
        for flag in OUTPUT_FLAGS:
            if flag in plain and plain[flag].read_bytes() != traced[flag].read_bytes():
                problem = f"{flag} differs between traced and untraced runs"
    return problem


def run_ops(ts, workload: str, seed: int, seconds: float, in_dir: Path, work: Path,
            tracer: bench_trace.Tracer | None) -> dict:
    """The timed phase, then the checks. Latencies are per mode, in ns.

    Without a tracer, each op is followed by one calibration kernel run.
    """
    ops = json.loads((in_dir / "manifest.json").read_text(encoding="utf-8"))
    rounds = len(ops) // bench_gen.OPS_PER_ROUND
    modes = MODES if tracer is not None else MODES[:1]
    out_dirs = {m: work / f"out-{m}" for m in modes}
    for d in out_dirs.values():
        d.mkdir(parents=True)
    latency = {m: [] for m in modes}
    kernel = []
    done: list[tuple[dict, dict]] = []
    prev: dict[str, dict] = {m: None for m in modes}
    budget = seconds * 1e9
    i = 0
    while True:
        # Whole rounds only, and at least one, so every run has the same op mix.
        if i and i % bench_gen.OPS_PER_ROUND == 0 and sum(map(sum, latency.values())) >= budget:
            break
        if i == len(ops):
            ops += bench_gen.make_rounds(ts, workload, seed, rounds, 1, in_dir)
            rounds += 1
        op = ops[i]
        results = {}
        for mode in (modes if i % 2 == 0 else modes[::-1]):
            argv, files = expand(op, in_dir, out_dirs[mode])
            if op["kind"] == "recom":
                prepare_recom(op, files, prev[mode], in_dir)
            if mode == "traced":
                tracer.op = op["name"]
                tracer.install()
            start = perf_counter_ns()
            rc, err = call_cli(ts.cli.main, argv)
            latency[mode].append(perf_counter_ns() - start)
            if mode == "traced":
                tracer.uninstall()
            results[mode] = (rc, err, files)
            prev[mode] = files
        if tracer is None:
            kernel.append(bench_clock.kernel_ns())
        done.append((op, results))
        i += 1
    problems = []
    for op, results in done:
        problem = check_op(ts, op, results)
        if problem is not None:
            problems.append(f"{op['name']}: {problem}")
    return {"latency": latency, "kernel": kernel, "attempted": len(done), "problems": problems}


def _quantile_ms(lat_ns: list[int], q: int) -> float:
    """q-th percentile in ms (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(lat_ns, n=100)[q - 1] / 1e6


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run in ``work``; returns the result object printed as the last line."""
    ts = bench_gen.import_treescore()
    import treescore.cli  # noqa: F401  (ts.cli is the module the ops call)

    setup_s, in_dir, problems = measure_setup(workload, seed, work, setup_reps)
    tracer = bench_trace.Tracer() if trace else None
    run = run_ops(ts, workload, seed, seconds, in_dir, work, tracer)
    problems += run["problems"]
    n = run["attempted"]
    plain = run["latency"]["plain"]
    if tracer is None:
        cal = bench_clock.calibrate(plain, run["kernel"])
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / (sum(cal) / 1e9), "1/s"),
            "op_p50_ms": (_quantile_ms(cal, 50), "ms"),
            "op_p90_ms": (_quantile_ms(cal, 90), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        raw = {
            "raw_ops_per_s": (n / (sum(plain) / 1e9), "1/s"),
            "kernel_ms": (statistics.median(run["kernel"]) / 1e6, "ms"),
        }
    else:
        traced = run["latency"]["traced"]
        metrics = tracer.metrics(sum(traced))
        metrics["trace.ops_per_s"] = (n / (sum(traced) / 1e9), "1/s")
        metrics["trace.untraced_ops_per_s"] = (n / (sum(plain) / 1e9), "1/s")
        metrics["trace.overhead"] = (sum(traced) / sum(plain) - 1, "ratio")
        raw = {}
        tracer.write_spans(work.parent / f"spans-{workload}.json")
    failed = len(run["problems"])
    return {
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "error_rate": failed / n,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=bench_gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed op time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench_gen.import_treescore()  # fail before writing anything if the sources are missing
    work = bench_gen.ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in res["problems"][:20]:
        print(f"FAILED {p}")
    print(f"workload {args.workload}  seed {args.seed}  ops {res['attempted']}  "
          f"failed {res['failed']}  error_rate {res['error_rate']:.4g} ratio")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, m in res["raw"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}  (uncalibrated)")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
