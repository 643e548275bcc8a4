"""Benchmark entry point.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes over one seeded workload, each in a fresh child process, one
after another (a closed loop with a single client).  A set-up-only start
comes first; then passes follow until the run has lasted S seconds, rounded
to the nearest whole pass, and at least two are made.  Every job's output is checked
against reference.json and every pass's artifacts must be byte-identical to
the first pass's.  With --trace 1 it runs an untraced, a traced and an untraced pass
plus the tracer and generator self-tests, and reports per-layer metrics.

The line before the last is a full report (environment, every named metric
with its unit, per-job latencies); the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_LIMIT_S = 170.0     # hard cap on one invocation, children included
MIN_PASSES = 2          # two passes give the determinism check
MIN_SETUPS = 5          # set-up time is the median of at least this many starts
NON_ARTIFACTS = {"spec.json", "result.json", "trace.tsv", "stderr.txt"}


def environment(blas_threads: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "blas_threads": blas_threads,
            "timers": "time.perf_counter only; memory is each child's own "
                      "getrusage(RUSAGE_SELF).ru_maxrss",
            "machine": "no CPU pinning, no affinity, no machine setting changed"}


def spawn(spec: dict, pass_dir: Path, env: dict, deadline: float):
    """Run one child; returns (result dict or None, error text or None)."""
    pass_dir.mkdir(parents=True)
    (pass_dir / "spec.json").write_text(json.dumps(spec))
    t0 = perf_counter()
    with (pass_dir / "stderr.txt").open("w") as err:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                                   str(pass_dir / "spec.json")], env=env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            return None, f"{pass_dir.name}: child timed out"
    if proc.returncode != 0:
        tail = (pass_dir / "stderr.txt").read_text().strip().splitlines()[-3:]
        return None, f"{pass_dir.name}: child exited {proc.returncode}: {' | '.join(tail)}"
    res = json.loads((pass_dir / "result.json").read_text())
    res["setup_s"] = res["ready"] - t0
    res["child_s"] = perf_counter() - t0
    return res, None


def artifact_hashes(pass_dir: Path) -> dict:
    out = {}
    for p in sorted(pass_dir.rglob("*")):
        if p.is_file() and p.name not in NON_ARTIFACTS:
            out[str(p.relative_to(pass_dir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run_selftest(env: dict, deadline: float) -> tuple[int, int, list]:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "selftest.py")], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        return rep["checks"], rep["failed"], rep["problems"]
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as e:
        return 1, 1, [f"selftest did not report: {e!r}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S

    if not (ROOT / "src" / "restrictlab" / "__init__.py").is_file():
        print(f"no restrictlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = workloads.load_reference()["jobs"]
    jobs = workloads.generate(args.workload, args.seed)

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # fixed, so every child uses the same count whatever the caller's environment
    blas_threads = os.cpu_count() or 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads), MKL_NUM_THREADS=str(blas_threads))

    problems: list[str] = []
    attempted = failed = 0
    passes, setups = [], []

    def spec(trace: bool, setup_only: bool = False) -> dict:
        return {"workload": args.workload, "jobs": jobs, "trace": trace,
                "setup_only": setup_only}

    # the first start of a run is often the slowest one, so it is a
    # set-up-only start and no timed pass pays for it
    res, err = spawn(spec(False, setup_only=True), out / "setup0", env, deadline)
    if res is None:
        problems.append(err)
    else:
        setups.append(res["setup_s"])

    while perf_counter() < deadline:
        i = len(passes)
        if args.trace:
            if i == 3:    # untraced, traced, untraced
                break
        elif i >= MIN_PASSES and (perf_counter() - start
                                  + statistics.fmean(r["child_s"] for r in passes) / 2
                                  > args.seconds):
            break   # another pass would end nearer S + 1 pass than S
        traced = bool(args.trace) and i == 1
        pass_dir = out / f"pass{i}"
        res, err = spawn(spec(traced), pass_dir, env, deadline)
        if res is None:
            problems.append(err)
            attempted += len(jobs)
            failed += len(jobs)
            break
        res["dir"] = pass_dir
        passes.append(res)
        setups.append(res["setup_s"])
    while not args.trace and passes and len(setups) < MIN_SETUPS and perf_counter() < deadline:
        res, err = spawn(spec(False, setup_only=True), out / f"setup{len(setups)}", env, deadline)
        if res is None:
            problems.append(err)
            break
        setups.append(res["setup_s"])

    first_hashes = artifact_hashes(passes[0]["dir"]) if passes else {}
    for res in passes:
        hashes = artifact_hashes(res["dir"])
        for entry, job in zip(res["jobs"], jobs):
            attempted += 1
            bad = []
            if entry["error"] is not None:
                bad.append(f"{job['name']} raised: {entry['error'].strip().splitlines()[-1]}")
            else:
                bad += workloads.check_job(job, entry["summary"], references)
            mine = {k: v for k, v in hashes.items() if k.startswith(job["name"] + "/")}
            ref = {k: v for k, v in first_hashes.items() if k.startswith(job["name"] + "/")}
            if mine != ref or not mine:
                bad.append(f"{job['name']}: artifacts of {res['dir'].name} differ from pass0")
            if bad:
                failed += 1
                problems += [f"{res['dir'].name}: {b}" for b in bad]
        if res.get("stale_bindings"):
            attempted += 1
            failed += 1
            problems.append(f"tracer left unwrapped bindings: {res['stale_bindings']}")

    if args.trace and passes:
        checks, bad, msgs = run_selftest(env, deadline)
        attempted += checks
        failed += bad
        problems += msgs

    # ---- metrics
    med = statistics.median
    job_s = {j["name"]: [r["jobs"][k]["seconds"] for r in passes
                         if r["jobs"][k]["seconds"] is not None]
             for k, j in enumerate(jobs)}
    named = {f"{name}_s": {"value": med(v), "unit": "s"} for name, v in job_s.items() if v}
    complete_passes = [r for r in passes if all(e["error"] is None for e in r["jobs"])]
    if args.workload == "amplified-sum" and complete_passes:
        rates = [sum(e["summary"]["evals"] for e in r["jobs"]) / sum(e["seconds"] for e in r["jobs"])
                 for r in complete_passes]
        named["evals_per_s"] = {"value": med(rates), "unit": "1/s"}
    named["failed_frac"] = {"value": failed / max(attempted, 1), "unit": "fraction"}

    metrics = {}
    if passes and not args.trace:
        # wall_s is the mean, not the median, of the passes: the machine's speed
        # drifts in stretches of 5-30 s, and over a few passes the mean of the
        # whole window varies less from run to run than the middle pass does
        values = {"setup_s": med(setups),
                  "wall_s": statistics.fmean(r["wall_s"] for r in passes),
                  "peak_rss_mb": med(r["peak_rss_mb"] for r in passes)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    elif args.trace and len(passes) == 3:
        untraced_s = statistics.fmean([passes[0]["wall_s"], passes[2]["wall_s"]])
        layers = dict(passes[1]["layers"],
                      trace_overhead_frac=passes[1]["wall_s"] / untraced_s - 1.0)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in bench["per_layer"]}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "setups": setups,
              "environment": {**environment(blas_threads),
                              **(passes[0]["versions"] if passes else {})},
              "jobs": [j["name"] for j in jobs], "job_seconds": job_s,
              "named": named, "problems": problems,
              "run_s": perf_counter() - start}
    (out / "report.json").write_text(json.dumps(report, indent=1))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(report))
    complete = len(metrics) == len(bench["per_layer" if args.trace else "end_to_end"])
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
