"""One pass over a workload in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

Imports restrictlab from the checkout, builds the workload's one-off
ingredients, records the `time.perf_counter` reading at which it is ready,
runs every job once (optionally traced) and writes result.json beside the
spec.  Jobs write their artifacts under the spec's directory so the parent
can compare passes byte for byte.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import restrictlab  # noqa: E402  (timed as part of set-up)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from restrictlab import (cli, frequency, geometry, hecke, integrals, measures,  # noqa: E402
                         spherical)

from tracer import Tracer, installed, layer_metrics, stale_bindings  # noqa: E402

LAMBDA_AMP = 100.0


def _plain(v):
    """JSON-ready copy: numpy scalars to Python, tuples to lists."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


def _write_rows(path: Path, header, rows) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(repr(r[k]) if isinstance(r, dict) else repr(r[i])
                              for i, k in enumerate(header)) + "\n")


def setup(workload: str) -> dict:
    """Ingredients a workload builds once per process (amplified-sum only)."""
    if workload != "amplified-sum":
        return {}
    lam = LAMBDA_AMP
    bump = frequency.BumpPair()
    kern = spherical.make_kernel(lam, x_max=1.0)
    w = measures.build_weight(measures.make_cantor_measure(0.9, 8), lam, bump)
    _, _, fw, _ = integrals._phi_w_on_window_grid(
        w, lambda x: integrals.modulated_gaussian(x, lam), lam)
    return {"kernel": kern, "phi_w": fw, "alg": hecke.QuatAlgebra(),
            "window": integrals.TestWindow()}


def _cell(text: str):
    """A CSV cell as int, float or (failing both) the text itself."""
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def read_csv_columns(path: Path) -> dict:
    """{column: [cells]} of a CLI artifact (line 0 is the config comment)."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return {col: [_cell(r[i]) for r in rows] for i, col in enumerate(header)}


def run_job(job: dict, state: dict, out: Path) -> tuple[float, dict]:
    """Run one job; returns (timed seconds, summary to check)."""
    jdir = out / job["name"]
    jdir.mkdir(parents=True, exist_ok=True)
    kind = job["kind"]
    if kind == "cli":
        t0 = perf_counter()
        cfg = cli.load_config(None, job["experiment"], job["params"],
                              out=str(jdir), seed=job["seed"])
        result = cli.run_experiment(cfg)
        seconds = perf_counter() - t0
        summary = _plain(result["summary"])
        (csv,) = jdir.glob("*.csv")
        summary["csv"] = read_csv_columns(csv)
        return seconds, summary
    if kind == "amplified_rhs":
        rng = np.random.default_rng(job["eig_seed"])
        amp = hecke.build_amplifier(job["N"], hecke.random_hecke_eigenvalues(job["N"], rng))
        g0 = geometry.GroupElement.diag_flow(job["y"]) @ geometry.GroupElement.rotation(job["theta"])
        t0 = perf_counter()
        total, rows, flags = integrals.amplified_rhs(state["alg"], amp, state["kernel"],
                                                     state["window"], state["phi_w"], g0)
        seconds = perf_counter() - t0
        _write_rows(jdir / "amplified_rhs.csv",
                    ["m", "n", "d", "gamma", "term", "abs_I", "error"], rows)
        return seconds, {"total": float(total), "evals": len(rows), "unconverged": len(flags),
                         "gamma": [r["gamma"] for r in rows],
                         "abs_I": [float(r["abs_I"]) for r in rows],
                         "error": [float(r["error"]) for r in rows]}
    if kind == "return_count_ratio":
        alg = hecke.QuatAlgebra()
        g0s = [geometry.GroupElement.rotation(t) for t in job["thetas"]]
        t0 = perf_counter()
        best, rows = hecke.return_count_ratio(alg, g0s, job["n_max"], job["kappas"])
        seconds = perf_counter() - t0
        _write_rows(jdir / "return_count_ratio.csv", ["g", "n", "kappa", "M", "ratio"], rows)
        return seconds, {"best": float(best), "M": [int(r[3]) for r in rows],
                         "ratio": [float(r[4]) for r in rows]}
    raise ValueError(f"unknown job kind {kind!r}")


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    out = spec_file.parent
    if Path(restrictlab.__file__).resolve().parent != (ROOT / "src" / "restrictlab").resolve():
        print(f"restrictlab imported from {restrictlab.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    tracer = Tracer() if spec["trace"] else None
    job_span = tracer.job_span if tracer else (lambda name: nullcontext())
    result = {"versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    jobs = []
    with installed(tracer) if tracer else nullcontext() as targets:
        if tracer:
            result["stale_bindings"] = stale_bindings(targets)
        with job_span("setup"):
            state = setup(spec["workload"])
        result["ready"] = perf_counter()
        for job in [] if spec["setup_only"] else spec["jobs"]:
            entry = {"name": job["name"], "seconds": None, "summary": None, "error": None}
            try:
                with job_span(job["name"]):
                    entry["seconds"], entry["summary"] = run_job(job, state, out)
            except Exception:   # one failing job must not hide the others
                entry["error"] = traceback.format_exc(limit=-3)
            jobs.append(entry)
        result["wall_s"] = perf_counter() - result["ready"]
    result["jobs"] = jobs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.write(out / "trace.tsv")
        result["layers"] = layer_metrics(tracer)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
