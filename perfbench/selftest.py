"""Self-tests of the benchmark's own machinery.

Usage: python3 perfbench/selftest.py

- Tracer: on a small job (hecke-returns, n_max=6) the span count of every
  wrapped name equals cProfile's call count of the original function,
  including calls through names rebound by `from ... import`; the self times
  of a job's spans sum to its root span; every span carries the job's id.
- Generator: a seed gives identical inputs twice, another seed different
  inputs, and every generated config passes `cli.load_config` and stays
  within ATOM_BUDGET, GRID_BUDGET and COEFF_BUDGET.

Prints one JSON line {"checks", "failed", "problems"}; exits 1 on a failure.
"""

from __future__ import annotations

import cProfile
import json
import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts the checkout's src on sys.path)
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from restrictlab import DomainError, cli, geometry, hecke, measures  # noqa: E402

SELFTEST_JOB = {"name": "selftest", "kind": "cli", "experiment": "hecke-returns",
                "params": {"n_max": 6}, "seed": 0}
# experiments that build a weight grid of 4 * samples_per_wavelength * lambda + 1 points
WEIGHT_GRIDS = {"integrals", "beta-scaling", "rapid-decay", "dyadic"}


class Checks:
    def __init__(self):
        self.n = 0
        self.problems: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.n += 1
        if not ok:
            self.problems.append(what)


def tracer_selftest(check: Checks, scratch: Path) -> None:
    prof = cProfile.Profile()
    prof.enable()
    child.run_job(SELFTEST_JOB, {}, scratch / "profiled")
    prof.disable()
    prof.create_stats()
    ncalls = {key: row[1] for key, row in prof.stats.items()}

    t = tr.Tracer()
    with tr.installed(t) as targets:
        check(not tr.stale_bindings(targets),
              f"unwrapped bindings: {tr.stale_bindings(targets)}")
        with t.job_span("selftest"):
            child.run_job(SELFTEST_JOB, {}, scratch / "traced")
    table = tr.span_table(t.spans)
    called = 0
    for name, fn in targets.items():
        code = fn.__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        got = table.get(name, {}).get("calls", 0)
        called += want > 0
        check(got == want, f"{name}: {got} spans vs {want} cProfile calls")
    check(called >= 5, f"only {called} wrapped names were called")
    # dist_to_diag reaches hecke_returns through hecke's `from .geometry import`
    check(table.get("geometry.dist_to_diag", {}).get("calls", 0) > 0,
          "no span for geometry.dist_to_diag called via hecke")

    roots = [s for s in t.spans if s[tr.NAME] == "bench.job"]
    check(len(roots) == 1 and roots[0][tr.PARENT] is None, "expected one root span")
    root_s = roots[0][tr.END] - roots[0][tr.START]
    self_sum = sum(tr.self_times(t.spans).values())
    check(math.isclose(self_sum, root_s, rel_tol=1e-9, abs_tol=1e-9),
          f"self times sum to {self_sum}, root span is {root_s}")
    check(all(s[tr.JOB] == "selftest" for s in t.spans), "a span lost its job id")
    ids = {s[tr.SID] for s in t.spans}
    check(all(s[tr.PARENT] in ids for s in t.spans if s is not roots[0]),
          "a span's parent is missing")


def _budget_problems(job: dict) -> list[str]:
    out = []
    if job["kind"] == "cli":
        cfg = cli.load_config(None, job["experiment"], job["params"], seed=job["seed"])
        p = cfg.params
        for depth in [p["depth"]] if "depth" in p else p.get("depths", []):
            if 2 ** int(depth) > measures.ATOM_BUDGET:
                out.append(f"{job['name']}: depth {depth} exceeds ATOM_BUDGET")
        if job["experiment"] in WEIGHT_GRIDS:
            points = 4 * p.get("resolution_per_wavelength", 8) * p["lambda"] + 1
            if points > measures.GRID_BUDGET:
                out.append(f"{job['name']}: {points} grid points exceed GRID_BUDGET")
        if job["experiment"] == "hecke-returns":
            basis = p["order_basis"]
            alg = hecke.QuatAlgebra(p["a"], p["b"], q=p["q"], basis=None if basis is None else
                                    [[Fraction(str(v)) for v in row] for row in basis])
            boxes = [(alg, p["n_max"], geometry.GroupElement.identity())]
        else:
            boxes = []
    elif job["kind"] == "return_count_ratio":
        boxes = [(hecke.QuatAlgebra(), job["n_max"], geometry.GroupElement.rotation(t))
                 for t in job["thetas"]]
    else:   # amplified_rhs enumerates norms up to (largest support element)^2
        g0 = geometry.GroupElement.diag_flow(job["y"]) @ geometry.GroupElement.rotation(job["theta"])
        boxes = [(hecke.QuatAlgebra(), job["N"] ** 2, g0)]
    for alg, n, g0 in boxes:
        if tr.box_points(alg, n, g0) > hecke.COEFF_BUDGET:
            out.append(f"{job['name']}: scan box at n={n} exceeds COEFF_BUDGET")
    return out


def generator_selftest(check: Checks) -> None:
    for wl in workloads.WORKLOADS:
        a, again, other = (workloads.generate(wl, s) for s in (11, 11, 12))
        check(a == again, f"{wl}: seed 11 gave different inputs twice")
        check(a != other, f"{wl}: seeds 11 and 12 gave the same inputs")
        for job in a + other:
            try:
                problems = _budget_problems(job)
            except DomainError as e:   # load_config rejected the generated config
                problems = [f"{job['name']}: {type(e).__name__}: {e}"]
            check(not problems, "; ".join(problems))


def main() -> int:
    check = Checks()
    scratch = HERE / "out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        tracer_selftest(check, scratch)
        generator_selftest(check)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"checks": check.n, "failed": len(check.problems),
                      "problems": check.problems}))
    return 1 if check.problems else 0


if __name__ == "__main__":
    sys.exit(main())
