"""Record reference.json: the amplified-sum input menu and the expected
summary of every job the generator can draw.

Usage: python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference (the seed commit
of this benchmark); a later commit is checked against these values, so
regenerating them there would hide a change in results.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402
from restrictlab import hecke, integrals, geometry  # noqa: E402
import numpy as np  # noqa: E402

AMP_N = 9
AMP_CANDIDATES = 96
AMP_MENU_SIZE = 8
# eval_I calls per amplified_rhs call, and how many of them are at a g other
# than the identity, that every menu entry must have: each draw then costs
# the same, and a change that only speeds up g = e cannot carry the workload
AMP_EVALS = 9
AMP_EVALS_OFF_IDENTITY = 4
SEEDS_SCANNED = 5000


def amp_eval_counts(alg, eig_seed: int, y: float, theta: float) -> tuple[int, int]:
    """(eval_I calls, calls at g != +-identity) amplified_rhs would make,
    with eval_I stubbed."""
    calls = []

    def fake_eval(kernel, window, phi, g, **kw):
        calls.append(not np.allclose(np.abs(g.m), np.eye(2)))
        return integrals.IntegralReport(1.0 + 0j, 0.0, 100.0, 1, True)

    real = integrals.eval_I
    integrals.eval_I = fake_eval
    try:
        amp = hecke.build_amplifier(AMP_N, hecke.random_hecke_eigenvalues(
            AMP_N, np.random.default_rng(eig_seed)))
        g0 = geometry.GroupElement.diag_flow(y) @ geometry.GroupElement.rotation(theta)
        integrals.amplified_rhs(alg, amp, None, None, None, g0)
    finally:
        integrals.eval_I = real
    return len(calls), sum(calls)


def amp_menu() -> list[dict]:
    rng = random.Random(2512)
    alg = hecke.QuatAlgebra()
    menu = []
    for eig_seed in range(AMP_CANDIDATES):
        y = round(rng.uniform(0.05, 0.3), 3)
        theta = round(rng.uniform(0.0, 0.6), 3)
        if amp_eval_counts(alg, eig_seed, y, theta) == (AMP_EVALS, AMP_EVALS_OFF_IDENTITY):
            menu.append({"N": AMP_N, "eig_seed": eig_seed, "y": y, "theta": theta})
        if len(menu) == AMP_MENU_SIZE:
            return menu
    raise SystemExit(f"only {len(menu)} candidates make {AMP_EVALS} evals, "
                     f"{AMP_EVALS_OFF_IDENTITY} of them off the identity")


def main() -> int:
    menu = amp_menu()
    jobs = {}
    for wl in workloads.WORKLOADS:
        for seed in range(SEEDS_SCANNED):
            for job in workloads.generate(wl, seed, amp_menu=menu):
                jobs.setdefault(workloads.job_key(job), (wl, job))
    scratch = HERE / "out" / "reference"
    states = {}
    expected = {}
    for i, (key, (wl, job)) in enumerate(sorted(jobs.items())):
        if wl not in states:
            states[wl] = child.setup(wl)
        shutil.rmtree(scratch, ignore_errors=True)
        _, summary = child.run_job(job, states[wl], scratch)
        expected[key] = summary
        print(f"[{i + 1}/{len(jobs)}] {job['name']}: {json.dumps(summary)[:120]}",
              flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    ref = {"note": "outputs of the seed commit; see make_reference.py",
           "amp_menu": menu, "jobs": expected}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
