"""The benchmark harness in perfbench/ reads the program by name: parameter
names of `eval_I_pair`, the positional fields of `IntegralReport`,
`TestWindow()`, `_phi_w_on_window_grid` and the experiment runners.  These
tests run its self-test, one traced call and every job recorded in
reference.json, so a rename, a changed return value or a moved pinned value
fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import restrictlab as rl
from restrictlab import integrals

from conftest import cached_weight

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0, report["problems"]
    assert report["checks"] > 0 and proc.returncode == 0


def test_every_reference_job_matches_its_record(tmp_path, monkeypatch):
    # in-process, one pass per recorded job; the amplified_rhs jobs share the
    # amplified-sum workload's one set-up, as in a benchmark pass
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import workloads

    references = workloads.load_reference()["jobs"]
    state = child.setup("amplified-sum")
    problems = []
    for i, key in enumerate(sorted(references)):
        job = {**json.loads(key), "name": f"job{i:03d}"}
        _, summary = child.run_job(job, state if job["kind"] == "amplified_rhs" else {},
                                   tmp_path)
        problems += workloads.check_job(job, summary, references)
    assert len(references) == 107
    assert not problems


def test_tracer_counts_eval_I_pairs(kernel100, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    lam = 100.0
    _, _, f, _ = integrals._phi_w_on_window_grid(
        cached_weight(0.9, 8, lam), lambda x: integrals.modulated_gaussian(x, lam), lam)
    t = tracer.Tracer()
    with tracer.installed(t):
        integrals.eval_I(kernel100, rl.TestWindow(), f, rl.GroupElement.lower_shear(0.05))
    assert t.counts["integrals.pairs_sampled"] > 0
    assert t.counts["integrals.support_pairs_sampled"] > 0
