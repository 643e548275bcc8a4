"""The benchmark harness in perfbench/ reads the program by name: parameter
names of `eval_I_pair`, the positional fields of `IntegralReport`,
`TestWindow()`, `_phi_w_on_window_grid` and the experiment runners.  These
tests run its self-test and one traced call, so a rename fails here first."""

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
