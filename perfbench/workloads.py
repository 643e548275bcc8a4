"""Workload definitions: seeded input generation and output checks.

The seed only chooses among input values whose outputs were recorded from
the seed commit in reference.json, and every choice costs the same amount
of work, so runs with different seeds are comparable.  The program under
test only ever sees the generated job specs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("integral-pipeline", "amplified-sum", "hecke-arithmetic",
             "model-surfaces")

# summary values must satisfy |got - ref| <= RTOL * |ref| + ATOL; the absolute
# floor covers quantities that are rounding noise by construction (imaginary
# parts of real integrals, error estimates, the ~1e-12 rapid-decay contrast)
RTOL = 1e-6
ATOL = 1e-9

# verdict flags that must read true whatever the reference says; a CSV column
# of that name (for example `converged`) must be true on every row
VERDICTS = ("contrast_ok", "slope_ok", "spread_ok", "holds", "converged")

# λ=200 shear parameters for the `integrals` job; the dense sum costs the
# same for every g
SHEARS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7)
# rotation angles of the g0 list for return_count_ratio; rotations keep
# ||g0|| ||g0^-1|| = 1, so the enumeration box is the same for every draw
THETAS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.15)
# alpha menus for the model-surface runners (their cost does not depend on alpha)
ALPHAS_THEOREM3 = (0.6, 0.7, 0.8, 0.9)
ALPHAS_MEASURE = (0.5, 0.6309297535714574, 0.7, 0.8)
AMPLIFIER_SEEDS = tuple(range(8))

MAXIMAL_ORDER_2_3 = [["1", "0", "1/2", "0"], ["0", "1", "1/2", "1/2"],
                     ["0", "0", "1/2", "0"], ["0", "0", "0", "1/2"]]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _cli(name: str, experiment: str, params: dict, seed: int = 0) -> dict:
    return {"name": name, "kind": "cli", "experiment": experiment,
            "params": params, "seed": seed}


def generate(workload: str, seed: int, amp_menu=None) -> list[dict]:
    """Job specs of one pass over `workload`, drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "integral-pipeline":
        return [
            _cli("rapid_decay", "rapid-decay",
                 {"lambda": 100.0, "t_factors": [0.0, 4.0]}),
            _cli("beta_scaling", "beta-scaling",
                 {"lambda": 100.0, "beta_exponents": [0.3, 0.6]}),
            _cli("integrals_lam200", "integrals",
                 {"lambda": 200.0, "shear_t": rng.choice(SHEARS)}),
        ]
    if workload == "amplified-sum":
        if amp_menu is None:
            amp_menu = load_reference()["amp_menu"]
        return [{"name": "amplified_rhs", "kind": "amplified_rhs",
                 **rng.choice(amp_menu)}]
    if workload == "hecke-arithmetic":
        return [
            _cli("hecke_returns", "hecke-returns", {"n_max": 24}),
            _cli("hecke_maximal", "hecke-returns",
                 {"n_max": 12, "order_basis": MAXIMAL_ORDER_2_3}),
            {"name": "return_ratio", "kind": "return_count_ratio",
             "thetas": sorted(rng.sample(THETAS, 3)), "n_max": 12,
             "kappas": [1.0, 0.5, 0.25, 0.125]},
            _cli("amplifier", "amplifier", {"N": 400, "draws": 1000},
                 seed=rng.choice(AMPLIFIER_SEEDS)),
        ]
    if workload == "model-surfaces":
        a3 = rng.choice(ALPHAS_THEOREM3)
        return [
            _cli("theorem3", "theorem3", {"alpha": a3, "degrees": [64, 128, 256, 512]}),
            _cli("dyadic", "dyadic", {"alpha": rng.choice(ALPHAS_THEOREM3)}),
            _cli("kn", "kn", {"degree": 256}),
            _cli("kernel", "kernel", {"lambda": 100.0, "x_max": 4.0}),
            _cli("restrict", "restrict", {"alpha": rng.choice(ALPHAS_THEOREM3)}),
            _cli("energy", "energy", {"alpha": rng.choice(ALPHAS_MEASURE)}),
            _cli("measure", "measure", {"alpha": rng.choice(ALPHAS_MEASURE)}),
            _cli("exponents", "exponents", {"n_alpha": 100}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def job_key(job: dict) -> str:
    """Reference-table key: the job spec without its display name."""
    return json.dumps({k: v for k, v in job.items() if k != "name"}, sort_keys=True)


def _compare(got, ref, path: str, problems: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                            f" != {sorted(ref)}")
            return
        for k in ref:
            _compare(got[k], ref[k], f"{path}.{k}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: {got!r} != {ref!r}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{i}]", problems)
    elif isinstance(ref, (bool, int, str)) or ref is None:
        if got != ref or type(got) is not type(ref):
            problems.append(f"{path}: {got!r} != {ref!r} (exact)")
    else:
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) \
            and abs(got - ref) <= RTOL * abs(ref) + ATOL
        if not ok:
            problems.append(f"{path}: {got!r} vs reference {ref!r}")


def _verdicts(summary, path: str, problems: list) -> None:
    if isinstance(summary, dict):
        for k, v in summary.items():
            if k in VERDICTS:
                for i, flag in enumerate(v if isinstance(v, list) else [v]):
                    if flag not in (True, 1, "True") or isinstance(flag, float):
                        problems.append(f"{path}.{k}[{i}] is {flag!r}, must be true")
            _verdicts(v, f"{path}.{k}", problems)


def check_job(job: dict, summary: dict, references: dict) -> list[str]:
    """Problems with one job's summary; empty when it is correct."""
    ref = references.get(job_key(job))
    if ref is None:
        return [f"{job['name']}: no reference recorded for {job_key(job)}"]
    problems: list[str] = []
    _compare(summary, ref, job["name"], problems)
    _verdicts(summary, job["name"], problems)
    return problems
