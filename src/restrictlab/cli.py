"""Experiment orchestration: validated configs in, deterministic CSV out.

Every experiment writes one CSV under the output root whose first line is a
'#'-prefixed JSON echo of the fully-defaulted config, then prints a JSON
summary to stdout.  Exit codes: 0 ok, 2 validation, 3 resource budget,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import math

import numpy as np

from . import frequency, geometry, hecke, integrals, measures, modes, spherical
from .errors import DomainError, NonConvergenceError, ResourceError

EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE, EXIT_NONCONVERGENCE = 0, 2, 3, 4

# sizes of the loops that run here; a larger request exits 3 before its loop
RADII_BUDGET = 1 << 16        # measure: radii n_r
DRAW_BUDGET = 1 << 20         # amplifier: draws x isqrt(N), the sieve length per draw
ALPHA_GRID_BUDGET = 1 << 16   # exponents: rows n_alpha


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    out: str = "results"
    seed: int = 0


def _positive(v):
    return v > 0


def _in_unit(v):
    return 0 < v <= 1


def _distinct(v):
    """A list to sweep over: nonempty, with no value twice."""
    return bool(v) and len(set(v)) == len(v)


def _rational(v) -> str:
    """A rational number as a normalised string such as '1/2'."""
    return str(Fraction(str(v)))


def _coerce(typ, v):
    """v converted to typ, element by element for a list type such as [int];
    raises ValueError for a bool, a non-integral float where an int is due,
    or a float that is not finite."""
    if isinstance(typ, list):
        if not isinstance(v, (list, tuple)):
            raise ValueError(v)
        return [_coerce(typ[0], x) for x in v]
    if isinstance(v, bool) or (typ is int and isinstance(v, float) and not v.is_integer()):
        raise ValueError(v)
    out = typ(v)
    if isinstance(out, float) and not math.isfinite(out):
        raise ValueError(v)
    return out


def _type_name(typ) -> str:
    if isinstance(typ, list):
        return f"list of {_type_name(typ[0])}"
    return "finite float" if typ is float else typ.__name__.lstrip("_")


def load_config(path: str = None, experiment: str = None, overrides: dict = None,
                out: str = None, seed: int = None) -> ExperimentConfig:
    """Build and validate a config from a JSON file and/or inline values.

    Inline overrides win over the file's params, and an explicit out or seed
    over the file's; defaults fill the rest and the full config is echoed in
    every artifact.
    """
    data = {}
    if path is not None:
        try:
            raw = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise DomainError(f"cannot read config {path}: {e}")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise DomainError(f"malformed config {path}: line {e.lineno}: {e.msg}")
        if not isinstance(data, dict):
            raise DomainError(f"config {path} must contain a JSON object")
    name = experiment or data.get("experiment")
    if name not in EXPERIMENTS:
        raise DomainError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    file_params = data.get("params", {})
    file_seed = data.get("seed", 0)
    file_out = data.get("out", "results")
    if not isinstance(file_params, dict):
        raise DomainError(f"'params' = {file_params!r} must be an object")
    if not isinstance(file_seed, int) or isinstance(file_seed, bool):
        raise DomainError(f"'seed' = {file_seed!r} must be an integer")
    if not isinstance(file_out, str):
        raise DomainError(f"'out' = {file_out!r} must be a string")
    seed = file_seed if seed is None else seed
    if seed < 0:   # numpy's default_rng refuses it with a ValueError
        raise DomainError(f"seed = {seed} must be >= 0")
    out = file_out if out is None else out
    params = dict(file_params)
    params.update(overrides or {})
    schema = _EXPERIMENTS[name][1]
    unknown = set(params) - set(schema)
    if unknown:
        raise DomainError(f"unknown parameter(s) {sorted(unknown)} for {name}")
    filled = {}
    for key, (typ, default, check) in schema.items():
        val = params.get(key, default)
        if val is not None or default is not None:   # None only where it is the default
            try:
                val = _coerce(typ, val)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise DomainError(f"parameter {key!r} = {val!r} must have type "
                                  f"{_type_name(typ)}")
            if check is not None and not check(val):
                raise DomainError(f"parameter {key!r} = {val} violates its precondition")
        filled[key] = val
    return ExperimentConfig(name, filled, out=out, seed=seed)


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return format(v, ".12g")
    if v is None:
        return ""
    return str(v)


def _finite(v):
    """v with every non-finite float replaced by None, so stdout is strict JSON."""
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _write_csv(path: Path, cfg: ExperimentConfig, rows: list[dict]) -> None:
    header = list(rows[0])
    tmp = path.with_suffix(".tmp")
    meta = asdict(cfg)
    meta.pop("out")   # artifact bytes must not depend on where they land
    with tmp.open("w") as fh:
        fh.write("#" + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in header) + "\n")
    tmp.replace(path)


def _integral_setup(p: dict, shears=()):
    """(kernel on [0, 1], phi w, ||phi||^2_L2(w)) of an integral run, phi the
    modulated Gaussian at lam and phi w sampled on the window grid; the
    kernel's, the measure's and the weight's budgets and the band budget of
    each lower shear t in `shears` (the half band its quadratic eval_I reads)
    are all checked before the bump, the weight or the kernel is built.  The
    weight's budget also bounds a band projection of phi w."""
    lam, spw = p["lambda"], p["resolution_per_wavelength"]
    spherical.check_kernel_budget(lam, 1.0)
    # the smallest depth from 8 up whose Cantor cells 2^(-depth / alpha) are
    # at most 1/lam wide
    depth = max(8, math.ceil(p["alpha"] * math.log2(lam)))
    nu = measures.make_cantor_measure(p["alpha"], depth)
    h, n = measures.check_weight_budget(nu.atoms.size, lam, spw)
    # the window grid of the weight's grid -WEIGHT_EDGE + h * arange(n + 1)
    _, x = integrals._window_grid(-measures.WEIGHT_EDGE, h, n + 1)
    for t in shears:
        integrals.check_band_budget(geometry.GroupElement.lower_shear(t), x, h,
                                    spherical._kernel_reach(lam), quadratic=True)
    w = measures.build_weight(nu, lam, frequency.BumpPair(), samples_per_wavelength=spw)
    _, phi, fw, wpad = integrals._phi_w_on_window_grid(
        w, lambda x: integrals.modulated_gaussian(x, lam), lam)
    norm_sq = float(np.sum(np.abs(phi) ** 2 * wpad) * w.grid_step)
    return spherical.make_kernel(lam, x_max=1.0), fw, norm_sq


def _run_measure(cfg):
    p = cfg.params
    m = measures.make_cantor_measure(p["alpha"], p["depth"])
    if p["n_r"] > RADII_BUDGET or p["n_r"] * m.atoms.size > measures.WORK_BUDGET:
        raise ResourceError(f"{p['n_r']} radii x {m.atoms.size} atoms exceed budget"
                            f" {RADII_BUDGET} radii or {measures.WORK_BUDGET} atom-radius pairs")
    rs = np.geomspace(p["r_min"], p["r_max"], p["n_r"])
    rows = [{"r": float(r), "sup_ratio": measures.frostman_ratio(m, r)} for r in rs]
    return rows, {
        "sup_ratio_overall": max(r["sup_ratio"] for r in rows), "atoms": int(m.atoms.size)}


def _run_energy(cfg):
    p = cfg.params
    rows = []
    for depth in p["depths"]:
        m = measures.make_cantor_measure(p["alpha"], int(depth))
        for s in p["s_values"]:
            rows.append({"depth": depth, "s": s, "energy": measures.energy(m, float(s))})
    ratios = {}
    for s in p["s_values"]:
        vals = [r["energy"] for r in rows if r["s"] == s]
        if len(vals) >= 2:
            ratios[str(s)] = vals[-1] / vals[0]
    return rows, {"depth_ratios": ratios}


def _run_kernel(cfg):
    p = cfg.params
    k = spherical.make_kernel(p["lambda"], p["x_max"])
    n_x, _ = spherical.check_kernel_budget(p["lambda"], p["x_max"])
    i = np.arange(0, n_x, spherical.SAMPLES_PER_WAVELENGTH)   # one row per wavelength
    vals = np.pad(k.values, (0, n_x))[i]   # k is 0 past the table
    rows = [{"x": float(xx), "k": float(vv)} for xx, vv in zip(k.x_step * i, vals)]
    return rows, {
        "k_at_0": float(k.values[0]), "decay_constant": spherical.kernel_decay_constant(k),
        "support_radius": k.support_radius, "verify_residual": k.verify_residual}


def _run_hecke_returns(cfg):
    p = cfg.params
    alg = hecke.QuatAlgebra(p["a"], p["b"], basis=p["order_basis"], q=p["q"])
    sup, rows = hecke.return_count_ratio(alg, [geometry.GroupElement.identity()],
                                         p["n_max"], p["kappas"])
    return ([dict(zip(("n", "kappa", "M", "shape_ratio"), row[1:])) for row in rows],
            {"max_shape_ratio": sup})


def _run_amplifier(cfg):
    p = cfg.params
    if p["draws"] * math.isqrt(p["N"]) > DRAW_BUDGET:
        raise ResourceError(f"{p['draws']} draws x isqrt(N) = {math.isqrt(p['N'])}"
                            f" exceed budget {DRAW_BUDGET}")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = np.inf
    for i in range(p["draws"]):
        eigs = hecke.random_hecke_eigenvalues(p["N"], rng)
        amp = hecke.build_amplifier(p["N"], eigs, q=p["q"])
        # the functional needs lambda(n) on the support; p and p^2 are stored
        val = abs(amp.eigenvalue_functional(eigs))
        worst = min(worst, val)
        if i < 32:
            rows.append({"draw": i, "functional": val, "l1": amp.moment_l1(),
                         "l2_sq": amp.moment_l2()})
    # every draw stores one coefficient, at p or p^2, per prime p <= sqrt(N)
    # prime to q (draws >= 1, so amp is bound)
    n_primes = len(amp.coeffs)
    return rows, {
        "n_primes": n_primes, "min_functional": worst,
        "bound": 0.5 * n_primes, "holds": bool(worst >= 0.5 * n_primes)}


def _run_integrals(cfg):
    p = cfg.params
    kern, fw, _ = _integral_setup(p, [p["shear_t"]])
    g = geometry.GroupElement.lower_shear(p["shear_t"])
    rep = integrals.eval_I(kern, integrals.TestWindow(), fw, g)
    row = {"value_re": rep.value.real, "value_im": rep.value.imag,
           "error": rep.error_estimate, "lambda": rep.lam,
           "resolution": rep.resolution, "converged": int(rep.converged),
           "g": f"shear({p['shear_t']})",
           # always empty; perfbench/reference.json pins both columns until
           # the next benchmark change
           "beta": None, "alpha": None}
    return [row], {"value": [rep.value.real, rep.value.imag],
                   "error": rep.error_estimate, "converged": rep.converged}


def _run_beta_scaling(cfg):
    p = cfg.params
    lam, alpha = p["lambda"], p["alpha"]
    kern, fw, norm_sq = _integral_setup(p)
    rows = []
    for beta in sorted(lam ** e for e in p["beta_exponents"]):
        fperp = frequency.band_project(lam, beta, fw, "complement")
        rep = integrals.eval_I(kern, integrals.TestWindow(), fperp,
                               geometry.GroupElement.identity())
        bound = lam ** 0.5 * beta ** (-(alpha - 0.5)) * norm_sq
        rows.append({"beta": beta, "abs_I": abs(rep.value),
                     "normalized": abs(rep.value) / bound if bound > 0 else 0.0,
                     "error": rep.error_estimate, "converged": rep.converged})
    lb = np.log([r["beta"] for r in rows])
    lv = np.log([max(r["abs_I"], 1e-300) for r in rows])
    slope = float(np.polyfit(lb, lv, 1)[0])
    target = -(alpha - 0.5) + 0.15
    return rows, {"slope": slope, "target": target, "phi_norm_sq": norm_sq,
                  "slope_ok": bool(slope <= target)}


def _run_rapid_decay(cfg):
    p = cfg.params
    lam = p["lambda"]
    beta = lam ** p["beta_exponent"]
    # a shear too large for dist_to_diag is refused before anything is built
    t_star, shears = integrals.rapid_decay_shears(
        lam, beta, p["epsilon0"], p["t_factors"])
    kern, fw, _ = _integral_setup(p, [t for _, t, _ in shears])
    fpass = frequency.band_project(lam, beta, fw, "pass")
    rows = []
    for fac, t, d_A in shears:
        rep = integrals.eval_I(kern, integrals.TestWindow(), fpass,
                               geometry.GroupElement.lower_shear(t))
        rows.append({"t": t, "factor": fac, "dist_A": d_A, "abs_I": abs(rep.value),
                     "error": rep.error_estimate, "converged": rep.converged})
    # the factors are >= 0 and include 0, so rows[0] is t = 0
    base = rows[0]["abs_I"]
    contrast = rows[-1]["abs_I"] / base if base else float("nan")
    return rows, {
        "contrast": contrast, "threshold_t": t_star, "contrast_ok": bool(contrast <= 1e-3)}


def _run_restrict(cfg):
    p = cfg.params
    mu = measures.make_cantor_measure(p["alpha"], p["depth"])
    rows = []
    for l in p["degrees"]:
        mode = modes.SphereMode(p["kind"], int(l))
        rows.append({"degree": int(l), "lambda": mode.lam,
                     "norm": modes.restriction_norm(mode, mu)})
    summary = {}
    if len(rows) >= 3:
        slope, resid = modes.fit_exponent([(r["lambda"], r["norm"]) for r in rows])
        summary = {"fit_exponent": slope, "fit_residual": resid}
    return rows, summary


def _run_kn(cfg):
    p = cfg.params
    row = modes.kn_norm(modes.SphereMode(p["kind"], p["degree"]))
    return [row], {"s_kn": row["s_kn"], "lambda": row["lambda"]}


def _run_theorem3(cfg):
    p = cfg.params
    alpha = p["alpha"]
    sphere_modes = [modes.SphereMode("highest_weight", int(l)) for l in p["degrees"]]
    rows = []
    for mode in sphere_modes:
        # |e| is constant on the equator, so this is ||e||_{L^2(mu)} for every
        # probability measure mu there
        lhs = float(np.sqrt(mode.density(0.0)))
        s_kn = modes.kn_norm(mode)["s_kn"]
        bound = mode.lam ** 0.25 * s_kn ** (alpha - 0.5)
        if alpha == 1.0:   # the bound's log(lam) loss at the endpoint
            bound *= max(np.log(mode.lam), 1.0)
        rows.append({"lambda": mode.lam, "lhs": lhs, "skn": s_kn,
                     "bound": bound, "ratio": lhs / bound})
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
    return rows, {
        "ratio_spread": spread, "spread_ok": bool(spread <= 4.0)}


def _run_exponents(cfg):
    n = cfg.params["n_alpha"]
    if n > ALPHA_GRID_BUDGET:
        raise ResourceError(f"{n} alpha values exceed budget {ALPHA_GRID_BUDGET}")
    rows = []
    for k in range(1, n + 1):
        alpha = Fraction(2 * k, n)
        mid = Fraction(1, 2) < alpha <= 1
        rows.append({"alpha": alpha, "gamma": modes.gamma_exponent(alpha),
                     "delta": modes.delta_exponent(alpha) if mid else None,
                     "marshall": modes.marshall_exponent(alpha) if mid else None})
    return rows, {
        "rows": len(rows), "delta_at_1": str(modes.delta_exponent(Fraction(1)))}


def _run_dyadic(cfg):
    p = cfg.params
    lam = p["lambda"]
    modes.check_dyadic_budget(lam)
    for k in p["k_indices"]:
        modes.check_dyadic_scale(lam, k)
    # lam < 3,620 passed DYADIC_BUDGET: 64 atoms x <= 115,830 points need no pre-check
    w = measures.build_weight(measures.make_cantor_measure(p["alpha"], 6), lam,
                              frequency.BumpPair())
    rows = []
    summaries = {}
    for k in p["k_indices"]:
        rep = modes.dyadic_kernel_check(lam, int(k), w)
        rows += [{"k_index": k, **r} for r in rep.pop("rows")]
        summaries[str(k)] = rep
    return rows, {"per_k": summaries}


# the parameters the three integral runs share; integrals widens alpha to (0, 1]
_INTEGRAL_RUN = {
    "lambda": (float, 100.0, lambda v: v >= spherical.MIN_LAMBDA),
    "alpha": (float, 0.9, lambda v: 0.5 < v <= 1),
    "resolution_per_wavelength": (int, measures.MIN_SAMPLES_PER_WAVELENGTH,
                                  lambda v: v >= measures.MIN_SAMPLES_PER_WAVELENGTH)}

# experiment name -> (runner, parameter schema), in the CLI's order.  A runner
# returns (CSV rows, summary); the rows are dicts, and the first row's keys are
# the CSV header, so every list a run sweeps over is refused when empty, and
# when it repeats a value, which would duplicate rows under one summary key.  A
# schema maps each parameter to (type, default, validator); a type in
# brackets, such as [int], types a list element by element
_EXPERIMENTS = {
    "measure": (_run_measure, {
        "alpha": (float, 0.6309297535714574, _in_unit),
        "depth": (int, 6, lambda v: v >= 0),
        "r_min": (float, 1e-3, _positive), "r_max": (float, 1.0, _in_unit),
        "n_r": (int, 32, _positive)}),
    "energy": (_run_energy, {
        "alpha": (float, 0.6309297535714574, _in_unit),
        # a depth-0 measure is one atom: no off-diagonal pair, energy 0
        "depths": ([int], [6, 8], lambda v: _distinct(v) and min(v) >= 1),
        "s_values": ([float], [0.3, 0.55, 0.8], _distinct)}),
    "kernel": (_run_kernel, {
        "lambda": (float, 100.0, lambda v: v >= spherical.MIN_LAMBDA),
        "x_max": (float, 4.0, _positive)}),
    "hecke-returns": (_run_hecke_returns, {
        "a": (int, 2, _positive), "b": (int, 3, None),
        "q": (int, 6, _positive),
        "order_basis": ([[_rational]], None,
                        lambda v: len(v) == 4 and all(len(r) == 4 for r in v)),
        "n_max": (int, 8, _positive),
        "kappas": ([float], [1.0, 0.5, 0.25, 0.125],
                   lambda v: _distinct(v) and all(map(_in_unit, v)))}),
    "amplifier": (_run_amplifier, {
        "N": (int, 400, _positive), "q": (int, 1, _positive),
        "draws": (int, 1000, _positive)}),
    "integrals": (_run_integrals, {
        **_INTEGRAL_RUN, "alpha": (float, 0.9, _in_unit),
        "shear_t": (float, 0.0, None)}),
    # bands lam^0.2 <= beta = lam^e <= lam^0.8, and at least two for the slope
    "beta-scaling": (_run_beta_scaling, {
        **_INTEGRAL_RUN,
        "beta_exponents": ([float], [0.3, 0.4, 0.5, 0.6],
                           lambda v: len(v) >= 2 and _distinct(v)
                           and all(0.2 <= e <= 0.8 for e in v))}),
    "rapid-decay": (_run_rapid_decay, {
        **_INTEGRAL_RUN,
        "beta_exponent": (float, 0.5, lambda v: 0 < v < 1),
        # t* = lam^(-1/2+eps0) beta^(1/2) is a shear below beta^(1/2)
        "epsilon0": (float, 0.1, lambda v: 0 < v < 0.5),
        "t_factors": ([float], [0.0, 0.25, 0.5, 1.0, 2.0, 4.0],
                      lambda v: _distinct(v) and 0 in v and min(v) >= 0)}),
    "restrict": (_run_restrict, {
        "kind": (str, "highest_weight", lambda v: v in ("zonal", "highest_weight")),
        "degrees": ([int], [64, 128, 256, 512], _distinct),
        "alpha": (float, 0.7, _in_unit),
        "depth": (int, 8, lambda v: v >= 0)}),
    "kn": (_run_kn, {
        "kind": (str, "highest_weight", lambda v: v in ("zonal", "highest_weight")),
        "degree": (int, 64, lambda v: 1 <= v <= modes.MAX_DEGREE)}),
    "theorem3": (_run_theorem3, {
        "alpha": (float, 0.7, lambda v: 0.5 < v <= 1),
        "degrees": ([int], [64, 128, 256], _distinct)}),
    "exponents": (_run_exponents, {"n_alpha": (int, 100, lambda v: v >= 2)}),
    "dyadic": (_run_dyadic, {
        "lambda": (float, 128.0, lambda v: v >= 10),
        "alpha": (float, 0.7, _in_unit),
        "k_indices": ([int], [-2, -1], _distinct)}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment, write its CSV `<experiment>.csv` (dashes as
    underscores) into cfg.out and return the machine-readable summary.

    Deterministic for a fixed (config, seed); no artifact is left on failure
    (the CSV is written to a temp file and renamed on success).  cfg.out is
    created before the experiment runs, so an unusable path costs no work.
    """
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DomainError(f"cannot create output directory {cfg.out}: {e}")
    rows, summary = _EXPERIMENTS[cfg.experiment][0](cfg)
    _write_csv(out_dir / f"{cfg.experiment.replace('-', '_')}.csv", cfg, rows)
    return {"experiment": cfg.experiment, "config": asdict(cfg), "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="restrictlab",
        description="Run one of the restriction-estimate experiments.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: the config file's, else results)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: the config file's, else 0)")
    parser.add_argument("--param", "-p", action="append", default=[],
                        metavar="KEY=JSON", help="inline parameter override")
    args = parser.parse_args(argv)
    overrides = {}
    for kv in args.param:
        if "=" not in kv:
            print(f"error: --param needs KEY=JSON, got {kv!r}", file=sys.stderr)
            return EXIT_VALIDATION
        key, raw = kv.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    try:
        cfg = load_config(args.config, args.experiment, overrides,
                          out=args.out, seed=args.seed)
        result = run_experiment(cfg)
    except DomainError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except NonConvergenceError as e:
        print(f"non-convergence: {e}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    print(json.dumps(_finite(result), sort_keys=True, default=_fmt, allow_nan=False))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
