"""Acceptance suite: one test per criterion, run at the stated tolerance.

Each test prints a single [PASS]/[FAIL] line with the measured quantities
(run pytest with -s to see them); assertions carry the same tolerances.
Criteria 3 and 7-11 run the CLI's experiments and check the summary and the
CSV rows that the run writes.
"""

import csv
import math
import time
from fractions import Fraction

import numpy as np

import restrictlab as rl
from restrictlab import cli
from restrictlab.spherical import _h0_squared

from conftest import (ALPHA_CANTOR, cached_algebra, cached_kernel, cached_weight,
                      decade_sweep, fourier_energy_identity, gamma_factor, hc_forward,
                      optimal_amplifier_length, optimal_bandwidth, phi_s, phi_s_radial)


def _report(num: int, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")


def _cli(tmp_path, experiment: str, seed: int = 0, **params):
    """(summary, CSV rows) of `restrictlab <experiment>` with params: the CLI's
    config validation, runner and CSV writer, the rows as dicts of strings."""
    cfg = cli.load_config(None, experiment, params, out=str(tmp_path), seed=seed)
    summary = cli.run_experiment(cfg)["summary"]
    with (tmp_path / f"{experiment.replace('-', '_')}.csv").open() as fh:
        next(fh)   # the '#' config echo
        return summary, list(csv.DictReader(fh))


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_01_energy_identity():
    # three (phi, w, s) triples agree across the two independent quadrature
    # routes within 1e-3 relative, including s = 1/2 where the Gamma-ratio
    # prefactor equals 1
    limit = 10.0
    with _Timer() as t:
        assert gamma_factor(0.5) == 1.0
        h = 1e-3
        n = int(round(4.0 / h)) + 1
        x = -2.0 + h * np.arange(n)
        triangle = rl.WeightFunction(-2.0, h, np.maximum(1 - np.abs(x), 0.0), 1.0)
        w_cantor = cached_weight(ALPHA_CANTOR, 6, 50.0)
        xc = w_cantor.grid()
        triples = [
            (triangle, np.ones(n, dtype=complex), 0.5),
            (triangle, np.exp(12j * x) * np.exp(-2 * x ** 2), 0.7),
            (w_cantor, np.exp(5j * xc) * np.exp(-0.5 * xc ** 2), 0.5),
        ]
        worst = 0.0
        for w, phi, s in triples:
            lhs, rhs = fourier_energy_identity(w, phi, s)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-3 and t.elapsed < limit
    _report(1, ok, f"max relative identity gap {worst:.2e} (tol 1e-3)", t.elapsed, limit)
    assert worst <= 1e-3
    assert t.elapsed < limit


def test_criterion_02_frostman_scaling():
    # decade suprema of the interval ratio for the depth-6 Cantor weight stay
    # within a factor 2 across radii decades and across lambda in {100, 400}
    limit = 30.0
    with _Timer() as t:
        sups = []
        for lam in (100.0, 400.0):
            w = cached_weight(ALPHA_CANTOR, 6, lam)
            sups.extend(s for (_, _, s) in decade_sweep(w, 1.0 / lam))
        factor = max(sups) / min(sups)
    ok = factor < 2.0 and t.elapsed < limit
    _report(2, ok, f"decade-sup spread {factor:.3f} (tol < 2)", t.elapsed, limit)
    assert factor < 2.0
    assert t.elapsed < limit


def test_criterion_03_kernel_decay(tmp_path):
    limit = 120.0
    with _Timer() as t:
        consts = {lam: _cli(tmp_path, "kernel", x_max=1, **{"lambda": lam})[0]["decay_constant"]
                  for lam in (50.0, 100.0, 200.0)}
        factor = max(consts.values()) / min(consts.values())
    ok = factor < 2.0 and t.elapsed < limit
    _report(3, ok, f"sup |k|(1+lam x)^(1/2)/lam = {consts}; spread {factor:.3f}",
            t.elapsed, limit)
    assert factor < 2.0
    assert t.elapsed < limit


def test_criterion_04_spherical_correctness():
    limit = 60.0
    with _Timer() as t:
        # eigen-equation residual and Weyl symmetry at s in {10, 50}
        worst_resid = 0.0
        worst_weyl = 0.0
        for s in (10.0, 50.0):
            h = 5e-4
            r = np.arange(0.1, 2.0, h)
            v = phi_s_radial(s, r)
            lap = ((v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
                   + (v[2:] - v[:-2]) / (2 * h) / np.tanh(r[1:-1]))
            worst_resid = max(worst_resid,
                              float(np.abs(lap + (0.25 + s * s) * v[1:-1]).max()
                                    / (0.25 + s * s)))
            for xx in (0.3, 1.2):
                g = rl.GroupElement.diag_flow(xx)
                worst_weyl = max(worst_weyl, abs(phi_s(s, g) - phi_s(-s, g)))
        # transform roundtrip at the spectral center
        k = cached_kernel(100.0)
        worst_rt = 0.0
        for s in (99.0, 100.0, 101.0):
            fwd = hc_forward(k.radial, s, support_radius=k.support_radius + 0.05)
            h0_sq = _h0_squared(k.lam, s)
            worst_rt = max(worst_rt, abs(fwd - h0_sq) / h0_sq)
    ok = (worst_resid <= 1e-4 and worst_weyl <= 1e-10 and worst_rt <= 1e-5
          and t.elapsed < limit)
    _report(4, ok, f"eigen residual {worst_resid:.2e} (tol 1e-4), "
            f"Weyl {worst_weyl:.2e} (tol 1e-10), roundtrip {worst_rt:.2e} (tol 1e-5)",
            t.elapsed, limit)
    assert worst_resid <= 1e-4
    assert worst_weyl <= 1e-10
    assert worst_rt <= 1e-5
    assert t.elapsed < limit


def test_criterion_05_hecke_enumeration():
    limit = 120.0
    from test_hecke import brute_force_norm_n, oracle_returns
    alg = cached_algebra()
    g0 = rl.GroupElement.identity()
    with _Timer() as t:
        mismatch = []
        for n in range(1, 21):
            fast = [v for v, _ in rl.enumerate_norm_n(alg, n, g0, radius=1.0)]
            if fast != brute_force_norm_n(alg, n, g0, radius=1.0):
                mismatch.append(n)
        # the return counts of the `hecke-returns` experiment's code path
        _, rows = rl.return_count_ratio(alg, [g0], 20, [0.25, 1.0])
        assert [row[1:3] for row in rows] == [(n, k) for n in range(1, 21)
                                              for k in (0.25, 1.0)]
        m_bad = [(n, kappa) for _, n, kappa, M, _ in rows
                 if M != oracle_returns(alg, g0, n, kappa)]
        g_grid = [rl.GroupElement.identity(),
                  rl.GroupElement.diag_flow(0.25),
                  rl.GroupElement.diag_flow(0.25) @ rl.GroupElement.rotation(0.3),
                  rl.GroupElement.rotation(0.6)]
        best, rows = rl.return_count_ratio(
            alg, g_grid, 12, [1.0, 0.5, 0.25, 0.125, 0.0625])
    ok = (not mismatch and not m_bad and np.isfinite(best) and t.elapsed < limit)
    _report(5, ok, f"enumeration exact (n<=20), returns exact, "
            f"return-shape ratio sup {best:.3f}", t.elapsed, limit)
    assert mismatch == []
    assert m_bad == []
    assert np.isfinite(best)
    assert t.elapsed < limit


def test_criterion_06_amplifier():
    limit = 5.0
    with _Timer() as t:
        rng = np.random.default_rng(42)
        n_primes = len(rl.primes_up_to(int(math.isqrt(400))))
        worst = np.inf
        for _ in range(1000):
            eigs = rl.random_hecke_eigenvalues(400, rng)
            amp = rl.build_amplifier(400, eigs, q=1)
            assert amp.moment_l1() == amp.moment_l2() == float(n_primes)
            worst = min(worst, abs(amp.eigenvalue_functional(eigs)))
    ok = worst >= 0.5 * n_primes and t.elapsed < limit
    _report(6, ok, f"moments exact (= {n_primes}); min |functional| {worst:.3f} "
            f">= {0.5 * n_primes}", t.elapsed, limit)
    assert worst >= 0.5 * n_primes
    assert t.elapsed < limit


def test_criterion_07_rapid_decay_contrast(tmp_path):
    # the default lambda = 100 and the ladder's 200, 400, 800 and 1600; at
    # alpha = 0.9 the derived depth is 8 (cells r^8 = 2.1e-3 resolve 1/lam up
    # to lam = 474), 9 at lam = 800 and 10 at lam = 1600
    limit = 600.0
    with _Timer() as t:
        runs = {lam: _cli(tmp_path, "rapid-decay", **{"lambda": lam})
                for lam in (100.0, 200.0, 400.0, 800.0, 1600.0)}
        for _, rows in runs.values():
            assert all(r["converged"] == "True" for r in rows[:2])
    summary = runs[100.0][0]
    contrasts = {lam: s["contrast"] for lam, (s, _) in runs.items()}
    ok = (all(s["contrast_ok"] for s, _ in runs.values())
          and max(contrasts.values()) <= 1e-3 and t.elapsed < limit)
    ladder = ", ".join(f"{c:.2e} at lam = {lam:g}" for lam, c in contrasts.items())
    _report(7, ok, f"far/near contrast {summary['contrast']:.2e} at t = 4 x "
            f"{summary['threshold_t']:.3f} (tol 1e-3); ladder {ladder}", t.elapsed, limit)
    assert max(contrasts.values()) <= 1e-3
    assert all(s["contrast_ok"] for s, _ in runs.values())
    assert t.elapsed < limit


def test_criterion_08_beta_scaling_slope(tmp_path):
    # the default lambda = 100 and the ladder's 200 to 3200, at the derived
    # depths 8, 8, 8, 9, 10 and 11; each rung runs again at 16 samples per
    # wavelength, which must agree with 8 as closely as `converged` claims
    limit = 900.0
    alpha = 0.9
    ladder = (100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0)
    with _Timer() as t:
        runs = {lam: _cli(tmp_path, "beta-scaling", **{"lambda": lam}) for lam in ladder}
        fine = {lam: _cli(tmp_path, "beta-scaling", **{"lambda": lam,
                                                       "resolution_per_wavelength": 16})[1]
                for lam in ladder}
        normalized = [float(r["normalized"]) for _, rows in runs.values() for r in rows]
        assert all(np.isfinite(normalized))
    target = -(alpha - 0.5) + 0.15
    slopes = {lam: s["slope"] for lam, (s, _) in runs.items()}
    band = max(normalized) / min(normalized)
    # |I_8 - I_16| against |I_8| and against the error that rung 8 reports
    gaps = {lam: [(abs(float(r["abs_I"]) - float(q["abs_I"])), float(r["abs_I"]),
                   float(r["error"])) for r, q in zip(runs[lam][1], fine[lam], strict=True)]
            for lam in ladder}
    agree = all(d <= 0.01 * v for rows in gaps.values() for d, v, _ in rows)
    honesty = ", ".join(f"{max(d / e for d, _, e in rows):.2f} at lam = {lam:g}"
                        for lam, rows in gaps.items())
    ok = (max(slopes.values()) <= target and all(s["slope_ok"] for s, _ in runs.values())
          and band < 2.0 and agree and t.elapsed < limit)
    rungs = ", ".join(f"{v:.3f} at lam = {lam:g}" for lam, v in slopes.items())
    _report(8, ok, f"fitted slope {slopes[100.0]:.3f} <= {target:.2f}; ladder {rungs};"
            f" normalized {min(normalized):.3f}-{max(normalized):.3f}"
            f" (band {band:.3f}, tol < 2); |I_8 - I_16| <= 0.01 |I_8| {agree};"
            f" max |I_8 - I_16| / error_8 {honesty}", t.elapsed, limit)
    assert max(slopes.values()) <= target
    assert all(s["slope_ok"] for s, _ in runs.values())
    assert band < 2.0
    assert agree
    assert t.elapsed < limit


def test_criterion_09_sharpness_exponent(tmp_path):
    limit = 300.0
    with _Timer() as t:
        slope = _cli(tmp_path, "restrict")[0]["fit_exponent"]
    ok = abs(slope - 0.25) <= 0.03 and t.elapsed < limit
    _report(9, ok, f"restriction growth exponent {slope:.4f} (0.25 +- 0.03)",
            t.elapsed, limit)
    assert abs(slope - 0.25) <= 0.03
    assert t.elapsed < limit


def test_criterion_10_tube_norm_ratio(tmp_path):
    limit = 1200.0
    with _Timer() as t:
        spreads = {alpha: _cli(tmp_path, "theorem3", alpha=alpha,
                               degrees=[64, 128, 256, 512])[0]["ratio_spread"]
                   for alpha in (0.7, 0.9)}
    ok = all(s <= 4.0 for s in spreads.values()) and t.elapsed < limit
    _report(10, ok, f"ratio spreads {spreads} (tol <= 4)", t.elapsed, limit)
    assert all(s <= 4.0 for s in spreads.values())
    assert t.elapsed < limit


def test_criterion_11_exponent_tables(tmp_path):
    limit = 1.0
    with _Timer() as t:
        # n_alpha = 200 puts alpha on k/100; delta and marshall fill the rows
        # of (1/2, 1], the 50 points 51/100 .. 1
        summary, rows = _cli(tmp_path, "exponents", n_alpha=200)
        assert summary["delta_at_1"] == "1/28"
        grid = [Fraction(1, 2) + Fraction(k, 100) for k in range(1, 51)]
        assert [Fraction(r["alpha"]) for r in rows if r["delta"]] == grid
        for r in rows:
            if r["delta"]:
                gap = Fraction(r["delta"]) - Fraction(r["marshall"])
                assert gap > 0 or (Fraction(r["alpha"]) == 1 and gap == 0)
        eps = Fraction(1, 10 ** 12)
        c_half = (rl.gamma_exponent(Fraction(1, 2)) ==
                  rl.gamma_exponent(Fraction(1, 2) + eps) == Fraction(1, 4))
        c_one = (rl.gamma_exponent(Fraction(1)) == Fraction(1, 4)
                 and abs(rl.gamma_exponent(Fraction(1) + eps) - Fraction(1, 4)) <= eps)
    ok = c_half and c_one and t.elapsed < limit
    _report(11, ok, "delta(1) = 1/28 exactly; delta > marshall on (1/2,1); "
            "gamma continuous at 1/2 and 1", t.elapsed, limit)
    assert c_half and c_one
    assert t.elapsed < limit


def test_criterion_12_hyperbolic_power_saving_not_desk_reproducible():
    # The full power saving for genuine arithmetic eigenfunctions needs the
    # eigenfunctions themselves (cocompact-surface eigensolvers), which this
    # laboratory deliberately excludes.  Its computable ingredients are the
    # objects certified by criteria 5-8: the return counts and amplifier
    # (criteria 5, 6), the off-diagonal decay (criterion 7), and the
    # complement-band scaling (criterion 8); the parameter choices that
    # combine them into the final exponent are checked here exactly.
    from restrictlab.modes import delta_exponent
    for alpha in (0.6, 0.75, 0.9, 1.0):
        lam = 257.0
        beta = optimal_bandwidth(lam, alpha)
        e1 = 0.25 - (alpha - 0.5) / 2.0 * np.log(beta) / np.log(lam)
        e2 = 5.0 / 24.0 + np.log(beta) / 24.0 / np.log(lam)
        assert abs(e1 - e2) <= 1e-12
        assert abs(e1 - (0.25 - float(delta_exponent(alpha)))) <= 1e-12
        assert optimal_amplifier_length(lam, beta) > 1.0
    _report(12, True, "covered property-wise by criteria 5-8; exponent "
            "bookkeeping of the combination verified exactly", 0.0, 1.0)
