import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import restrictlab as rl
from restrictlab.errors import DomainError, ResourceError
from restrictlab.geometry import dist_to_diag, dist_to_identity
from restrictlab.hecke import (_entry_bound, _order_box, conjugated_element,
                               hilbert_symbol, is_squarefree, left_equivalent)

from conftest import cached_algebra

coord = st.integers(min_value=-50, max_value=50)
coords4 = st.tuples(coord, coord, coord, coord)


# ---------------------------------------------------------------- arithmetic

def test_algebra_validation():
    with pytest.raises(DomainError):
        rl.QuatAlgebra(-2, 3)
    with pytest.raises(DomainError):
        rl.QuatAlgebra(4, 3)
    with pytest.raises(DomainError):
        rl.QuatAlgebra(2, 9)


def test_split_algebras_rejected():
    # (2,7): 3^2 - 2 * 1^2 - 7 * 1^2 = 0; (2,-1): 1^2 - 2 * 1^2 + 1^2 = 0
    for a, b in ((2, 7), (2, -1), (3, -2), (5, -1)):
        with pytest.raises(DomainError, match="split"):
            rl.QuatAlgebra(a, b)
    rl.QuatAlgebra(2, 3, basis=rl.MAXIMAL_ORDER_2_3)


def test_hilbert_symbols_decide_division():
    # accepted <=> no integer zero of the norm form in a small box; every
    # split (a,b) in this range has one (Legendre: a small solution exists)
    checked = 0
    for a in range(2, 16):
        for b in range(-15, 16):
            if b in (0, 1) or not (is_squarefree(a) and is_squarefree(b)):
                continue
            try:
                alg = rl.QuatAlgebra(a, b)
            except DomainError:
                screen = rl.QuatAlgebra.isotropy_screen(SimpleNamespace(a=a, b=b), side=12)
                assert not screen, (a, b)
                continue
            assert alg.isotropy_screen(side=12), (a, b)
            checked += 1
    assert checked > 100


def test_hilbert_symbol_product_formula():
    # prod over all places of (a,b)_p is 1; only oo, 2 and p | ab can be -1
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 or b == 0:
                continue
            places = [0] + rl.primes_up_to(abs(a * b) + 2)
            assert np.prod([hilbert_symbol(a, b, p) for p in places]) == 1, (a, b)


def test_norm_of_one_plus_omega(algebra):
    # (1+w)(1-w) = 1 - a = -1 for a = 2
    x = algebra.element((1, 1, 0, 0))
    assert x.nrd() == -1
    assert x.trd() == 2


def test_unit_norm_trace(algebra):
    one = algebra.one()
    assert (one.nrd(), one.trd()) == (1, 2)


@settings(max_examples=60, deadline=None)
@given(coords4, coords4)
def test_norm_multiplicative(xc, yc):
    alg = cached_algebra()
    x, y = alg.element(xc), alg.element(yc)
    assert rl.quat_mul(x, y).nrd() == x.nrd() * y.nrd()


@settings(max_examples=30, deadline=None)
@given(coords4)
def test_conjugation_gives_norm(xc):
    alg = cached_algebra()
    x = alg.element(xc)
    prod = rl.quat_mul(x, x.conj())
    # x xbar = nrd(x) * 1
    assert prod.coords == (x.nrd(), 0, 0, 0)


def test_maximal_order_is_order_and_disc6(algebra_maximal, algebra):
    assert algebra_maximal.verify_order()
    assert algebra_maximal.reduced_discriminant_squared() == 36
    assert algebra.verify_order()
    assert algebra.reduced_discriminant_squared() == (4 * 2 * 3) ** 2


def test_division_screen(algebra):
    # necessary-condition screen only: no isotropic vector in the box
    assert algebra.isotropy_screen(side=50)


# ---------------------------------------------------------------- embedding

def test_iota_identity(algebra):
    assert np.array_equal(rl.iota(algebra.one()).m, np.eye(2))


def test_iota_det_equals_nrd_symbolic():
    # symbolic-expansion oracle over generic coordinates
    a, b = sympy.symbols("a b", positive=True)
    x0, x1, x2, x3 = sympy.symbols("x0 x1 x2 x3")
    sa = sympy.sqrt(a)
    xi, xib = x0 + x1 * sa, x0 - x1 * sa
    et, etb = x2 + x3 * sa, x2 - x3 * sa
    M = sympy.Matrix([[xib, et], [b * etb, xi]])
    nrd = x0 ** 2 - a * x1 ** 2 - b * x2 ** 2 + a * b * x3 ** 2
    assert sympy.simplify(M.det() - nrd) == 0


def test_iota_det_equals_nrd_numeric(algebra):
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = tuple(int(c) for c in rng.integers(-20, 21, 4))
        x = algebra.element(v)
        det = float(np.linalg.det(rl.iota_matrix(x)))
        assert det == pytest.approx(float(x.nrd()), rel=1e-9, abs=1e-9)


def test_iota_multiplicative(algebra):
    rng = np.random.default_rng(12)
    for _ in range(50):
        xv = tuple(int(c) for c in rng.integers(-10, 11, 4))
        yv = tuple(int(c) for c in rng.integers(-10, 11, 4))
        x, y = algebra.element(xv), algebra.element(yv)
        lhs = rl.iota_matrix(rl.quat_mul(x, y))
        rhs = rl.iota_matrix(x) @ rl.iota_matrix(y)
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


def test_iota_rejects_nonpositive_norm(algebra):
    with pytest.raises(DomainError):
        rl.iota(algebra.element((1, 1, 0, 0)))   # nrd = -1


# ---------------------------------------------------------------- enumeration

from functools import lru_cache


@lru_cache(maxsize=None)
def _brute_scan_by_norm(n_max=20, side=40):
    """One plain quadruple scan of [-side, side]^4 for the standard order,
    bucketing canonical (sign-deduplicated) coordinates by reduced norm."""
    alg = cached_algebra()
    rng = np.arange(-side, side + 1, dtype=np.int64)
    g1, g2, g3 = np.meshgrid(rng, rng, rng, indexing="ij")
    g1, g2, g3 = g1.ravel(), g2.ravel(), g3.ravel()
    buckets = {n: set() for n in range(1, n_max + 1)}
    for v0 in rng:
        q = (v0 * v0 - alg.a * g1 * g1 - alg.b * g2 * g2
             + alg.a * alg.b * g3 * g3)
        hits = np.nonzero((q >= 1) & (q <= n_max))[0]
        for i in hits:
            v = (int(v0), int(g1[i]), int(g2[i]), int(g3[i]))
            neg = tuple(-c for c in v)
            buckets[int(q[i])].add(v if v >= neg else neg)
    return {n: sorted(s) for n, s in buckets.items()}


def brute_force_norm_n(alg, n, g0, radius, side=40):
    """Quadruple-scan oracle, then the same archimedean distance filter."""
    found = []
    for v in _brute_scan_by_norm(side=side)[n]:
        if dist_to_identity(conjugated_element(alg, v, n, g0)) <= radius:
            found.append(v)
    return sorted(found)


def product_scan(alg, box, n):
    """Plain itertools.product sweep of |v_i| <= box[i] for reduced norm n,
    one canonical sign per pair, sorted."""
    C = alg._C.tolist()
    target = n * alg._den ** 2
    found = set()
    for v in itertools.product(*(range(-int(b), int(b) + 1) for b in box)):
        xs = [sum(c * x for c, x in zip(row, v)) for row in C]
        if alg.nrd_std_scaled(xs) == target:
            found.add(max(v, tuple(-c for c in v)))
    return sorted(found)


# (n, rotation angle of g0, radius): each case keeps at least one element
@pytest.mark.parametrize("maximal, cases", [
    (False, ((1, 0.0, 1.0), (4, 0.4, 0.7), (12, 0.0, 0.7))),
    (True, ((1, 0.0, 1.0), (3, 0.4, 0.7), (4, 0.0, 0.7)))], ids=["default", "maximal"])
def test_scans_match_product_scan(maximal, cases):
    alg = cached_algebra(maximal)
    assert rl.find_units(alg, coeff_radius=3) == product_scan(alg, [3] * 4, 1)
    for n, theta, radius in cases:
        g0 = rl.GroupElement.rotation(theta)
        box = _order_box(alg, _entry_bound(n, g0, radius))
        expected = [v for v in product_scan(alg, box, n)
                    if dist_to_identity(conjugated_element(alg, v, n, g0)) <= radius]
        assert expected
        assert rl.enumerate_norm_n(alg, n, g0, radius=radius) == expected, n
    for n in (2, 5):
        classes = []
        for box in (3, 4):
            reps = []
            for e in product_scan(alg, [box] * 4, n):
                if not any(left_equivalent(alg, r, e, n) for r in reps):
                    reps.append(e)
            classes.append(reps)
        assert rl.coset_reps(alg, n, coeff_box=3, stability_margin=1) == \
            (classes[0], len(classes[0]), len(classes[0]) == len(classes[1]))


def test_enumerate_contains_identity(algebra):
    one = algebra.one().coords
    for radius in (0.0, 0.5, 1.0):
        elems = rl.enumerate_norm_n(algebra, 1, radius=radius)
        assert one in elems or tuple(-c for c in one) in elems


def test_enumerate_matches_brute_force(algebra):
    g0 = rl.GroupElement.identity()
    for n in range(1, 21):
        fast = rl.enumerate_norm_n(algebra, n, g0, radius=1.0)
        brute = brute_force_norm_n(algebra, n, g0, radius=1.0)
        assert fast == brute, f"mismatch at n={n}"


def test_enumerate_radius_monotone(algebra):
    for n in (7, 17):
        small = set(rl.enumerate_norm_n(algebra, n, radius=0.5))
        large = set(rl.enumerate_norm_n(algebra, n, radius=1.0))
        assert small <= large


def test_enumerate_budget_error(algebra, monkeypatch):
    monkeypatch.setattr(rl.hecke, "COEFF_BUDGET", 100)
    with pytest.raises(ResourceError) as exc:
        rl.enumerate_norm_n(algebra, 19, radius=1.0)
    assert "box" in str(exc.value)


def test_enumerate_radius_cap(algebra):
    with pytest.raises(DomainError):
        rl.enumerate_norm_n(algebra, 2, radius=2.5)


# ---------------------------------------------------------------- cosets

def test_coset_single_class_at_one(algebra):
    _, count, certified = rl.coset_reps(algebra, 1, coeff_box=6)
    assert count == 1 and certified


@pytest.mark.parametrize("maximal", [False, True])
def test_coset_count_p_plus_one(maximal):
    alg = cached_algebra(maximal)
    _, c5, cert5 = rl.coset_reps(alg, 5, coeff_box=10)
    assert c5 == 6 and cert5
    _, c7, _ = rl.coset_reps(alg, 7, coeff_box=10)
    assert c7 == 8


def test_coset_hecke_relation_pattern(algebra):
    # applying T_p T_p = T_{p^2} + T_1 to the constant function:
    # |R(1)\R(p)|^2 = |R(1)\R(p^2)| + p
    _, c5, _ = rl.coset_reps(algebra, 5, coeff_box=10)
    _, c25, cert = rl.coset_reps(algebra, 25, coeff_box=12)
    assert cert
    assert c5 ** 2 == c25 + 5


def test_units_and_equivalence(algebra):
    units = rl.find_units(algebra, coeff_radius=5)
    assert (1, 0, 0, 0) in units
    for u in units:
        assert algebra.element(u).nrd() == 1
    # gamma ~ u gamma for every truncated unit
    gamma = (2, 1, 1, 1)   # nrd 5
    assert algebra.element(gamma).nrd() == 5
    for u in units[:6]:
        prod = rl.quat_mul(algebra.element(u), algebra.element(gamma))
        assert left_equivalent(algebra, gamma, prod.coords, 5)


# ---------------------------------------------------------------- returns

def oracle_returns(alg, g0, n, kappa, side=40):
    """Independent count over the brute-force element list."""
    count = 0
    for v in brute_force_norm_n(alg, n, g0, radius=1.0, side=side):
        h = conjugated_element(alg, v, n, g0)
        if dist_to_diag(h)[0] <= kappa:
            count += 1
    return count


def test_returns_identity_always_counted(algebra):
    for kappa in (0.0, 0.5, 1.0):
        assert rl.hecke_returns(algebra, rl.GroupElement.identity(), 1, kappa) >= 1


def test_returns_monotone_in_kappa(algebra):
    g0 = rl.GroupElement.identity()
    for n in (7, 12, 17):
        counts = [rl.hecke_returns(algebra, g0, n, k) for k in (0.125, 0.5, 1.0)]
        assert counts == sorted(counts)


def test_returns_match_oracle(algebra):
    g0 = rl.GroupElement.identity()
    for n in range(1, 21):
        for kappa in (0.25, 1.0):
            assert rl.hecke_returns(algebra, g0, n, kappa) == \
                oracle_returns(algebra, g0, n, kappa)


def test_returns_stable_under_base_translation(algebra):
    # geodesic-base shifts g -> g a(y); counts agree at sampled y when no
    # element sits on a threshold
    g0 = rl.GroupElement.identity()
    for n in (7, 14):
        base = rl.hecke_returns(algebra, g0, n, 0.9)
        for y in (0.05, 0.1):
            moved = rl.hecke_returns(algebra, rl.GroupElement.diag_flow(y), n, 0.9)
            assert moved == base


def test_return_ratio_finite(algebra):
    best, rows = rl.return_count_ratio(
        algebra, [rl.GroupElement.identity()], 8, [1.0, 0.5, 0.25])
    assert np.isfinite(best)
    assert all(np.isfinite(r[4]) for r in rows)


def test_returns_kappa_cap(algebra):
    with pytest.raises(DomainError):
        rl.hecke_returns(algebra, rl.GroupElement.identity(), 2, 1.5)


# ---------------------------------------------------------------- amplifier

def test_amplifier_case_split():
    eigs = {2: 0.9, 4: 0.9 ** 2 - 1.0, 3: 0.0, 9: -1.0}
    amp = rl.build_amplifier(15, eigs, q=1)
    assert amp.coeffs[2] == 1.0 and 4 not in amp.coeffs
    assert amp.coeffs[9] == -1.0 and 3 not in amp.coeffs


def test_amplifier_moments_small_N():
    rng = np.random.default_rng(13)
    eigs = rl.random_hecke_eigenvalues(100, rng)
    amp = rl.build_amplifier(100, eigs, q=1)
    # primes <= 10: 2, 3, 5, 7
    assert amp.moment_l1() == 4.0
    assert amp.moment_l2() == 4.0


def test_amplifier_relation_validation():
    eigs = {2: 0.9, 4: 0.5, 3: 1.0, 9: 0.0}
    with pytest.raises(DomainError) as exc:
        rl.build_amplifier(15, eigs, q=1)
    assert "p=2" in str(exc.value)


def test_amplifier_coprimality_filter():
    rng = np.random.default_rng(14)
    eigs = rl.random_hecke_eigenvalues(100, rng)
    amp = rl.build_amplifier(100, eigs, q=6)
    assert set(amp.support()) <= {5, 25, 7, 49}


def test_amplifier_lower_bound_random_draws():
    rng = np.random.default_rng(15)
    n_primes = len(rl.primes_up_to(int(math.isqrt(400))))
    for _ in range(100):
        eigs = rl.random_hecke_eigenvalues(400, rng)
        amp = rl.build_amplifier(400, eigs, q=1)
        assert abs(amp.eigenvalue_functional(eigs)) >= 0.5 * n_primes
        assert amp.moment_l1() == amp.moment_l2() == n_primes


def test_amplifier_exclusive_prime_support():
    # per prime, exactly one of alpha_p, alpha_{p^2} is nonzero, of modulus 1
    rng = np.random.default_rng(16)
    for _ in range(50):
        eigs = rl.random_hecke_eigenvalues(400, rng)
        amp = rl.build_amplifier(400, eigs, q=1)
        for p in rl.primes_up_to(int(math.isqrt(400))):
            at_p = p in amp.coeffs
            at_p2 = p * p in amp.coeffs
            assert at_p != at_p2
            assert abs(amp.coeffs[p if at_p else p * p]) == 1.0


def test_parameter_choice_balances_exponents():
    # lam^(1/4) beta^(-(alpha-1/2)/2) and lam^(5/24) beta^(1/24) coincide at
    # the chosen bandwidth, with common value lam^(1/4 - delta(alpha))
    from restrictlab.modes import delta_exponent
    for alpha in (0.6, 0.75, 0.9, 1.0):
        lam = 137.0
        beta = rl.optimal_bandwidth(lam, alpha)
        e1 = 0.25 * np.log(lam) - (alpha - 0.5) / 2.0 * np.log(beta)
        e2 = 5.0 / 24.0 * np.log(lam) + np.log(beta) / 24.0
        assert e1 == pytest.approx(e2, abs=1e-12)
        assert e1 / np.log(lam) == pytest.approx(0.25 - delta_exponent(alpha), abs=1e-12)
        assert rl.optimal_amplifier_length(lam, beta) == pytest.approx(
            lam ** (1 / 6) * beta ** (-1 / 6))


# ---------------------------------------------------------------- maximal order

def test_algebra_roundtrip(algebra_maximal):
    assert algebra_maximal.verify_order()
    assert algebra_maximal.reduced_discriminant_squared() == 36
