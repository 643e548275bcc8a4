import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import restrictlab as rl
from restrictlab.errors import DomainError, ResourceError
from restrictlab.geometry import _log_norm, dist_to_diag
from restrictlab.hecke import (_conjugates, _entry_bound, _mul_std, _order_box,
                               _scan_norm_form, hilbert_symbol, is_squarefree)

from conftest import (cached_algebra, conjugated_element, dist_to_identity,
                      optimal_amplifier_length, optimal_bandwidth)

coord = st.integers(min_value=-50, max_value=50)
coords4 = st.tuples(coord, coord, coord, coord)


# ---------------------------------------------------------------- exact arithmetic
# Exact element arithmetic that the order and the scans are checked against.

def _conj_std(x):
    return (x[0], -x[1], -x[2], -x[3])


def std_scaled(alg, coords) -> tuple:
    """den * (standard coordinates) of the element with order coordinates
    coords, exact integers."""
    v = np.asarray(coords, dtype=object)
    return tuple(int(x) for x in (alg._C @ v))


def order_coords_from_std(alg, std, scale: int = 1) -> tuple:
    """Order coordinates of std / scale (std integral); DomainError if that
    element does not lie in the order."""
    v = [sum(alg.basis_inv[i][j] * Fraction(int(std[j]), scale) for j in range(4))
         for i in range(4)]
    if any(c.denominator != 1 for c in v):
        raise DomainError("element does not lie in the order")
    return tuple(int(c) for c in v)


@dataclass(frozen=True)
class QuatElement:
    """Integer coordinate vector in the algebra's order basis."""

    algebra: rl.QuatAlgebra
    coords: tuple

    def std_scaled(self) -> tuple:
        return std_scaled(self.algebra, self.coords)

    def nrd(self) -> int:
        num = self.algebra.nrd_std_scaled(self.std_scaled())
        den = self.algebra._den ** 2
        if num % den != 0:
            raise DomainError("non-integral reduced norm: basis is not an order")
        return num // den

    def trd(self) -> int:
        num = 2 * self.std_scaled()[0]
        if num % self.algebra._den != 0:
            raise DomainError("non-integral reduced trace: basis is not an order")
        return num // self.algebra._den

    def conj(self) -> "QuatElement":
        xs = _conj_std(self.std_scaled())
        return QuatElement(self.algebra,
                           order_coords_from_std(self.algebra, xs, scale=self.algebra._den))


def element(alg, coords) -> QuatElement:
    return QuatElement(alg, tuple(int(c) for c in coords))


def one(alg) -> QuatElement:
    return element(alg, order_coords_from_std(alg, (1, 0, 0, 0)))


def quat_mul(x: QuatElement, y: QuatElement) -> QuatElement:
    if x.algebra is not y.algebra:
        raise DomainError("elements live in different algebras")
    alg = x.algebra
    p = _mul_std(x.std_scaled(), y.std_scaled(), alg.a, alg.b)   # den^2-scaled
    return QuatElement(alg, order_coords_from_std(alg, p, scale=alg._den ** 2))


def iota(x: QuatElement) -> rl.GroupElement:
    """Projection of the embedding to PSL(2,R): iota(x)/sqrt(nrd x)."""
    n = x.nrd()
    if n <= 0:
        raise DomainError(f"nrd must be positive to project to PSL(2,R), got {n}")
    return rl.GroupElement(rl.iota_matrix(x.algebra, x.coords))


def reduced_discriminant_squared(alg) -> int:
    cols = [tuple(alg.basis[r][c] for r in range(4)) for c in range(4)]
    G = [[2 * _mul_std(x, _conj_std(y), alg.a, alg.b)[0] for y in cols] for x in cols]

    def det(M):   # exact cofactor expansion over Fractions
        if len(M) == 1:
            return M[0][0]
        tot = Fraction(0)
        for j, v in enumerate(M[0]):
            if v:
                minor = [row[:j] + row[j + 1:] for row in M[1:]]
                tot += (-1) ** j * v * det(minor)
        return tot

    d = det(G)
    if d.denominator != 1:
        raise DomainError("discriminant of a non-integral lattice")
    return abs(int(d))


def isotropy_screen(a: int, b: int, side: int = 50) -> bool:
    """True when the norm form of (a,b / Q) has no nonzero integer root with
    |coordinates| <= side (a necessary condition for division)."""
    rng = np.arange(-side, side + 1, dtype=np.int64)
    for x0 in rng:
        g1, g2, g3 = np.meshgrid(rng, rng, rng, indexing="ij")
        q = x0 * x0 - a * g1 ** 2 - b * g2 ** 2 + a * b * g3 ** 2
        zero = (q == 0)
        if x0 != 0:
            if np.any(zero):
                return False
        else:
            zero &= ~((g1 == 0) & (g2 == 0) & (g3 == 0))
            if np.any(zero):
                return False
    return True


def find_units(alg, coeff_radius: int = 5) -> list[tuple]:
    """Norm-1 elements with order coordinates in a fixed ball, up to sign."""
    return _scan_norm_form(alg, [coeff_radius] * 4, 1)


def left_equivalent(alg, x: tuple, y: tuple, n: int) -> bool:
    """Exact test whether y = u x for a norm-1 unit u of the order.

    u = y conj(x) / n; membership in the order is a divisibility check, and
    nrd(u) = 1 is automatic when nrd(x) = nrd(y) = n.
    """
    p = _mul_std(std_scaled(alg, y), _conj_std(std_scaled(alg, x)), alg.a, alg.b)
    try:
        order_coords_from_std(alg, p, scale=n * alg._den ** 2)
        return True
    except DomainError:
        return False


def coset_reps(alg, n: int, coeff_box: int = 12, stability_margin: int = 4):
    """Representatives of (norm-1 units) \\ (norm-n elements) met by a
    coefficient box scan.

    Returns (reps, count, certified): certified is True when enlarging the
    box by `stability_margin` does not change the class count (a stability
    certificate, not a proof of completeness).
    """
    def classes(box: int):
        reps = []
        for e in _scan_norm_form(alg, [box] * 4, n):
            if not any(left_equivalent(alg, r, e, n) for r in reps):
                reps.append(e)
        return reps

    reps = classes(coeff_box)
    reps_big = classes(coeff_box + stability_margin)
    return reps, len(reps), len(reps) == len(reps_big)


def _coords(pairs) -> list[tuple]:
    """The coordinate tuples of enumerate_norm_n's (coords, h) pairs."""
    return [v for v, _ in pairs]


def _count_returns(alg, g0, n: int, kappa: float, elems) -> int:
    """Norm-n elements of `elems` whose conjugate by g0 lies within kappa of
    the diagonal subgroup."""
    return sum(dist_to_diag(conjugated_element(alg, v, n, g0).m)[0] <= kappa for v in elems)


def hecke_returns(alg, g0, n: int, kappa: float) -> int:
    """M(g0, n, kappa): norm-n elements whose conjugate by g0 lies within 1
    of the identity and within kappa of the diagonal subgroup, counted one
    (n, kappa) at a time."""
    if kappa > 1:
        raise DomainError("kappa must be <= 1")
    return _count_returns(alg, g0, n, kappa, _coords(rl.enumerate_norm_n(alg, n, g0, radius=1.0)))


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
                assert not isotropy_screen(a, b, side=12), (a, b)
                continue
            assert isotropy_screen(alg.a, alg.b, side=12), (a, b)
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
    x = element(algebra, (1, 1, 0, 0))
    assert x.nrd() == -1
    assert x.trd() == 2


def test_unit_norm_trace(algebra):
    e = one(algebra)
    assert (e.nrd(), e.trd()) == (1, 2)


@settings(max_examples=60, deadline=None)
@given(coords4, coords4)
def test_norm_multiplicative(xc, yc):
    alg = cached_algebra()
    x, y = element(alg, xc), element(alg, yc)
    assert quat_mul(x, y).nrd() == x.nrd() * y.nrd()


@settings(max_examples=30, deadline=None)
@given(coords4)
def test_conjugation_gives_norm(xc):
    alg = cached_algebra()
    x = element(alg, xc)
    prod = quat_mul(x, x.conj())
    # x xbar = nrd(x) * 1
    assert prod.coords == (x.nrd(), 0, 0, 0)


def test_maximal_order_is_order_and_disc6(algebra_maximal, algebra):
    assert algebra_maximal.verify_order()
    assert reduced_discriminant_squared(algebra_maximal) == 36
    assert algebra.verify_order()
    assert reduced_discriminant_squared(algebra) == (4 * 2 * 3) ** 2


def test_division_screen(algebra):
    # necessary-condition screen only: no isotropic vector in the box
    assert isotropy_screen(algebra.a, algebra.b, side=50)


# ---------------------------------------------------------------- embedding

def test_iota_identity(algebra):
    assert np.array_equal(iota(one(algebra)).m, np.eye(2))


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
    vs = rng.integers(-20, 21, (100, 4))
    for v in vs:
        x = element(algebra, tuple(int(c) for c in v))
        det = float(np.linalg.det(rl.iota_matrix(algebra, v)))
        assert det == pytest.approx(float(x.nrd()), rel=1e-9, abs=1e-9)
    # a (k, 4) stack embeds row by row, bit for bit, in both orders
    for alg in (algebra, cached_algebra(True)):
        assert np.array_equal(rl.iota_matrix(alg, vs),
                              np.stack([rl.iota_matrix(alg, tuple(v)) for v in vs]))
    # coordinates past int64 stay exact integers until the one division
    assert np.array_equal(rl.iota_matrix(algebra, (2 ** 70, 0, 0, 0)), 2.0 ** 70 * np.eye(2))


def test_iota_multiplicative(algebra):
    rng = np.random.default_rng(12)
    for _ in range(50):
        xv = tuple(int(c) for c in rng.integers(-10, 11, 4))
        yv = tuple(int(c) for c in rng.integers(-10, 11, 4))
        x, y = element(algebra, xv), element(algebra, yv)
        lhs = rl.iota_matrix(algebra, quat_mul(x, y).coords)
        rhs = rl.iota_matrix(algebra, xv) @ rl.iota_matrix(algebra, yv)
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("maximal", [False, True])
def test_central_element_conjugates_to_exact_identity(maximal):
    # (k, 0, 0, 0) is k times the unit in both orders, so iota is k I; its
    # conjugate is e exactly, with no rounding left off the diagonal
    alg = cached_algebra(maximal)
    for k in (1, 2, 3, 4):
        for y, theta in [(0.0, 0.0), (0.17, 0.387), (-0.9, 2.1), (1.3, -0.6)]:
            g0 = rl.GroupElement.diag_flow(y) @ rl.GroupElement.rotation(theta)
            h = conjugated_element(alg, (k, 0, 0, 0), k * k, g0)
            assert np.array_equal(h.m, np.eye(2))


def test_iota_rejects_nonpositive_norm(algebra):
    with pytest.raises(DomainError):
        iota(element(algebra, (1, 1, 0, 0)))   # nrd = -1


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
    assert find_units(alg, coeff_radius=3) == product_scan(alg, [3] * 4, 1)
    for n, theta, radius in cases:
        g0 = rl.GroupElement.rotation(theta)
        box = _order_box(alg, _entry_bound(n, g0, radius))
        expected = [v for v in product_scan(alg, box, n)
                    if dist_to_identity(conjugated_element(alg, v, n, g0)) <= radius]
        assert expected
        assert _coords(rl.enumerate_norm_n(alg, n, g0, radius=radius)) == expected, n
    for n in (2, 5):
        classes = []
        for box in (3, 4):
            reps = []
            for e in product_scan(alg, [box] * 4, n):
                if not any(left_equivalent(alg, r, e, n) for r in reps):
                    reps.append(e)
            classes.append(reps)
        assert coset_reps(alg, n, coeff_box=3, stability_margin=1) == \
            (classes[0], len(classes[0]), len(classes[0]) == len(classes[1]))


# n_max per radius keeps every e^(sqrt 2 r) box below 10^7 points
@pytest.mark.parametrize("maximal, n_max", [
    (False, {0.5: 12, 1.0: 12, 2.0: 4}), (True, {0.5: 12, 1.0: 12, 2.0: 1})],
    ids=["default", "maximal"])
def test_enumerate_matches_wide_box(maximal, n_max):
    """enumerate_norm_n against the same distance filter over the box of the
    looser bound e^(sqrt 2 r), which _entry_bound does not size, at a g0
    with ||g0|| ||g0^-1|| > 1; and _entry_bound against entries of g0 h g0^-1
    for h at distance r."""
    alg = cached_algebra(maximal)
    g0 = rl.GroupElement.diag_flow(0.1) @ rl.GroupElement.rotation(0.5)
    kappa = g0.op_norm() * g0.inv().op_norm()
    assert kappa > 1.1
    k = rl.GroupElement.rotation(np.pi / 4)
    for radius, top in n_max.items():
        # a(r) has the ball's largest entry, e^(r/2); conjugated by a(2),
        # k a(r) k^-1 has an entry e^2 sinh(r/2) that needs the factor kappa
        a = rl.GroupElement.diag_flow(radius)
        for g, h in ((rl.GroupElement.identity(), a), (rl.GroupElement.diag_flow(2.0),
                                                       k @ a @ k.inv())):
            assert dist_to_identity(h) == pytest.approx(radius, rel=1e-12)
            assert _entry_bound(1, g, radius) >= np.abs((g @ h @ g.inv()).m).max()
        for n in range(1, top + 1):
            box = _order_box(alg, np.sqrt(n) * kappa * np.exp(np.sqrt(2.0) * radius)
                             * (1.0 + 1e-9))
            assert np.prod(2 * box + 1) < 1e7
            expected = [v for v in _scan_norm_form(alg, box, n)
                        if dist_to_identity(conjugated_element(alg, v, n, g0)) <= radius]
            assert _coords(rl.enumerate_norm_n(alg, n, g0, radius=radius)) == expected, \
                (radius, n)


def test_enumerate_contains_identity(algebra):
    # a central element conjugates to exactly e, so even radius 0 keeps it
    e = one(algebra).coords
    g0 = rl.GroupElement.diag_flow(0.17) @ rl.GroupElement.rotation(0.387)
    for radius in (0.0, 0.5, 1.0):
        for g in (None, g0):
            elems = _coords(rl.enumerate_norm_n(algebra, 1, g, radius=radius))
            assert e in elems or tuple(-c for c in e) in elems


def test_enumerate_matches_brute_force(algebra):
    g0 = rl.GroupElement.identity()
    for n in range(1, 21):
        fast = _coords(rl.enumerate_norm_n(algebra, n, g0, radius=1.0))
        brute = brute_force_norm_n(algebra, n, g0, radius=1.0)
        assert fast == brute, f"mismatch at n={n}"


def test_enumerate_radius_monotone(algebra):
    for n in (7, 17):
        small = set(_coords(rl.enumerate_norm_n(algebra, n, radius=0.5)))
        large = set(_coords(rl.enumerate_norm_n(algebra, n, radius=1.0)))
        assert small <= large


def test_enumerate_budget_error(algebra, monkeypatch):
    monkeypatch.setattr(rl.hecke, "COEFF_BUDGET", 100)
    with pytest.raises(ResourceError) as exc:
        rl.enumerate_norm_n(algebra, 19, radius=1.0)
    assert "box" in str(exc.value)


def test_enumerate_radius_cap(algebra):
    with pytest.raises(DomainError):
        rl.enumerate_norm_n(algebra, 2, radius=2.5)


@pytest.mark.parametrize("maximal", [False, True], ids=["default", "maximal"])
def test_enumerate_pairs_carry_their_conjugates(maximal):
    # each survivor's h is the one-row conjugate bit for bit, inside the
    # radius; g0 runs over e, the benchmark's return-ratio rotations and a
    # g0 with ||g0|| ||g0^-1|| > 1
    alg = cached_algebra(maximal)
    g0s = [rl.GroupElement.identity()]
    g0s += [rl.GroupElement.rotation(t) for t in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.15)]
    g0s += [rl.GroupElement.diag_flow(0.17) @ rl.GroupElement.rotation(0.387)]
    survivors = 0
    for g0 in g0s:
        for n in range(1, 25):
            for v, h in rl.enumerate_norm_n(alg, n, g0):
                assert h.tobytes() == _conjugates(alg, [v], n, g0)[0].tobytes(), (v, n)
                assert _log_norm(h) <= 1.0
                survivors += 1
    assert survivors > 100


# ---------------------------------------------------------------- cosets

def test_coset_single_class_at_one(algebra):
    _, count, certified = coset_reps(algebra, 1, coeff_box=6)
    assert count == 1 and certified


@pytest.mark.parametrize("maximal", [False, True])
def test_coset_count_p_plus_one(maximal):
    alg = cached_algebra(maximal)
    _, c5, cert5 = coset_reps(alg, 5, coeff_box=10)
    assert c5 == 6 and cert5
    _, c7, _ = coset_reps(alg, 7, coeff_box=10)
    assert c7 == 8


def test_coset_hecke_relation_pattern(algebra):
    # applying T_p T_p = T_{p^2} + T_1 to the constant function:
    # |R(1)\R(p)|^2 = |R(1)\R(p^2)| + p
    _, c5, _ = coset_reps(algebra, 5, coeff_box=10)
    _, c25, cert = coset_reps(algebra, 25, coeff_box=12)
    assert cert
    assert c5 ** 2 == c25 + 5


def test_units_and_equivalence(algebra):
    units = find_units(algebra, coeff_radius=5)
    assert (1, 0, 0, 0) in units
    for u in units:
        assert element(algebra, u).nrd() == 1
    # gamma ~ u gamma for every truncated unit
    gamma = (2, 1, 1, 1)   # nrd 5
    assert element(algebra, gamma).nrd() == 5
    for u in units[:6]:
        prod = quat_mul(element(algebra, u), element(algebra, gamma))
        assert left_equivalent(algebra, gamma, prod.coords, 5)


# ---------------------------------------------------------------- returns

def oracle_returns(alg, g0, n, kappa, side=40):
    """Independent count over the brute-force element list."""
    return _count_returns(alg, g0, n, kappa,
                          brute_force_norm_n(alg, n, g0, radius=1.0, side=side))


def test_returns_identity_always_counted(algebra):
    for kappa in (0.0, 0.5, 1.0):
        assert hecke_returns(algebra, rl.GroupElement.identity(), 1, kappa) >= 1


def test_returns_monotone_in_kappa(algebra):
    g0 = rl.GroupElement.identity()
    for n in (7, 12, 17):
        counts = [hecke_returns(algebra, g0, n, k) for k in (0.125, 0.5, 1.0)]
        assert counts == sorted(counts)


def test_returns_match_oracle(algebra):
    g0 = rl.GroupElement.identity()
    for n in range(1, 21):
        for kappa in (0.25, 1.0):
            assert hecke_returns(algebra, g0, n, kappa) == \
                oracle_returns(algebra, g0, n, kappa)


def test_returns_stable_under_base_translation(algebra):
    # geodesic-base shifts g -> g a(y); counts agree at sampled y when no
    # element sits on a threshold
    g0 = rl.GroupElement.identity()
    for n in (7, 14):
        base = hecke_returns(algebra, g0, n, 0.9)
        for y in (0.05, 0.1):
            moved = hecke_returns(algebra, rl.GroupElement.diag_flow(y), n, 0.9)
            assert moved == base


def test_return_ratio_finite(algebra):
    best, rows = rl.return_count_ratio(
        algebra, [rl.GroupElement.identity()], 8, [1.0, 0.5, 0.25])
    assert np.isfinite(best)
    assert all(np.isfinite(r[4]) for r in rows)


def test_return_ratio_empty_grid(algebra):
    assert rl.return_count_ratio(algebra, [], 4, [1.0, 0.5]) == (0.0, [])


def test_return_ratio_budget_before_grid_list(algebra):
    # SCAN_BUDGET stops the walk at n = 177, before any list of all n_max
    # pairs could be built
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="n=177 hold more than"):
            rl.return_count_ratio(algebra, [rl.GroupElement.identity()], 2_000_000, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_return_ratio_takes_kappa_once_per_g0(algebra, monkeypatch):
    # kappa = ||g0|| ||g0^-1|| = ||g0||^2 at det 1 is one SVD norm per g0,
    # however many n the budget pre-count and the enumerations scan
    norm = rl.GroupElement.op_norm
    calls = []
    monkeypatch.setattr(rl.GroupElement, "op_norm", lambda g: calls.append(g) or norm(g))
    g0s = [rl.GroupElement.rotation(0.3), rl.GroupElement.diag_flow(0.2)]
    rl.return_count_ratio(algebra, g0s, 6, [0.5, 1.0])
    assert len(calls) == len(g0s)
    assert g0s[1].condition == pytest.approx(np.exp(0.2))
    for g in g0s + [rl.GroupElement.diag_flow(-1.3) @ rl.GroupElement.lower_shear(2.0)]:
        assert g.condition == pytest.approx(norm(g) * norm(g.inv()), rel=1e-14)


def test_returns_kappa_cap(algebra):
    with pytest.raises(DomainError):
        hecke_returns(algebra, rl.GroupElement.identity(), 2, 1.5)


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


def test_amplifier_draws_share_one_sieve(monkeypatch):
    # random_hecke_eigenvalues and build_amplifier at one length N sieve the
    # primes <= sqrt(N) once between them, over all draws
    sieve = rl.hecke.primes_up_to
    calls = []
    monkeypatch.setattr(rl.hecke, "primes_up_to", lambda n: calls.append(n) or sieve(n))
    rl.hecke._amplifier_primes.cache_clear()
    rng = np.random.default_rng(17)
    for _ in range(20):
        eigs = rl.random_hecke_eigenvalues(401, rng)
        assert rl.build_amplifier(401, eigs).support() == sorted(
            p if abs(eigs[p]) >= 0.5 else p * p for p in sieve(20))
    assert calls == [20]
    rl.hecke._amplifier_primes.cache_clear()


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
        beta = optimal_bandwidth(lam, alpha)
        e1 = 0.25 * np.log(lam) - (alpha - 0.5) / 2.0 * np.log(beta)
        e2 = 5.0 / 24.0 * np.log(lam) + np.log(beta) / 24.0
        assert e1 == pytest.approx(e2, abs=1e-12)
        assert e1 / np.log(lam) == pytest.approx(0.25 - delta_exponent(alpha), abs=1e-12)
        assert optimal_amplifier_length(lam, beta) == pytest.approx(
            lam ** (1 / 6) * beta ** (-1 / 6))


# ---------------------------------------------------------------- maximal order

def test_algebra_roundtrip(algebra_maximal):
    assert algebra_maximal.verify_order()
    assert reduced_discriminant_squared(algebra_maximal) == 36
