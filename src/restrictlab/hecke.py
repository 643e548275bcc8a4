"""Quaternion algebras with an order, bounded enumeration of norm-n
elements, return counting near the diagonal, and the prime-power amplifier.

The order check and the norm-form scan are exact in integer/rational
arithmetic; floats enter only through the archimedean embedding and its
distance filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import functools
import math

import numpy as np

from .errors import DomainError, ResourceError
from .geometry import GroupElement, _log_norm, dist_to_diag

COEFF_BUDGET = 1 << 28   # coefficient-box points of one enumerate_norm_n
SCAN_BUDGET = 1 << 26    # box points summed over one return_count_ratio grid
FACTOR_BUDGET = 1 << 40  # largest |ab| whose trial division QuatAlgebra runs
RETURN_EPS = 0.1         # eps of the (n/kappa)^eps loss in return_count_ratio


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i, v in enumerate(sieve) if v]


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """(a,b)_p for nonzero integers a, b: +1 when a x^2 + b y^2 = z^2 has a
    nonzero solution over Q_p, else -1.  p = 0 stands for the real place."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha = beta = 0
    while a % p == 0:
        a, alpha = a // p, alpha + 1
    while b % p == 0:
        b, beta = b // p, beta + 1
    if p == 2:   # (-1)^(eps(a) eps(b) + alpha omega(b) + beta omega(a))
        e = ((a - 1) // 2) * ((b - 1) // 2) + alpha * ((b * b - 1) // 8) \
            + beta * ((a * a - 1) // 8)
        return -1 if e % 2 else 1

    def legendre(u):
        return 1 if pow(u, (p - 1) // 2, p) == 1 else -1
    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    return sign * legendre(b) ** alpha * legendre(a) ** beta


def _prime_divisors(n: int) -> list[int]:
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_squarefree(n: int) -> bool:
    return n != 0 and math.prod(_prime_divisors(n)) == abs(n)


def _mul_std(x, y, a: int, b: int):
    """Product in the standard basis 1, w, W, wW with w^2=a, W^2=b, wW=-Ww."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def _fits_int64(v: int) -> bool:
    return abs(v) <= np.iinfo(np.int64).max


def _fraction_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def _fraction_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(M)
    A = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise DomainError("order basis is singular")
        A[col], A[piv] = A[piv], A[col]
        inv = A[col][col]
        A[col] = [v / inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [vr - f * vc for vr, vc in zip(A[r], A[col])]
    return [row[n:] for row in A]


MAXIMAL_ORDER_2_3 = [[1, 0, Fraction(1, 2), 0],
                     [0, 1, Fraction(1, 2), Fraction(1, 2)],
                     [0, 0, Fraction(1, 2), 0],
                     [0, 0, 0, Fraction(1, 2)]]


class QuatAlgebra:
    """(a,b / Q) with a fixed order basis (columns, in standard coordinates).

    Default is the standard order Z<1, w, W, wW>; MAXIMAL_ORDER_2_3 gives a
    maximal order of reduced discriminant 6 for (a,b) = (2,3).  The algebra
    must be a division algebra: (a,b)_p = -1 at some place p, and the
    symbols at the real place, at 2 and at the odd primes dividing ab decide
    it (every other symbol is +1).
    """

    def __init__(self, a: int = 2, b: int = 3, basis=None, q: int = 6):
        if abs(a * b) > FACTOR_BUDGET:
            raise ResourceError(f"|ab| = {abs(a * b)} exceeds the trial-division"
                                f" budget {FACTOR_BUDGET}")
        if a <= 0 or not is_squarefree(a):
            raise DomainError("a must be a positive squarefree integer")
        if not is_squarefree(b):
            raise DomainError("b must be a squarefree integer")
        places = [0, 2] + [p for p in _prime_divisors(a * b) if p != 2]
        if all(hilbert_symbol(a, b, p) == 1 for p in places):
            raise DomainError(f"({a},{b} / Q) is split (isomorphic to M_2(Q)):"
                              " every Hilbert symbol is +1")
        self.a, self.b, self.q = int(a), int(b), int(q)
        self.basis = _fraction_matrix(basis if basis is not None
                                      else np.eye(4, dtype=int).tolist())
        self.basis_inv = _fraction_inverse(self.basis)
        self._basis_inv_abs = np.abs(np.array([[float(v) for v in row]
                                               for row in self.basis_inv]))
        if not self.verify_order():
            raise DomainError("order basis does not span an order")
        self._den = math.lcm(*(v.denominator for row in self.basis for v in row))
        # integer matrix: C v = den * (std coords)
        C = [[int(v * self._den) for v in row] for row in self.basis]
        if not all(_fits_int64(v) for row in C for v in row):
            raise DomainError("order basis: its integer coordinate matrix exceeds int64")
        self._C = np.array(C, dtype=np.int64)

    def nrd_std_scaled(self, xs) -> int:
        """The norm form: den^2 * nrd from den-scaled standard coordinates,
        nrd itself from unscaled (Fraction) ones."""
        x0, x1, x2, x3 = xs
        return x0 * x0 - self.a * x1 * x1 - self.b * x2 * x2 + self.a * self.b * x3 * x3

    def verify_order(self) -> bool:
        """Exact check that the basis lattice contains 1, is closed under
        multiplication and has integral reduced norms and traces."""
        if any(self.basis_inv[r][0].denominator != 1 for r in range(4)):
            return False
        cols = [tuple(self.basis[r][c] for r in range(4)) for c in range(4)]
        for x in cols:
            if (2 * x[0]).denominator != 1 or self.nrd_std_scaled(x).denominator != 1:
                return False
        for x in cols:
            for y in cols:
                p = _mul_std(x, y, self.a, self.b)
                v = [sum(self.basis_inv[i][j] * p[j] for j in range(4)) for i in range(4)]
                if any(c.denominator != 1 for c in v):
                    return False
        return True


def iota_matrix(alg: QuatAlgebra, coords) -> np.ndarray:
    """Archimedean embedding [[xi, eta], [b eta_bar, xi_bar]] as floats of
    the element x = xi + eta * W (xi, eta in Q(sqrt a)) with order
    coordinates `coords`, of shape (..., 4) for a (..., 2, 2) stack; each
    row is exact integers divided once by den, as one call on it would be.

    This arrangement is the multiplicative one (W xi = xi_bar W forces the
    Galois conjugates onto the second row); det = xi xi_bar - b eta eta_bar
    = nrd(x) either way.
    """
    x = (np.asarray(coords, dtype=object) @ alg._C.T / alg._den).astype(float)
    x0, x1, x2, x3 = np.moveaxis(x, -1, 0)
    sa = np.sqrt(alg.a)
    xi, xib = x0 + x1 * sa, x0 - x1 * sa
    et, etb = x2 + x3 * sa, x2 - x3 * sa
    return np.moveaxis(np.array([[xi, et], [alg.b * etb, xib]]), (0, 1), (-2, -1))


def _entry_bound(n: int, g0: GroupElement, radius: float) -> float:
    return np.sqrt(n) * g0.condition * np.exp(0.5 * radius) * (1.0 + 1e-9)


def _order_box(alg: QuatAlgebra, E: float) -> np.ndarray:
    sa = np.sqrt(alg.a)
    xb = np.array([E, E / sa, E * (1 + 1 / abs(alg.b)) / 2.0,
                   E * (1 + 1 / abs(alg.b)) / (2.0 * sa)])
    return np.ceil(alg._basis_inv_abs @ xb + 1e-9).astype(np.int64)


def _scan_box(alg: QuatAlgebra, n: int, g0: GroupElement, radius: float):
    """The coefficient box enumerate_norm_n sweeps, and its number of points."""
    bounds = _order_box(alg, _entry_bound(n, g0, radius))
    return bounds, int(np.prod(2 * bounds.astype(object) + 1))


def _conjugates(alg: QuatAlgebra, coords, n: int, g0: GroupElement) -> np.ndarray:
    """g0^(-1) iota(gamma)/sqrt(n) g0 for coordinates (..., 4); a central gamma
    (scalar iota) is fixed by conjugation, so it gives exactly e, unrounded."""
    m = iota_matrix(alg, coords)
    central = (m[..., 0, 1] == 0) & (m[..., 1, 0] == 0) & (m[..., 0, 0] == m[..., 1, 1])
    h = g0.inv().m @ (m / np.sqrt(float(n))) @ g0.m
    return np.where(central[..., None, None], np.eye(2), h)


def _scan_norm_form(alg: QuatAlgebra, box, n: int) -> list[tuple]:
    """Order coordinates v with |v_i| <= box[i] and nrd(v) = n, one of each
    pair +-v (the one lexicographically above its negative), in
    lexicographic order; swept exactly with the integer norm form one slice
    of the first coordinate at a time.

    The ij-indexed sweep with v_0 ascending is already lexicographic.
    Slices with v_0 < 0 only repeat the negatives of v_0 > 0 and are
    skipped; in the v_0 = 0 slice v and -v sit at mirrored ravel indices of
    the symmetric box, so that slice keeps the indices above its centre.
    """
    target = n * alg._den ** 2
    C = alg._C
    # every partial sum of the int64 norm form is bounded by the sum of its
    # terms' absolute values at the box's largest standard coordinates
    top = [sum(abs(int(C[i, j])) * int(box[j]) for j in range(4)) for i in range(4)]
    peak = top[0] ** 2 + abs(alg.a) * top[1] ** 2 + abs(alg.b) * top[2] ** 2 \
        + abs(alg.a * alg.b) * top[3] ** 2
    if not (_fits_int64(peak) and _fits_int64(target)):
        raise DomainError(f"order basis: norm-form values up to {peak} over the"
                          " scan box exceed int64")
    g1, g2, g3 = (g.ravel() for g in np.meshgrid(
        *(np.arange(-b, b + 1, dtype=np.int64) for b in box[1:]), indexing="ij"))
    out = []
    for v0 in range(int(box[0]) + 1):
        xs = [C[i, 0] * v0 + C[i, 1] * g1 + C[i, 2] * g2 + C[i, 3] * g3
              for i in range(4)]
        hits = np.nonzero(alg.nrd_std_scaled(xs) == target)[0]
        if v0 == 0:
            hits = hits[hits > g1.size // 2]
        out += [(v0, *v) for v in zip(g1[hits].tolist(), g2[hits].tolist(),
                                       g3[hits].tolist())]
    return out


def enumerate_norm_n(alg: QuatAlgebra, n: int, g0: GroupElement = None,
                     radius: float = 1.0):
    """All order elements of reduced norm n whose conjugated projection lies
    within `radius` of the identity, up to projective sign.

    Completeness: the projection to the plane is a Riemannian submersion
    for ||log h||, so the conjugate h has d(i, h.i) <= ||log h|| <= radius;
    with singular values s >= 1/s, ||h||_F^2 = s^2 + s^-2 = 2 cosh d(i, h.i),
    so s <= e^(radius/2) (diagonal flows attain it).  Every entry of
    iota(gamma) is then at most sqrt(n) ||g0|| ||g0^-1|| e^(radius/2);
    inverting the coordinate map turns that into a finite scan box, swept
    exactly with the integer norm form; its hits are conjugated as one
    stack.  Returns (coords, h) pairs in lexicographic order of coords, h
    the conjugate the filter measured (e exactly for a central gamma).  A
    box of more than COEFF_BUDGET points is refused before the scan.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if radius > 2.0:
        raise DomainError("radius must be <= 2")
    if g0 is None:
        g0 = GroupElement.identity()
    bounds, volume = _scan_box(alg, n, g0, radius)
    if volume > COEFF_BUDGET:
        raise ResourceError(f"coefficient box {2 * bounds + 1} has volume "
                            f"{volume} > budget {COEFF_BUDGET}")
    hits = _scan_norm_form(alg, bounds, n)
    h = _conjugates(alg, np.reshape(hits, (-1, 4)), n, g0)
    return [(v, hv) for v, hv, k in zip(hits, h, _log_norm(h) <= radius) if k]


def return_count_ratio(alg: QuatAlgebra, g0_list, n_max: int, kappa_list):
    """max over the grid of M(g,n,kappa) / ((n/kappa)^eps (n sqrt(kappa)+1)),
    eps = RETURN_EPS.

    Finite by construction; the reported value is the measured analogue of
    the return-count bound's implied constant.  Each (g0, n) pair is
    enumerated once; one dist_to_diag call takes the conjugates of every
    pair's survivors, and each distance is reused across kappa.  A grid whose
    scan boxes hold more than SCAN_BUDGET points in all is refused before
    the first scan, counted one pair at a time, so n_max sizes no list.
    """
    pairs, points = [], 0
    for gi, g0 in enumerate(g0_list):
        for n in range(1, n_max + 1):
            points += _scan_box(alg, n, g0, 1.0)[1]
            if points > SCAN_BUDGET:
                raise ResourceError(f"scan boxes up to n={n} hold more than"
                                    f" {SCAN_BUDGET} points")
            pairs.append((gi, n, g0))
    found = [enumerate_norm_n(alg, n, g0) for _, n, g0 in pairs]
    dists = dist_to_diag(np.reshape([h for f in found for _, h in f], (-1, 2, 2)))[0]
    best = 0.0
    rows = []
    for (gi, n, _), d in zip(pairs, np.split(dists, np.cumsum([len(f) for f in found])[:-1])):
        for kappa in kappa_list:
            M = int(np.count_nonzero(d <= kappa))
            denom = (n / kappa) ** RETURN_EPS * (n * np.sqrt(kappa) + 1.0)
            rows.append((gi, n, float(kappa), M, M / denom))
            best = max(best, M / denom)
    return best, rows


@dataclass(frozen=True)
class Amplifier:
    """Prime/prime-square coefficient sequence alpha_n."""

    coeffs: dict = field(repr=False)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def moment_l1(self) -> float:
        return float(sum(abs(v) for v in self.coeffs.values()))

    def moment_l2(self) -> float:
        return float(sum(abs(v) ** 2 for v in self.coeffs.values()))

    def eigenvalue_functional(self, eigenvalues: dict) -> float:
        return float(sum(v * eigenvalues[n] for n, v in self.coeffs.items()))


@functools.lru_cache(maxsize=1)
def _amplifier_primes(root: int) -> tuple[int, ...]:
    """The primes p <= root; the draws of one amplifier length share one
    sieve."""
    return tuple(primes_up_to(root))


def build_amplifier(N: int, eigenvalues: dict, q: int = 1) -> Amplifier:
    """Coefficients alpha_p = sgn lambda(p) when |lambda(p)| >= 1/2, else
    alpha_{p^2} = sgn lambda(p^2), over primes p <= sqrt(N) coprime to q.

    Validates the multiplicative relation lambda(p)^2 - lambda(p^2) = 1 to
    1e-9 and guarantees |sum alpha_n lambda(n)| >= (1/2) #primes.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    coeffs = {}
    for p in _amplifier_primes(math.isqrt(N)):
        if math.gcd(p, q) != 1:
            continue
        lp = eigenvalues.get(p)
        lp2 = eigenvalues.get(p * p)
        if lp is None or lp2 is None:
            raise DomainError(f"missing eigenvalues for prime {p}")
        if abs(lp * lp - lp2 - 1.0) > 1e-9:
            raise DomainError(f"Hecke relation violated at p={p}: "
                              f"lambda(p)^2 - lambda(p^2) = {lp * lp - lp2}")
        if abs(lp) >= 0.5:
            coeffs[p] = 1.0 if lp > 0 else -1.0
        else:
            # |lambda(p^2)| = |lambda(p)^2 - 1| > 3/4 here
            coeffs[p * p] = 1.0 if lp2 > 0 else -1.0
    return Amplifier(coeffs)


def random_hecke_eigenvalues(N: int, rng: np.random.Generator) -> dict:
    """Random eigenvalue assignment satisfying lambda(p)^2 - lambda(p^2) = 1,
    with lambda(p) uniform on [-2, 2]."""
    eigs = {}
    for p in _amplifier_primes(math.isqrt(N)):
        lp = float(rng.uniform(-2.0, 2.0))
        eigs[p] = lp
        eigs[p * p] = lp * lp - 1.0
    return eigs
