"""Upper half-plane model: PSL(2,R) elements, the Moebius action, hyperbolic
distance, and surrogate distances to the identity and to the diagonal
subgroup A."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    # projective representative: trace >= 0, ties broken by m11 then m12
    tr = m[0, 0] + m[1, 1]
    if tr < 0:
        return -m
    if tr == 0:
        if m[0, 0] < 0 or (m[0, 0] == 0 and m[0, 1] < 0):
            return -m
    return m


@dataclass(frozen=True)
class GroupElement:
    """Element of PSL(2,R): a unit-determinant 2x2 real matrix up to sign."""

    m: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.m, dtype=float)
        if m.shape != (2, 2):
            raise DomainError("GroupElement needs a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det <= 0:
            raise DomainError(f"determinant must be positive, got {det}")
        m = m / np.sqrt(det)
        object.__setattr__(self, "m", _canonical_sign(m))

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(np.eye(2))

    @classmethod
    def diag_flow(cls, y: float) -> "GroupElement":
        """a(y): the diagonal one-parameter subgroup, a(y).i = e^y i."""
        return cls(np.array([[np.exp(y / 2.0), 0.0], [0.0, np.exp(-y / 2.0)]]))

    @classmethod
    def rotation(cls, theta: float) -> "GroupElement":
        return cls(np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]]))

    @classmethod
    def lower_shear(cls, t: float) -> "GroupElement":
        """exp(t E) for the lower off-diagonal generator E."""
        return cls(np.array([[1.0, 0.0], [t, 1.0]]))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m)

    def inv(self) -> "GroupElement":
        a, b, c, d = self.m.ravel()
        return GroupElement(np.array([[d, -b], [-c, a]]))

    def op_norm(self) -> float:
        return float(np.linalg.norm(self.m, 2))


def act(g: GroupElement, z: complex) -> complex:
    """Moebius action (a z + b) / (c z + d) on the upper half-plane."""
    if z.imag <= 0:
        raise DomainError("z must lie in the upper half-plane")
    a, b, c, d = g.m.ravel()
    den = c * z + d
    if abs(den) < 1e-300:
        raise DomainError("denominator underflow in Moebius action")
    return (a * z + b) / den


def dist_hyp(z: complex, w: complex) -> float:
    """Hyperbolic distance; 2 asinh(|z-w| / (2 sqrt(Im z Im w)))."""
    if z.imag <= 0 or w.imag <= 0:
        raise DomainError("points must lie in the upper half-plane")
    return 2.0 * np.arcsinh(abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag)))


def log_psl2(g: GroupElement) -> np.ndarray:
    """Real matrix logarithm along the principal branch (trace >= 0 rep).

    Closed form via the Cayley-Hamilton split g = p I + Y with tr Y = 0:
    hyperbolic (p>1), parabolic (p=1) and elliptic (p<1) cases all have a
    real logarithm after the projective sign choice.
    """
    m = g.m
    p = 0.5 * (m[0, 0] + m[1, 1])
    Y = m - p * np.eye(2)
    if p > 1.0 + 1e-13:
        t = np.arccosh(p)
        scale = t / np.sinh(t)
    elif p < 1.0 - 1e-13:
        th = np.arccos(p)
        scale = th / np.sin(th)
    else:
        scale = 1.0
    return scale * Y


def gnorm(X: np.ndarray) -> float:
    """Norm on trace-free 2x2 matrices [[X1,X2],[X3,-X1]].

    Normalized so the projection to the upper half-plane is a Riemannian
    submersion: ||X||^2 = 4 X1^2 + (X2+X3)^2 + (X2-X3)^2/4.  Diagonal flow
    a(y) then has ||log a(y)|| = |y| (matching its hyperbolic displacement)
    and small rotations by matrix angle theta have norm theta.  This is
    bi-Lipschitz to any other choice; only constants move.
    """
    X1, X2, X3 = X[0, 0], X[0, 1], X[1, 0]
    return float(np.sqrt(4.0 * X1 * X1 + (X2 + X3) ** 2 + 0.25 * (X2 - X3) ** 2))


def dist_to_identity(g: GroupElement) -> float:
    """Left-invariant surrogate distance ||log g||; exact on one-parameter
    subgroups, comparable to the true metric within fixed factors."""
    return gnorm(log_psl2(g))


def _golden_min(f, a: float, b: float, tol: float = 1e-10, max_iter: int = 200):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def dist_to_diag(g: GroupElement):
    """inf over y in [-10, 10] of d(a(-y) g, e), with the minimizer.

    A 64-cell bracket scan then golden-section refinement; the boundary flag
    is set when the minimizer sits at the bracket edge.
    """
    def objective(y):
        return dist_to_identity(GroupElement.diag_flow(-y) @ g)

    ys = np.linspace(-10.0, 10.0, 65)
    vals = np.array([objective(y) for y in ys])
    i = int(np.argmin(vals))
    lo = ys[max(0, i - 1)]
    hi = ys[min(64, i + 1)]
    y_star, d = _golden_min(objective, lo, hi)
    if vals[i] < d:   # a scan node (e.g. an exact zero on A) can beat golden
        y_star, d = ys[i], vals[i]
    flagged = bool(i == 0 or i == 64)
    return float(d), float(y_star), flagged
