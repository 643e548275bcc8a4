from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import logm

import restrictlab as rl
from restrictlab.errors import DomainError
from restrictlab.geometry import _log_norm

from conftest import conjugated_element, dist_to_identity, golden_min


def random_elements(n, seed=0, scale=0.8):
    """Random group elements via the exponential of random Lie-algebra vectors."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x1, x2, x3 = rng.uniform(-scale, scale, 3)
        X = np.array([[x1, x2], [x3, -x1]])
        from scipy.linalg import expm
        out.append(rl.GroupElement(expm(X)))
    return out


def upper_unipotent(x: float) -> rl.GroupElement:
    return rl.GroupElement(np.array([[1.0, x], [0.0, 1.0]]))


def boundary_elements():
    """Elements where the log's hyperbolic, parabolic and elliptic cases meet."""
    return [rl.GroupElement.rotation(np.pi / 2),                        # trace 0
            upper_unipotent(0.8), rl.GroupElement.lower_shear(-1.5),   # parabolic
            rl.GroupElement.rotation(1e-8), upper_unipotent(1e-8),     # near e
            rl.GroupElement(np.array([[1.0 + 1e-9, 2e-9], [-1e-9, 1.0]]))]


def submersion_norm(X: np.ndarray) -> float:
    """||X||^2 = 4 X1^2 + (X2+X3)^2 + (X2-X3)^2/4 on X = [[X1,X2],[X3,-X1]]."""
    X1, X2, X3 = X[0, 0], X[0, 1], X[1, 0]
    return float(np.sqrt(4.0 * X1 * X1 + (X2 + X3) ** 2 + 0.25 * (X2 - X3) ** 2))


def log_psl2_oracle(g: rl.GroupElement) -> np.ndarray:
    """Real log of g's trace >= 0 representative, case by case: the matrix
    log that _log_norm took the norm of before its closed form."""
    m = g.m
    p = 0.5 * (m[0, 0] + m[1, 1])
    if p > 1.0 + 1e-13:
        t = np.arccosh(p)
        scale = t / np.sinh(t)
    elif p < 1.0 - 1e-13:
        th = np.arccos(p)
        scale = th / np.sin(th)
    else:
        scale = 1.0
    return scale * (m - p * np.eye(2))


def dist_to_diag_oracle(g: rl.GroupElement):
    """dist_to_diag's scan and golden section with one GroupElement product
    a(-y) g, its case-by-case log and its norm per objective call."""
    def objective(y):
        return submersion_norm(log_psl2_oracle(rl.GroupElement.diag_flow(-y) @ g))

    ys = np.linspace(-10.0, 10.0, 65)
    vals = np.array([objective(y) for y in ys])
    i = int(np.argmin(vals))
    y_star, d = golden_min(objective, ys[max(0, i - 1)], ys[min(64, i + 1)])
    if vals[i] < d:
        y_star, d = ys[i], vals[i]
    return float(d), float(y_star), bool(i == 0 or i == 64)


def iwasawa_A(g: rl.GroupElement) -> float:
    """Height A(g) with g in N a(A(g)) K; equals ln Im(g.i)."""
    c, d = g.m[1, 0], g.m[1, 1]
    return -2.0 * np.log(np.hypot(c, d))


@dataclass(frozen=True)
class Geodesic:
    """Unit-speed geodesic s -> (base a(s)).i through base.i."""

    base: rl.GroupElement
    length: float = 1.0

    def point(self, s: float) -> complex:
        return rl.act(self.base @ rl.GroupElement.diag_flow(s), 1j)


def dist_to_geodesic(z: complex, ell: Geodesic):
    """Distance from z to the full geodesic line, plus the foot parameter.

    In standard position the line is the imaginary axis, the distance is
    asinh(|x|/y), and the foot sits at ln |z|.
    """
    zp = rl.act(ell.base.inv(), z)
    return (float(np.arcsinh(abs(zp.real) / zp.imag)), float(np.log(abs(zp))))


@dataclass(frozen=True)
class Tube:
    """delta-neighborhood of a geodesic segment."""

    geodesic: Geodesic
    half_width: float

    def contains(self, z: complex) -> bool:
        d, s = dist_to_geodesic(z, self.geodesic)
        return d <= self.half_width and 0.0 <= s <= self.geodesic.length


# ---------------------------------------------------------------- action

def test_act_diag_flow():
    for y in (0.0, 0.7, -1.3):
        assert rl.act(rl.GroupElement.diag_flow(y), 1j) == pytest.approx(np.exp(y) * 1j)


def test_act_identity_and_rotation_fix():
    z = 0.3 + 1.7j
    assert rl.act(rl.GroupElement.identity(), z) == pytest.approx(z)
    for th in (0.3, 1.1):
        assert rl.act(rl.GroupElement.rotation(th), 1j) == pytest.approx(1j, abs=1e-14)


def test_act_requires_upper_half_plane():
    with pytest.raises(DomainError):
        rl.act(rl.GroupElement.identity(), 1.0 - 1j)


# ---------------------------------------------------------------- distance

def test_dist_vertical_geodesic():
    for y in (0.5, 2.0):
        assert rl.dist_hyp(1j, np.exp(y) * 1j) == pytest.approx(y, abs=1e-14)


def test_dist_closed_form():
    # cosh d = 1 + |z-w|^2 / (2 Im z Im w) gives arccosh(1.5)
    assert rl.dist_hyp(1j, 1 + 1j) == pytest.approx(np.arccosh(1.5), abs=1e-14)
    assert rl.dist_hyp(1j, 1 + 1j) == pytest.approx(0.9624, abs=1e-4)


def test_dist_isometry_invariance():
    rng = np.random.default_rng(1)
    z, w = 0.4 + 0.9j, -1.2 + 2.5j
    base = rl.dist_hyp(z, w)
    for g in random_elements(20, seed=2):
        assert rl.dist_hyp(rl.act(g, z), rl.act(g, w)) == pytest.approx(base, abs=1e-10)


def test_dist_axioms_sampled():
    pts = [0.1 + 0.5j, -1 + 2j, 0.7 + 0.2j, 2 + 3j]
    for z in pts:
        assert rl.dist_hyp(z, z) == 0.0
        for w in pts:
            assert rl.dist_hyp(z, w) == pytest.approx(rl.dist_hyp(w, z), abs=1e-14)
            for u in pts:
                assert rl.dist_hyp(z, u) <= rl.dist_hyp(z, w) + rl.dist_hyp(w, u) + 1e-10


# ---------------------------------------------------------------- iwasawa

def test_iwasawa_basics():
    assert iwasawa_A(rl.GroupElement.diag_flow(2.0)) == pytest.approx(2.0, abs=1e-14)
    assert iwasawa_A(rl.GroupElement.identity()) == 0.0


def test_iwasawa_unipotent_invariance():
    g = rl.GroupElement.diag_flow(0.6) @ rl.GroupElement.rotation(0.4)
    for x in (0.3, -2.0):
        n = upper_unipotent(x)
        assert iwasawa_A(n @ g) == pytest.approx(iwasawa_A(g), abs=1e-13)


def test_iwasawa_matches_height_and_nak_oracle():
    for g in random_elements(100, seed=3):
        A = iwasawa_A(g)
        assert np.exp(A) == pytest.approx(rl.act(g, 1j).imag, rel=1e-12)
        # NAK-factorization oracle: rotate the bottom row into (0, e^(-A/2))
        c, d = g.m[1]
        th = np.arctan2(c, d)
        k_inv = rl.GroupElement.rotation(-th).m
        upper = g.m @ k_inv
        assert upper[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert -2.0 * np.log(abs(upper[1, 1])) == pytest.approx(A, abs=1e-12)


# ---------------------------------------------------------------- geodesics

def test_geodesic_unit_speed():
    ell = Geodesic(random_elements(1, seed=4)[0])
    ss = np.linspace(0, 1, 9)
    for s in ss:
        for t in ss:
            assert rl.dist_hyp(ell.point(s), ell.point(t)) == pytest.approx(
                abs(s - t), abs=1e-10)


def test_dist_to_geodesic_closed_form():
    ell = Geodesic(rl.GroupElement.identity())
    d, foot = dist_to_geodesic(1 + 1j, ell)
    assert d == pytest.approx(np.arcsinh(1.0), abs=1e-14)
    assert d == pytest.approx(0.8814, abs=1e-4)


def test_dist_to_geodesic_on_line_and_fermi_grid():
    ell = Geodesic(rl.GroupElement.identity())
    assert dist_to_geodesic(np.exp(0.3) * 1j, ell)[0] == pytest.approx(0.0, abs=1e-14)
    xs = np.linspace(-2, 2, 100)
    for x in xs:
        d, _ = dist_to_geodesic(x + 0.8j, ell)
        assert d == pytest.approx(np.arcsinh(abs(x) / 0.8), abs=1e-10)


def test_dist_to_geodesic_transport_consistency():
    # moving the configuration by an isometry moves base and point together
    z = 0.9 + 1.4j
    for g0 in random_elements(10, seed=5):
        d1, s1 = dist_to_geodesic(z, Geodesic(g0))
        for h in random_elements(5, seed=6):
            d2, s2 = dist_to_geodesic(rl.act(h, z), Geodesic(h @ g0))
            assert d2 == pytest.approx(d1, abs=1e-10)
            assert s2 == pytest.approx(s1, abs=1e-8)


def test_tube_membership_monotone():
    ell = Geodesic(rl.GroupElement.identity())
    zs = [0.1 + 1.1j, 0.4 + 1.3j, 1.5 + 0.4j, np.exp(0.5) * 1j]
    for z in zs:
        inner = Tube(ell, 0.3).contains(z)
        outer = Tube(ell, 0.8).contains(z)
        assert (not inner) or outer


# ---------------------------------------------------------------- group axioms

def test_group_axioms():
    els = random_elements(12, seed=7)
    for g in els[:4]:
        for h in els[4:8]:
            for k in els[8:]:
                lhs = ((g @ h) @ k).m
                rhs = (g @ (h @ k)).m
                assert np.abs(lhs - rhs).max() <= 1e-12
    for g in els:
        assert np.abs((g @ g.inv()).m - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(g.m) - 1.0) <= 1e-12


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_group_element_refuses_nonfinite_entries(entry):
    # an infinite shear has det = 1 - 0 * inf = NaN, which a det <= 0 check
    # lets through; the entries are refused before the determinant, so no
    # RuntimeWarning is raised either
    with pytest.raises(DomainError, match="finite"):
        rl.GroupElement.lower_shear(entry)
    with pytest.raises(DomainError, match="finite"):
        rl.GroupElement(np.array([[1.0, entry], [0.0, 1.0]]))


def test_projective_sign_canonical():
    m = np.array([[1.2, 0.3], [0.1, (1 + 0.3 * 0.1) / 1.2]])
    g1 = rl.GroupElement(m)
    g2 = rl.GroupElement(-m)
    assert np.array_equal(g1.m, g2.m)


# ---------------------------------------------------------------- log distance

def test_dist_to_identity_basics():
    assert dist_to_identity(rl.GroupElement.identity()) == 0.0
    # log of the diagonal flow is diagonal; submersion norm gives |y|
    for y in (0.1, 0.5, -0.4):
        assert dist_to_identity(rl.GroupElement.diag_flow(y)) == pytest.approx(
            abs(y), rel=1e-12)


def test_log_matches_scipy_oracle():
    els = random_elements(40, seed=8) + boundary_elements()
    for g in els:
        Y = logm(g.m)
        assert np.abs(np.imag(Y)).max() <= 1e-9
        assert abs(dist_to_identity(g) - submersion_norm(np.real(Y))) <= 1e-9
    # on a stack, and on its negatives, the closed form is the per-matrix one
    stack = np.stack([g.m for g in els])
    assert np.array_equal(_log_norm(stack), [_log_norm(g.m) for g in els])
    assert np.array_equal(_log_norm(-stack), _log_norm(stack))


def test_log_distance_dominates_plane_displacement():
    # the norm is normalized as a Riemannian submersion onto the plane, so
    # the projected displacement never exceeds the group-side surrogate;
    # with ||g||_F^2 = s^2 + s^-2 = 2 cosh d(i, g.i) for the singular values
    # s >= 1/s, that gives s <= e^(||log g|| / 2), which diagonal flows attain
    k = rl.GroupElement.rotation(0.7)
    flows = [rl.GroupElement.diag_flow(y) for y in (1e-9, 0.3, -1.1, 2.0)]
    flows += [k @ a @ k.inv() for a in flows]
    for g in flows + boundary_elements() + random_elements(40, seed=14, scale=0.6):
        d_plane = rl.dist_hyp(rl.act(g, 1j), 1j)
        assert np.sum(g.m ** 2) == pytest.approx(2.0 * np.cosh(d_plane), rel=1e-10)
        assert d_plane <= dist_to_identity(g) + 1e-9
    for g in flows:
        assert dist_to_identity(g) == pytest.approx(
            rl.dist_hyp(rl.act(g, 1j), 1j), rel=1e-9, abs=1e-12)


def test_dist_to_identity_inverse_symmetry():
    for g in random_elements(30, seed=9):
        assert dist_to_identity(g) == pytest.approx(
            dist_to_identity(g.inv()), abs=1e-10)


# ---------------------------------------------------------------- dist to diagonal

def test_dist_to_diag_on_subgroup():
    d, y, flagged = rl.dist_to_diag(rl.GroupElement.diag_flow(3.0).m)
    assert d <= 1e-9
    assert y == pytest.approx(3.0, abs=1e-6)
    assert not flagged


def test_dist_to_diag_small_rotation_first_order():
    theta = 1e-3
    d, _, _ = rl.dist_to_diag(rl.GroupElement.rotation(theta).m)
    assert 0.9 <= d / theta <= 1.1


def test_dist_to_diag_left_translation_invariance():
    # a(y0) absorbs into the infimum exactly
    g = rl.GroupElement.rotation(0.2) @ upper_unipotent(0.4)
    base, _, _ = rl.dist_to_diag(g.m)
    for y0 in (0.5, -1.2, 2.0):
        moved, _, _ = rl.dist_to_diag((rl.GroupElement.diag_flow(y0) @ g).m)
        assert moved == pytest.approx(base, abs=1e-8)


def test_dist_to_diag_boundary_flag():
    # an element needing y beyond the bracket: flag it
    d, y, flagged = rl.dist_to_diag(rl.GroupElement.diag_flow(12.0).m)
    assert flagged


def test_dist_to_diag_matches_oracle():
    # one stacked call against one GroupElement per objective call and the
    # scalar golden section: random elements, two past the bracket edge,
    # rapid-decay's default shears t* {0.25, ..., 4} and the survivors
    # return_count_ratio measures
    els = random_elements(100, seed=21, scale=1.5)
    els += [rl.GroupElement.diag_flow(y) @ rl.GroupElement.rotation(0.3) for y in (-12.0, 12.0)]
    _, shears = rl.integrals.rapid_decay_shears(100.0, 100.0 ** 0.5, 0.1,
                                                [0.25, 0.5, 1.0, 2.0, 4.0])
    els += [rl.GroupElement.lower_shear(t) for _, t, _ in shears]
    alg = rl.QuatAlgebra()
    survivors = [conjugated_element(alg, v, n, g0)
                 for g0 in map(rl.GroupElement.rotation, (0.1, 0.55, 1.0))
                 for n in range(1, 13) for v, _ in rl.enumerate_norm_n(alg, n, g0)]
    assert len(survivors) > 10
    els += survivors
    d, _, flagged = rl.dist_to_diag(np.array([g.m for g in els]))
    assert d.shape == flagged.shape == (len(els),)
    for g, d_g, flagged_g in zip(els, d, flagged):
        d_oracle, _, flagged_oracle = dist_to_diag_oracle(g)
        assert abs(d_g - d_oracle) <= 1e-12
        assert flagged_g == flagged_oracle


@pytest.mark.parametrize("shape", [(), (0,)], ids=["one", "empty"])
def test_dist_to_diag_stack_shapes(shape):
    # one matrix gives 0-d results, an empty stack empty arrays
    m = np.broadcast_to(rl.GroupElement.rotation(0.3).m, shape + (2, 2))
    for out in rl.dist_to_diag(m):
        assert np.shape(out) == shape


@pytest.mark.parametrize("maximal", [False, True], ids=["default", "maximal"])
def test_return_count_ratio_rows_match_oracle(monkeypatch, maximal):
    # every (g0, n, kappa) row counts the survivors the oracle puts within
    # kappa of A, from one stacked dist_to_diag call
    alg = rl.QuatAlgebra(basis=rl.MAXIMAL_ORDER_2_3 if maximal else None)
    g0s = [rl.GroupElement.rotation(t) for t in (0.1, 0.55, 1.0)]
    kappas = [1.0, 0.5, 0.25, 0.125]
    calls = []
    fn = rl.hecke.dist_to_diag
    monkeypatch.setattr(rl.hecke, "dist_to_diag",
                        lambda *a: calls.append("dist_to_diag") or fn(*a))
    _, rows = rl.return_count_ratio(alg, g0s, 12, kappas)
    assert calls == ["dist_to_diag"]
    expected = []
    for gi, g0 in enumerate(g0s):
        for n in range(1, 13):
            dists = [dist_to_diag_oracle(conjugated_element(alg, v, n, g0))[0]
                     for v, _ in rl.enumerate_norm_n(alg, n, g0)]
            expected += [(gi, n, kappa, sum(d <= kappa for d in dists)) for kappa in kappas]
    assert [row[:4] for row in rows] == expected
