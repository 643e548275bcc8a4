import tracemalloc
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest

import conftest
import restrictlab as rl
from restrictlab import frequency, spherical
from restrictlab.errors import DomainError, NonConvergenceError, ResourceError
from restrictlab.sampling import convolve_valid, dft_head, even_table, smooth_length
from restrictlab.spherical import SPECTRAL_TRUNCATION, _circle_mean, _h0_squared, _h_profile

from conftest import (_phi_integrand_nodes, cached_kernel, cubic_spline_table, hc_forward,
                      masked_even_table, phi_s, phi_s_radial, selberg_kernel)


def hc_inverse(H_eval, x: float, truncation: float = None) -> float:
    """Inverse transform at the radial point a(x):
    int_0^T H(s) phi_s(a(x)) s tanh(pi s) / (2 pi) ds, by a direct per-point
    quadrature (the oracle of make_kernel's FFT and circle table)."""
    if truncation is None:
        raise DomainError("truncation point is required")
    T = float(truncation)
    s = np.arange(0.0, T + 0.01, 0.01)
    Hs = np.asarray(H_eval(s), dtype=float)
    n_theta = max(64, int(1.3 * T * abs(x)) + 64)
    th = _phi_integrand_nodes(n_theta)
    u = np.cosh(x) - np.sinh(x) * np.cos(2.0 * th)
    lu = np.log(u)
    phis = (u[None, :] ** -0.5 * np.cos(np.outer(s, lu))).mean(axis=1)
    dens = s * np.tanh(np.pi * s) / (2.0 * np.pi)
    return float(np.trapezoid(Hs * phis * dens, s))


def padded_dft_head(c: np.ndarray, L: int, n: int) -> np.ndarray:
    """The first n terms of the length-L DFT of real c from one zero-padded
    rfft, mirrored past L/2 (the oracle of make_kernel's chirp-z Q)."""
    X = np.fft.rfft(c, L)
    if n > X.size:
        X = np.concatenate([X, X[-2:0:-1].conj()])
    return X[:n]


def per_node_circle_mean(x, n_theta, F) -> np.ndarray:
    """The full circle rule one node at a time, each on its own (1, n) array,
    every midpoint node evaluated: the oracle of the mirror pairing."""
    x = np.asarray(x, dtype=float)
    counts = np.broadcast_to(n_theta, x.shape)

    def one(xx: float, n: int) -> float:
        u = np.cosh(xx) - np.sinh(xx) * np.cos(2.0 * _phi_integrand_nodes(n))
        return float((u ** -0.5 * F(np.log(u))).mean())

    return np.array([one(xx, int(n)) for xx, n in zip(x.ravel(), counts.ravel())]).reshape(x.shape)


def paired_per_node_circle_mean(x, n_theta, F) -> np.ndarray:
    """The mirror-paired circle rule one node at a time: the first ceil(n/2)
    midpoint nodes with weight 2, the middle node of an odd n with weight 1,
    over n (the oracle of the blocked ragged _circle_mean)."""
    x = np.asarray(x, dtype=float)
    counts = np.broadcast_to(n_theta, x.shape)

    def one(xx: float, n: int) -> float:
        th = _phi_integrand_nodes(n)[:(n + 1) // 2]
        w = np.full(th.size, 2.0)
        w[-1] -= n % 2
        u = np.cosh(xx) - np.sinh(xx) * np.cos(2.0 * th)
        return float((w * u ** -0.5 * F(np.log(u))).sum() / n)

    return np.array([one(xx, int(n)) for xx, n in zip(x.ravel(), counts.ravel())]).reshape(x.shape)


def demodulate_window(x: np.ndarray, vals: np.ndarray, s: float):
    """Least-squares split of samples into e^(+-i s x) components with
    window-linear amplitudes.

    Returns (f_plus, f_minus, residual, flagged); the flag marks an
    ill-conditioned design (near-parallel columns)."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean()
    e_p = np.exp(1j * s * x)
    e_m = np.exp(-1j * s * x)
    A = np.stack([e_p, xc * e_p, e_m, xc * e_m], axis=1)
    coef, _, rank, sv = np.linalg.lstsq(A, np.asarray(vals, dtype=complex), rcond=None)
    resid = float(np.abs(vals - A @ coef).max())
    flagged = bool(rank < 4 or sv[-1] < 1e-8 * sv[0])
    return complex(coef[0]), complex(coef[2]), resid, flagged


def asymptotic_check(lam: float, x_range=(0.5, 2.0)):
    """Demodulate phi_lam into e^(+-i lam x) amplitudes on x_range.

    Reports, for 40 windows of 12 samples each, per-window |f+| and fit
    residuals, the scaled sup |f+| (lam x)^(1/2), and ill-conditioning flags.
    """
    s = float(lam)
    h = 0.4 / s
    lo, hi = x_range
    out = {"x": [], "f_plus": [], "residual": [], "flagged": []}
    for x0 in np.linspace(lo, hi - 12 * h, 40):
        x = x0 + h * np.arange(12)
        vals = phi_s_radial(s, x)
        fp, _, resid, flagged = demodulate_window(x, vals, s)
        out["x"].append(float(x.mean()))
        out["f_plus"].append(abs(fp))
        out["residual"].append(resid)
        out["flagged"].append(flagged)
    out = {k: np.asarray(v) for k, v in out.items()}
    out["sup_scaled_plus"] = float((out["f_plus"] * np.sqrt(s * out["x"])).max())
    return out


# ---------------------------------------------------------------- phi_s

def test_phi_at_identity_is_one():
    for s in (0.0, 3.7, 50.0):
        v = phi_s(s, rl.GroupElement.identity())
        assert v.real == pytest.approx(1.0, abs=1e-12)
        assert abs(v.imag) <= 1e-12


@pytest.mark.parametrize("s,x", [(10.0, 0.4), (50.0, 1.1)])
def test_phi_weyl_symmetry_and_realness(s, x):
    g = rl.GroupElement.diag_flow(x)
    vp = phi_s(s, g)
    vm = phi_s(-s, g)
    assert abs(vp - vm) <= 1e-10
    assert abs(vp.imag) <= 1e-10


def test_phi_nonconvergence_error(monkeypatch):
    monkeypatch.setattr(conftest, "PHI_MAX_NODES", 256)
    with pytest.raises(NonConvergenceError):
        phi_s(200.0, rl.GroupElement.diag_flow(1.5))


def test_phi_legendre_oracle():
    # independent integral representation via mpmath's Legendre function
    s, x = 5.0, 0.3
    mine = phi_s(s, rl.GroupElement.diag_flow(x))
    ref = complex(mpmath.legenp(-0.5 + 1j * s, 0, mpmath.cosh(x)))
    assert abs(mine - ref) <= 1e-8


def test_phi_bounded_by_phi0():
    xs = np.array([0.2, 0.7, 1.5])
    p0 = phi_s_radial(0.0, xs)
    for s in (3.0, 12.0, 40.0):
        ps = phi_s_radial(s, xs)
        assert np.all(np.abs(ps) <= p0 + 1e-8)
        assert np.all(np.abs(ps) <= 1.0 + 1e-8)


@pytest.mark.parametrize("s", [10.0, 50.0])
def test_phi_eigen_equation(s):
    # radial hyperbolic Laplacian via second-order differences
    h = 5e-4
    r = np.arange(0.1, 2.0, h)
    v = phi_s_radial(s, r)
    lap = ((v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
           + (v[2:] - v[:-2]) / (2 * h) / np.tanh(r[1:-1]))
    resid = np.abs(lap + (0.25 + s * s) * v[1:-1])
    assert resid.max() / (0.25 + s * s) <= 1e-4


# ---------------------------------------------------------------- transforms

def test_hc_forward_zero_and_evenness():
    assert hc_forward(lambda r: np.zeros_like(r), 5.0, support_radius=1.0) == 0.0

    def f(r):
        return np.exp(-40.0 * r ** 2) * (r < 0.5)

    for s in (3.0, 17.0):
        assert abs(hc_forward(f, s, support_radius=0.5)
                   - hc_forward(f, -s, support_radius=0.5)) <= 1e-9


def test_hc_forward_requires_support():
    with pytest.raises(TypeError):
        hc_forward(lambda r: np.zeros_like(r), 5.0)


def test_hc_inverse_zero_and_truncation_required():
    assert hc_inverse(lambda s: np.zeros_like(s), 0.3, truncation=50.0) == 0.0
    with pytest.raises(DomainError):
        hc_inverse(lambda s: np.zeros_like(s), 0.3)


def test_kernel_positive_at_origin(kernel100):
    # k(e) = int h0^2 d(plancherel) > 0
    assert kernel100.values[0] > 0
    assert kernel100.values[0] == pytest.approx(
        hc_inverse(lambda s: _h0_squared(kernel100.lam, s), 0.0,
                   truncation=kernel100.lam + SPECTRAL_TRUNCATION), rel=1e-6)


def test_kernel_table_matches_direct_inverse(kernel100):
    # two organizations of the same spectral integral: the FFT+circle table
    # against a direct per-point inverse transform
    T = kernel100.lam + SPECTRAL_TRUNCATION
    for x in (0.02, 0.05, 0.11):
        direct = hc_inverse(lambda s: _h0_squared(kernel100.lam, s), x, truncation=T)
        assert kernel100.radial(x) == pytest.approx(direct, rel=1e-5, abs=1e-4)


def test_kernel_roundtrip(kernel100):
    lam = kernel100.lam
    for s in (lam - 1.0, lam, lam + 1.0):
        fwd = hc_forward(kernel100.radial, s,
                         support_radius=kernel100.support_radius + 0.05)
        assert fwd == pytest.approx(_h0_squared(lam, s), rel=1e-5)


def test_kernel_table_shape(kernel100):
    # center value dominates the table within a factor 2
    assert np.abs(kernel100.values).max() <= 2.0 * kernel100.values[0]
    assert kernel100.verify_residual <= 1e-6


def test_kernel_spectral_nonnegativity(kernel100):
    s = np.linspace(0, kernel100.lam * 2, 10001)
    assert _h0_squared(kernel100.lam, s).min() >= 0.0


def test_kernel_support_vanishing(kernel100):
    # past its support radius k is 0: the spline through the last nodes
    # inside it is below the gate, and exactly 0 past the table's end
    x = np.linspace(kernel100.support_radius, 1.0, 100001)
    assert np.abs(kernel100.radial(x)).max() <= 1e-6 * kernel100.values[0]


def _recorded_kernel(monkeypatch, lam: float, x_max: float):
    """(kernel, Q's table function, Q's t-step) of a fresh make_kernel."""
    tables = []

    def recorded(step, values):
        tables.append((even_table(step, values), step))
        return tables[-1][0]

    monkeypatch.setattr(spherical, "even_table", recorded)
    kern = rl.make_kernel(lam, x_max=x_max)
    return (kern, *tables[0])


@pytest.mark.parametrize("lam, x_max", [(100.0, 1.0), (200.0, 1.0), (100.0, 4.0)])
def test_kernel_radial_ends_at_support(monkeypatch, lam, x_max):
    # the table ends at its first node past the support plus two t-steps of
    # Q, where k = 0, and the spline through it is exactly 0 beyond
    kern, _, dt = _recorded_kernel(monkeypatch, lam, x_max)
    x = kern.x_grid()
    assert kern.values[-1] == 0.0 and kern.values[-2] != 0.0
    assert x[-2] <= kern.support_radius + 2 * dt < x[-1]
    # the bilinear sums read k up to its reach
    assert x[-1] <= kern.reach
    past = np.linspace(x[-1], x_max + 1.0, 20001)[1:]
    assert np.all(kern.radial(past) == 0.0)


@pytest.mark.parametrize("x_max", [4.0, 8.0, 64.0])
@pytest.mark.parametrize("lam", [100.0, 1600.0])
def test_kernel_independent_of_x_max_past_spot_radius(lam, x_max):
    # past SPOT_RADIUS x_max moves no circle node and no t of Q: the table,
    # its spline and its residual are the x_max = SPOT_RADIUS build's, bit
    # for bit, and x_max sets only how many radial nodes a kernel run prints
    ref = cached_kernel(lam, spherical.SPOT_RADIUS)
    kern = rl.make_kernel(lam, x_max=x_max)
    x = np.linspace(0.0, 0.25, 1001)
    assert kern.x_step == ref.x_step
    assert np.array_equal(kern.values, ref.values)
    assert np.array_equal(kern.radial(x), ref.radial(x))
    assert kern.verify_residual == ref.verify_residual
    n_x, _ = spherical.check_kernel_budget(lam, x_max)
    assert n_x - 1 == round(x_max / kern.x_step)


@pytest.mark.parametrize("x_max", [1e-4, 0.1, 1.0, 3.0, 4.0, 8.0, 64.0, 1000.0])
@pytest.mark.parametrize("lam", [10.0, 99.97, 100.0, 777.7, 1600.0])
def test_kernel_table_independent_of_x_max(lam, x_max):
    # x_max sizes only the radial budget: within it, the table, its spline
    # and its residual are the x_max = 1 build's bit for bit, also where
    # 16 lam x_max is no integer or x_max ends inside the support
    if 16.0 * lam * x_max > spherical.TABLE_BUDGET:
        with pytest.raises(ResourceError, match="radial nodes"):
            rl.make_kernel(lam, x_max=x_max)
        return
    ref = cached_kernel(lam, 1.0)
    kern = rl.make_kernel(lam, x_max=x_max)
    x = np.linspace(0.0, 0.25, 1001)
    assert np.array_equal(kern.values, ref.values)
    assert np.array_equal(kern.radial(x), ref.radial(x))
    assert kern.verify_residual == ref.verify_residual


@pytest.mark.parametrize("lam, bound", [(10.0, 4e-7), (100.0, 1e-8)])
def test_kernel_matches_selberg_transform(lam, bound):
    # the table from the spherical transform of h0^2 against the kernel from
    # g = G0 * G0, the Fourier preimage of h0^2, by the Selberg inversion, at
    # every node; the worst difference, at the first node 1/(16 lam), is the
    # cubic spline error of Q, which no circle-node doubling sees
    kern = cached_kernel(lam)
    oracle = selberg_kernel(lam, kern.x_grid())
    scale = np.abs(kern.values).max()
    assert np.abs(kern.values - oracle).max() <= bound * scale
    assert oracle[-1] == 0.0


@pytest.mark.parametrize("lam", [10.0, 100.0, 1600.0])
def test_kernel_gate_holds_at_every_support_node(monkeypatch, lam):
    # verify_residual compares n against 2n circle nodes at 16 random
    # support nodes; the same comparison at every support node, where the
    # worst lies near x = 0, stays within the 1e-6 gate
    kern, q, _ = _recorded_kernel(monkeypatch, lam, 1.0)
    xs = kern.x_grid()[:-1]
    n = np.maximum(64, (1.3 * (lam + SPECTRAL_TRUNCATION) * xs).astype(np.intp) + 64)
    assert np.array_equal(_circle_mean(xs, n, q), kern.values[:-1])
    scale = np.abs(kern.values).max()
    assert np.abs(_circle_mean(xs, 2 * n, q) - kern.values[:-1]).max() <= 1e-6 * scale


@lru_cache(maxsize=None)
def _built_tables() -> dict:
    """{name: (step, values)} of the tables behind BumpPair's eta and behind
    Q and the radial profile of make_kernel at lam = 100 and 800."""
    calls = []

    def recorded(step, values):
        calls.append((step, np.array(values)))
        return even_table(step, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frequency, "even_table", recorded)
        mp.setattr(spherical, "even_table", recorded)
        rl.BumpPair()
        tables = {"eta": calls[-1]}
        for lam in (100, 800):
            rl.make_kernel(float(lam), x_max=1.0)
            tables[f"Q-{lam}"], tables[f"radial-{lam}"] = calls[-2:]
    return tables


def _smooth_table(n: int) -> tuple[float, np.ndarray]:
    rng = np.random.default_rng(n)
    step = rng.uniform(0.05, 0.5)
    amp, freq, phase = rng.standard_normal(3), rng.uniform(0.0, 2.0, 3), rng.uniform(0.0, 3.0, 3)
    x = step * np.arange(n)[:, None]
    return step, (amp * np.cos(freq * x + phase)).sum(axis=1)


@pytest.mark.parametrize("name", ["eta", "Q-100", "radial-100", "Q-800", "radial-800",
                                  "smooth-4", "smooth-5", "smooth-8", "smooth-45"])
def test_even_table_is_the_not_a_knot_spline(name):
    # the prefilter spline against scipy's CubicSpline through the same knots,
    # at the knots, the midpoints, inside the end intervals and at the last
    # knot (both signs), and exactly 0 past the last knot
    if name.startswith("smooth-"):
        step, values = _smooth_table(int(name.split("-")[1]))
    else:
        step, values = _built_tables()[name]
    knots = step * np.arange(values.size)
    t = np.array([0.1, 0.37, 0.5, 0.9])
    x = np.concatenate([knots, knots[:-1] + 0.5 * step, t * step, knots[-2] + t * step])
    x = np.concatenate([x, -x])
    table, oracle = even_table(step, values), cubic_spline_table(knots, values)
    assert np.abs(table(x) - oracle(x)).max() <= 1e-13 * np.abs(values).max()
    past = np.array([np.nextafter(knots[-1], np.inf), knots[-1] + 0.5 * step, 1e300, np.inf])
    assert np.all(table(past) == 0.0) and np.all(table(-past) == 0.0)


@pytest.mark.parametrize("name", ["eta", "Q-100", "radial-100"])
def test_even_table_gathers_as_the_masked_evaluator(name):
    # the gathered evaluator is the masked one, bit for bit, on and off the
    # knots, at the last knot and just past it, at both zeros, and 0 with no
    # warning at inf, nan and a huge x; radial-100 is kernel.radial itself
    step, values = _built_tables()[name]
    oracle = masked_even_table(step, values)
    table = cached_kernel(100.0).radial if name == "radial-100" else even_table(step, values)
    x_max = step * (values.size - 1)
    knots = step * np.arange(values.size)
    x = np.concatenate([np.linspace(-1.1 * x_max, 1.1 * x_max, 200001), knots, -knots,
                        [x_max, np.nextafter(x_max, np.inf), 0.0, -0.0]])
    assert np.array_equal(table(x), oracle(x))
    far = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(table(far), np.zeros(far.size))
        assert np.array_equal(oracle(far), np.zeros(far.size))
    for point in (0.0, 0.5 * step, x_max, np.inf):
        value = table(np.float64(point))
        assert np.ndim(value) == 0 and np.array_equal(value, oracle(np.float64(point)))
    assert table(np.array([])).shape == (0,)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_even_table_needs_four_values(n):
    with pytest.raises(DomainError):
        even_table(0.1, np.ones(n))


def test_kernel_decay_constant_stability():
    consts = [rl.kernel_decay_constant(cached_kernel(lam))
              for lam in (50.0, 100.0, 200.0)]
    assert max(consts) / min(consts) < 2.0


def test_kernel_h_profile_properties():
    u = np.linspace(-200, 200, 4001)
    h = _h_profile(u)
    assert h.min() >= 0.0
    assert _h_profile(0.0) == 1.0
    assert np.array_equal(h, _h_profile(-u))


@pytest.mark.parametrize("L, M, n", [(256, 40, 100), (256, 40, 200), (256, 40, 256),
                                     (256, 1, 256), (256, 1, 1), (4096, 1500, 900),
                                     (256, 40, 141), (4096, 1500, 1876),
                                     (256, 40, 142), (4096, 1500, 1877),
                                     (256, 40, 152), (4096, 1500, 2594)])
def test_dft_head_matches_fft(L, M, n):
    # n <= L/2, the old mirror range n > L/2 + 1, n = L and a single
    # coefficient; then convolution lengths M + n - 1 that are 5-smooth (180,
    # 3375), one past a 5-smooth number (181, 3376) and prime (191, 4093)
    c = np.random.default_rng(M + n).standard_normal(M)
    assert np.abs(dft_head(c, L, n) - np.fft.fft(c, L)[:n]).max() <= 1e-13 * np.abs(c).sum()


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 97), (40, 40), (97, 97), (40, 180),
                                     (40, 181), (40, 191), (1500, 3375),
                                     (1500, 3376), (1500, 4093)])
def test_convolve_valid_matches_np_convolve(na, nb):
    # a single tap, a.size == b.size, and b.size 5-smooth (180, 3375), one
    # past a 5-smooth number (181, 3376) and prime (97, 191, 4093)
    rng = np.random.default_rng(na + nb)
    a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
    b = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    oracle = np.convolve(a, b, "valid")
    got = convolve_valid(a, b)
    assert got.shape == oracle.shape == (nb - na + 1,)
    assert np.abs(got - oracle).max() <= 1e-13 * np.abs(a).sum() * np.abs(b).max()


def test_smooth_length_is_the_smallest_5_smooth_integer():
    def is_smooth(k: int) -> bool:
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    smooth = [k for k in range(1, 5401) if is_smooth(k)]
    for m in range(1, 5001):
        assert smooth_length(m) == next(k for k in smooth if k >= m)
    assert smooth_length(41601 + 98401 - 1) == 140625 == 3 ** 2 * 5 ** 6


def test_ragged_circle_mean_matches_per_x_calls(monkeypatch):
    # counts from 1 to 2,000 across blocks of at most 700 points, including
    # nodes larger than a block, against one call per x and the per-node
    # paired rule; and against the full rule, which the pairing sums in
    # another order (0.40 ulp measured)
    q = cached_kernel(100.0).radial
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 0.3, 40)
    counts = rng.integers(1, 2000, 40)
    counts[:3] = (1, 700, 701)
    monkeypatch.setattr(spherical, "CIRCLE_BLOCK", 700)
    ragged = _circle_mean(x, counts, q)
    per_x = np.array([_circle_mean(xx, n, q) for xx, n in zip(x, counts)])
    oracle = paired_per_node_circle_mean(x, counts, q)
    scale = np.abs(oracle).max()
    eps = np.finfo(float).eps
    assert np.abs(ragged - per_x).max() <= 4 * eps * scale
    assert np.abs(ragged - oracle).max() <= 4 * eps * scale
    assert np.abs(ragged - per_node_circle_mean(x, counts, q)).max() <= 4 * eps * scale
    assert _circle_mean(np.zeros((2, 3)), 64, q).shape == (2, 3)
    assert _circle_mean(np.array([]), np.array([], dtype=int), q).shape == (0,)


# ulps of max|k| by which the paired kernel may differ from the full rule's:
# twice the 8.3 measured at lam = 400 (1.4 to 2.7 at the other cases); the
# sequential sums' rounding grows with the node count, to 33.5 at lam = 1600
FULL_RULE_ULPS = 16


@pytest.mark.parametrize("lam, x_max", [(10.0, 1.0), (100.0, 1.0), (100.0, 4.0), (400.0, 1.0)])
def test_kernel_matches_per_node_circle_rule(monkeypatch, lam, x_max):
    # the kernel from one blocked ragged call against the same build with
    # one paired circle rule per node, as its support, spot and refined
    # checks were, and with the full rule per node
    kern = rl.make_kernel(lam, x_max=x_max)
    monkeypatch.setattr(spherical, "_circle_mean", paired_per_node_circle_mean)
    oracle = rl.make_kernel(lam, x_max=x_max)
    eps = np.finfo(float).eps
    assert np.abs(kern.values - oracle.values).max() <= 4 * eps * np.abs(oracle.values).max()
    assert kern.verify_residual == pytest.approx(oracle.verify_residual, abs=8 * eps)
    monkeypatch.setattr(spherical, "_circle_mean", per_node_circle_mean)
    full = rl.make_kernel(lam, x_max=x_max)
    bound = FULL_RULE_ULPS * eps * np.abs(full.values).max()
    assert np.abs(kern.values - full.values).max() <= bound
    assert kern.verify_residual == pytest.approx(full.verify_residual, abs=8 * eps)


@pytest.mark.parametrize("x_max", [1.0, 4.0])
@pytest.mark.parametrize("lam", [10.0, 100.0, 400.0, 1600.0])
def test_kernel_matches_finer_spectral_step(monkeypatch, lam, x_max):
    # the s-grid of step 0.04 against the same build at step 0.01: the
    # trapezoid rule's first alias moves from t = 628 to 157, both far past
    # the table, and Q's t-step stays the same bit for bit
    steps = []

    def recorded(step, values):
        steps.append(step)
        return even_table(step, values)

    monkeypatch.setattr(spherical, "even_table", recorded)
    kern = rl.make_kernel(lam, x_max=x_max)
    monkeypatch.setattr(spherical, "SPECTRAL_STEP", 0.01)
    oracle = rl.make_kernel(lam, x_max=x_max)
    assert steps[0] == steps[2]
    assert np.abs(kern.values - oracle.values).max() <= 1e-13 * np.abs(oracle.values).max()
    assert kern.verify_residual == pytest.approx(oracle.verify_residual, abs=1e-12)


@pytest.mark.parametrize("lam, x_max", [(100.0, 1.0), (200.0, 1.0), (100.0, 4.0)])
def test_kernel_matches_padded_rfft_oracle(monkeypatch, lam, x_max):
    # the chirp-z Q and the kernel built from it against the zero-padded rfft
    # that computed Q before
    heads = []

    def recorded(c, L, n):
        heads.append((c, L, n))
        return dft_head(c, L, n)

    monkeypatch.setattr(spherical, "dft_head", recorded)
    kern = rl.make_kernel(lam, x_max=x_max)
    monkeypatch.setattr(spherical, "dft_head", padded_dft_head)
    oracle = rl.make_kernel(lam, x_max=x_max)
    scale = np.abs(oracle.values).max()
    (c, L, n), = heads
    assert np.abs(dft_head(c, L, n).real - padded_dft_head(c, L, n).real).max() <= 1e-12 * scale
    assert np.abs(kern.values - oracle.values).max() <= 1e-12 * scale
    assert kern.verify_residual == pytest.approx(oracle.verify_residual, abs=1e-12)


def test_kernel_memory_independent_of_padded_length():
    # at lam = 800 the padded rfft alone was a 2^24-point transform, 135 MB peak
    tracemalloc.start()
    try:
        rl.make_kernel(800.0, x_max=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        rl.make_kernel(5.0)


def test_kernel_nan_spot_check_fails_the_residual_check(monkeypatch):
    # a NaN circle mean past the support does not drop out of the residual's
    # max: the build fails instead of returning a table
    def nan_past_support(x, n_theta, F):
        return np.where(np.asarray(x) > 0.3, np.nan, _circle_mean(x, n_theta, F))

    monkeypatch.setattr(spherical, "_circle_mean", nan_past_support)
    with pytest.raises(NonConvergenceError, match="residual nan"):
        rl.make_kernel(10.0, x_max=1.0)


def test_spectral_truncation_bound():
    assert _h_profile(SPECTRAL_TRUNCATION) ** 2 < 1e-12


# ---------------------------------------------------------------- asymptotics

def test_demodulate_zero_function():
    x = 0.5 + 0.01 * np.arange(12)
    fp, fm, resid, flagged = demodulate_window(x, np.zeros(12), 40.0)
    assert fp == 0 and fm == 0 and resid == 0.0


def test_demodulate_recovers_pure_wave():
    s = 60.0
    x = 0.5 + (0.4 / s) * np.arange(12)
    vals = 0.37 * np.exp(1j * s * x) - 0.11 * np.exp(-1j * s * x)
    fp, fm, resid, flagged = demodulate_window(x, vals, s)
    assert fp == pytest.approx(0.37, abs=1e-10)
    assert fm == pytest.approx(-0.11, abs=1e-10)
    assert not flagged


def test_asymptotic_amplitudes_stable_and_residual_small():
    sups = []
    for s in (50.0, 200.0):
        rep = asymptotic_check(s, x_range=(0.5, 2.0))
        assert not rep["flagged"].any()
        # residual after removing both oscillatory terms
        assert np.all(rep["residual"] <= 10.0 * (s * rep["x"]) ** -2.0)
        sups.append(rep["sup_scaled_plus"])
    assert max(sups) / min(sups) <= 2.0
