"""The spectral core against independent oracles.

Analysis (one real FFT) is checked against the trapezoid sums written out
directly with exactly rounded summation, and both synthesis evaluators
(the blocked power series at scattered points, and the folded inverse FFT
on full-period grids) against an mpmath sum at the same floating-point
angles, within the error bounds stated in the quadrature module. A
series' circle samples, one inverse FFT, are checked against mpmath at
the exact circle nodes.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from inner_fourier import (
    ClosedForm,
    PeriodicFunction,
    PolarPoint,
    TaylorCoefficients,
    TaylorSeries,
    contour_partial_sum,
    delta_inner,
    fourier_coefficients,
)
from inner_fourier.quadrature import (
    TWO_PI,
    _aliasing_scale,
    _aliasing_top,
    check_aliasing,
    circle_coefficients,
    circle_dft,
    circle_samples,
    circle_series,
    disk_points,
    grid_power_series,
    phase_powers,
    power_series,
    theta_grid,
    unit_phasors,
)

EPS = np.finfo(float).eps


def direct_trapezoid(f: np.ndarray, K: int) -> tuple[float, np.ndarray, np.ndarray]:
    """alpha_0, alpha_k, beta_k as (2/M) * fsum of f * cos/sin(k*theta_j), k = 1..K.

    k*theta_j = -k*pi + 2*pi*((k*j) mod M)/M, so each node phase is formed
    from an exact integer residue rather than a rounded product.
    """
    m = f.size
    j = np.arange(m)
    alpha = np.empty(K + 1)
    beta = np.empty(K + 1)
    for k in range(K + 1):
        phase = 2.0 * math.pi * ((k * j) % m) / m
        sign = -1.0 if k % 2 else 1.0
        alpha[k] = sign * (2.0 / m) * math.fsum(f * np.cos(phase))
        beta[k] = sign * (2.0 / m) * math.fsum(f * np.sin(phase))
    return alpha[0], alpha[1:], beta[1:]


@given(
    m=st.integers(4, 512),
    data=st.data(),
)
def test_analysis_matches_direct_trapezoid_sums(m, data):
    K = data.draw(st.integers(1, m // 2 - 1), label="K")
    f = np.array(
        data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m), label="samples")
    )
    fc = fourier_coefficients(PeriodicFunction("samples", samples=f), K)
    alpha0, alpha, beta = direct_trapezoid(f, K)
    tol = 4.0 * EPS * math.log2(m) * float(np.max(np.abs(f)))
    assert abs(fc.alpha0 - alpha0) <= tol
    assert np.max(np.abs(fc.alpha - alpha)) <= tol
    assert np.max(np.abs(fc.beta - beta)) <= tol


def _complex_lists(n_min, n_max):
    part = st.floats(-1e3, 1e3)
    return st.lists(st.builds(complex, part, part), min_size=n_min, max_size=n_max)


@given(
    c=_complex_lists(1, 65),
    thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4),
    rho=st.floats(0.0, 1.0),
)
def test_synthesis_matches_mpmath_within_stated_bound(c, thetas, rho):
    z = disk_points(np.array(thetas), rho)
    values = power_series(np.array(c), z)
    assert values.shape == z.shape
    K = len(c) - 1
    mpmath.mp.dps = 60
    for zi, vi in zip(z, values):
        exact = mpmath.fsum(
            mpmath.mpc(ck.real, ck.imag) * mpmath.mpc(zi.real, zi.imag) ** k
            for k, ck in enumerate(c)
        )
        bound = 2 * (K + 1) * EPS * math.fsum(abs(ck) * abs(zi) ** k for k, ck in enumerate(c))
        assert abs(complex(exact) - vi) <= bound


@given(
    c=_complex_lists(2, 40),
    rho=st.floats(0.7, 1.0),  # 0.7**-39 keeps the amplification below 1/sqrt(eps)
    m=st.sampled_from([64, 96, 128, 256]),
)
def test_circle_transform_matches_direct_cauchy_sums(c, rho, m):
    # (1/m) * sum_j w(z_j) * exp(-i*k*theta_j) / rho**k, summed exactly for each k
    w = TaylorSeries(TaylorCoefficients(np.array(c)))
    K = len(c) - 1
    got = circle_coefficients(w, K, rho, m)
    vals = w(rho * phase_powers(m, 1))
    for k in range(K + 1):
        terms = vals * phase_powers(m, -k)
        want = complex(math.fsum(terms.real), math.fsum(terms.imag)) / (m * rho**k)
        bound = 4.0 * EPS * math.log2(m) * float(np.max(np.abs(vals))) * rho**-k
        assert abs(got[k] - want) <= bound


@given(c=_complex_lists(2, 65), rho=st.floats(0.0, 1.3, exclude_min=True), extra=st.integers(0, 128))
@example(c=[1.0 - 2j] * 65, rho=1.3, extra=0)  # m = K + 1, the fewest nodes
@example(c=[0.5j, -1.0, 2.0 + 1j], rho=0.9, extra=1)  # m = 4, odd powers against the node sign
def test_series_circle_matches_mpmath_at_the_exact_nodes(c, rho, extra):
    w = TaylorSeries(TaylorCoefficients(np.array(c)))
    K = len(c) - 1
    m = K + 1 + extra
    values = w.circle(rho, m)
    assert np.array_equal(circle_samples(w, rho, m), values)
    bound = math.log2(m) * EPS * math.fsum(abs(ck) * rho**k for k, ck in enumerate(c))
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(ck.real, ck.imag) for ck in reversed(c)]
        r = mpmath.mpf(rho)
        for j, v in enumerate(values):
            exact = mpmath.polyval(coeffs, -r * mpmath.expjpi(mpmath.mpf(2 * j) / m))
            assert abs(complex(exact) - v) <= bound


@pytest.mark.parametrize("rho, m", [(0.3, 66), (0.9, 256), (1.0, 4096)])
@pytest.mark.parametrize("size", [2, 17, 66], ids=["K1", "K16", "K65"])
def test_series_circle_is_one_zero_padded_inverse_fft_bit_for_bit(size, rho, m):
    # the reference: c_k * rho**k with odd k negated, zero-padded to m, one inverse FFT
    rng = np.random.default_rng(size)
    c = rng.standard_normal(min(size, m - 1)) + 1j * rng.standard_normal(min(size, m - 1))
    terms = np.zeros(m, dtype=complex)
    terms[: c.size] = c * rho ** np.arange(float(c.size))
    terms[1 : c.size : 2] *= -1.0
    want = np.fft.ifft(terms, norm="forward")
    assert TaylorSeries(TaylorCoefficients(c)).circle(rho, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "w",
    [
        TaylorSeries(TaylorCoefficients(np.array([1.0, 2.0, 3.0], dtype=complex))),
        delta_inner(0.7),
        ClosedForm(lambda z: 1.0 / (1.0 - z), pole_set=(1.0,)),
    ],
    ids=["series", "point-mass", "geometric"],
)
def test_circle_radius_that_is_not_finite_is_refused(w, rho):
    with pytest.raises(ValueError) as exc:
        circle_samples(w, rho, 16)
    assert str(exc.value) == f"circle radius must be finite, got {rho}"
    with pytest.raises(ValueError) as exc:
        circle_coefficients(w, 3, rho, 16)
    assert str(exc.value) == f"circle radius must be finite, got {rho}"


@pytest.mark.parametrize(
    "w, pole",
    [
        (delta_inner(0.7), complex(math.cos(0.7), math.sin(0.7))),
        (ClosedForm(lambda z: 1.0 / (1.0 - z), pole_set=(1.0,)), 1 + 0j),
    ],
    ids=["point-mass", "geometric"],
)
def test_circle_that_encloses_a_declared_pole_is_refused(w, pole):
    # the sums would hold the residue: the point mass's c_0 read -1/(2*pi) at radius 1.5, not +1/(2*pi)
    for call in (lambda: circle_samples(w, 1.5, 64), lambda: circle_coefficients(w, 3, 1.5, 64)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"the circle of radius 1.5 encloses the pole at {pole!r}"


def test_series_without_poles_takes_a_circle_past_the_unit_circle():
    c = np.arange(1.0, 5.0) + 0j
    w = TaylorSeries(TaylorCoefficients(c))
    got = circle_coefficients(w, 3, 1.5, 64)
    # the contract: eps * max|w_j| * rho**-k
    bound = EPS * np.max(np.abs(circle_samples(w, 1.5, 64))) * 1.5 ** -np.arange(4.0)
    assert np.all(np.abs(got - c) <= bound)


@pytest.mark.parametrize("K, m", [(5, 5), (8, 4)])
def test_series_circle_with_degree_at_least_m_is_refused(K, m):
    w = TaylorSeries(TaylorCoefficients(np.ones(K + 1, dtype=complex)))
    with pytest.raises(ValueError) as exc:
        w.circle(0.5, m)
    assert str(exc.value) == f"polynomial of degree {K} aliases on {m} nodes; need M >= {K + 1}"


@pytest.mark.parametrize(
    "w",
    [
        ClosedForm(lambda z: 1.0 / (1.0 - z), pole_set=(1.0,)),
        ClosedForm(lambda z: np.exp(z) * z**3),
    ],
    ids=["geometric", "entire"],
)
@pytest.mark.parametrize("rho, m", [(0.5, 64), (0.9, 4096), (0.3, 99)])
def test_closed_form_circle_samples_are_the_z_formula_bit_for_bit(w, rho, m):
    assert circle_samples(w, rho, m).tobytes() == np.asarray(w(-rho * unit_phasors(m)), dtype=complex).tobytes()


@pytest.mark.parametrize("rho, m", [(0.3, 64), (0.99, 4096)])
def test_point_mass_circle_samples_are_its_herglotz_form(rho, m):
    w = delta_inner(0.7)
    got = circle_samples(w, rho, m)
    assert got.tobytes() == w.polar(theta_grid(m), rho).tobytes()
    assert np.max(np.abs(got - w(-rho * unit_phasors(m)))) <= 1e-13 * np.max(np.abs(got))


def test_pole_of_higher_order_aliasing_refused_naming_needed_m():
    # the simple pole's rule, 0.991**4096 = 8.9e-17, accepts this circle, and c_0..c_40 come out 2e3x off
    w = delta_inner(0.7, 5)
    with pytest.raises(ValueError) as exc:
        circle_coefficients(w, 40, 0.991, 4096)
    assert str(exc.value) == (
        "aliasing scale 0.991**M * max(1, (M*(1 - ratio))**5/5!) = 4.69e-11 exceeds eps at M=4096; need M >= 5628"
    )
    with pytest.raises(ValueError, match="need M >= 5628$"):
        circle_coefficients(w, 40, 0.991, 5627)
    circle_coefficients(w, 40, 0.991, 5628)
    circle_coefficients(delta_inner(0.7), 40, 0.991, 4096)


@pytest.mark.parametrize("M", [256, 1024, 4096])
@pytest.mark.parametrize("order", range(6))
def test_every_circle_the_rule_accepts_keeps_the_cauchy_contract(order, M):
    # c_0..c_K of the order-m point mass within eps * max|w_j| * rho**-k on every circle both rules accept
    w, K = delta_inner(0.7, order), 40
    want = w.taylor(K).c
    accepted = 0
    for rho in np.linspace(0.6, 1.0, 200, endpoint=False).tolist():
        try:
            got = circle_coefficients(w, K, rho, M)
        except ValueError:
            continue
        accepted += 1
        scale = EPS * np.max(np.abs(circle_samples(w, rho, M))) * rho ** -np.arange(K + 1.0)
        assert np.max(np.abs(got - want) / scale) <= 1.0
    assert accepted >= 50


# three circles that the M = 64 rules accept and the Cauchy contract misses, by 4.05x, 2.82x and 1.32x
@pytest.mark.xfail(reason="at M = 64 the circle rule accepts radii whose error exceeds the Cauchy contract")
@pytest.mark.parametrize("order, rho", [(5, 0.4645), (4, 0.4802), (2, 0.517)])
def test_the_cauchy_contract_at_64_nodes(order, rho):
    w, K, M = delta_inner(0.7, order), 20, 64
    got = circle_coefficients(w, K, rho, M)
    scale = EPS * np.max(np.abs(circle_samples(w, rho, M))) * rho ** -np.arange(K + 1.0)
    assert np.max(np.abs(got - w.taylor(K).c) / scale) <= 1.0


def test_amplification_window_passes_the_aliasing_rule_of_a_higher_order_pole():
    # the simple pole's window would end at eps**(1/4096) = 0.99124, which the order-6 pole aliases
    w, K = delta_inner(0.7, 5), 64
    with pytest.raises(ValueError) as exc:
        circle_coefficients(w, K, 0.5, 4096)
    assert str(exc.value).endswith("; use a radius in [0.754583, 0.987656]")
    for rho in (0.754583, 0.987656):
        got = circle_coefficients(w, K, rho, 4096)
        scale = EPS * np.max(np.abs(circle_samples(w, rho, 4096))) * rho ** -np.arange(K + 1.0)
        assert np.max(np.abs(got - w.taylor(K).c) / scale) <= 1.0
    with pytest.raises(ValueError, match="aliasing scale"):
        circle_coefficients(w, K, 0.987657, 4096)


@pytest.mark.parametrize("m", [64, 256, 4096])
@pytest.mark.parametrize("pole_order", range(1, 7))
def test_aliasing_top_is_the_last_ratio_that_passes(pole_order, m):
    top = _aliasing_top(m, pole_order)
    assert _aliasing_scale(top, m, pole_order) <= EPS < _aliasing_scale(math.nextafter(top, 1.0), m, pole_order)


@pytest.mark.parametrize("pole_order", [1, 3])
def test_no_nodes_refused_by_the_aliasing_rule(pole_order):
    # M = 0 refused with the rule's message, as M*(1 - ratio) <= 1 leaves only ratio**M = 1
    with pytest.raises(ValueError, match=r"^aliasing scale 0.5\*\*M.* = 1 exceeds eps at M=0; need M >= \d+$"):
        check_aliasing(0.5, 0, pole_order)


def _horner(c, z):
    """The reference loop: Horner's rule, one numpy step per coefficient."""
    c = np.asarray(c, dtype=complex)
    out = np.full(np.shape(z), c[-1])
    for ck in c[-2::-1]:
        out *= z
        out += ck
    return out


def _random_coefficients(K: int) -> np.ndarray:
    rng = np.random.default_rng(K)
    return rng.uniform(-1.0, 1.0, K + 1) + 1j * rng.uniform(-1.0, 1.0, K + 1)


@pytest.mark.parametrize("K", [255, 1024, 4096])
@pytest.mark.parametrize("points", ["ray", "circle"])
def test_long_series_match_mpmath_within_stated_bound(K, points):
    # the 14 schedule radii 1 - 2**-j of rho_limit along one ray, or 260
    # circle nodes evaluated in one call, of which every ((K+1) // 256)-th is
    # checked: the mpmath sum costs about 35 ms per node at K = 4096
    c = _random_coefficients(K)
    if points == "ray":
        z, step = disk_points(0.7, 1.0 - 2.0 ** -np.arange(1, 15)), 1
    else:
        z, step = disk_points(theta_grid(260), 0.95), (K + 1) // 256
    values = power_series(c, z)
    abs_c, k = np.abs(c), np.arange(K + 1)
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(ck.real, ck.imag) for ck in reversed(c.tolist())]
        for zi, vi in zip(z[::step].tolist(), values[::step].tolist()):
            exact = mpmath.polyval(coeffs, mpmath.mpc(zi.real, zi.imag))
            bound = 2 * (K + 1) * EPS * math.fsum((abs_c * abs(zi) ** k).tolist())
            assert abs(complex(exact) - vi) <= bound


@pytest.mark.parametrize(
    "K, P",
    [(0, 1), (14, 0), (14, 260), (24, 4096), (4096, 129)],
    ids=["one_term", "scalar", "under_four_blocks", "contour_nodes", "table_over_cap"],
)
def test_few_terms_or_many_points_are_horner_bit_for_bit(K, P):
    rng = np.random.default_rng(P)
    c = _random_coefficients(K)
    if P == 0:
        z = complex(0.6, -0.7)
    else:
        z = rng.uniform(0.5, 1.0, P) * np.exp(1j * rng.uniform(-math.pi, math.pi, P))
    assert power_series(c, z).tobytes() == _horner(c, z).tobytes()


def test_unused_powers_of_a_large_point_do_not_overflow():
    assert power_series(np.r_[1.0, 2.0, np.zeros(400)], 10.0) == 21.0


@pytest.mark.parametrize(
    "c, z",
    [
        (np.r_[1.0, np.zeros(15)], 1e100),  # zero top blocks times an overflowed z**4
        (np.r_[1.0, np.zeros(3), 5e-324, np.zeros(11)], 1e78),  # a subnormal term times an overflowed z**4
        (np.r_[2.0, np.zeros(4095)], 1e5),  # K = 4096: z**64 overflows
    ],
    ids=["zero_top_blocks", "subnormal_term", "long_zero_tail"],
)
def test_an_overflowed_block_power_falls_back_to_horner(c, z):
    # Horner's rule is finite here, so the blocked evaluator must be too
    points = np.array([0.5, z, -z, 1j * z])
    got = power_series(c, points)
    assert np.all(np.isfinite(got))
    assert got[1:].tobytes() == _horner(c, points[1:]).tobytes()
    # the point whose z**b is finite keeps the blocked value
    assert got[0] == power_series(c, points[:1])[0]
    # each point alone takes Horner's rule in Python scalars, bit for bit
    for p in (z, -z, 1j * z):
        alone = power_series(c, p)
        assert alone.shape == () and np.isfinite(alone)
        assert alone.tobytes() == _horner(c, p).tobytes()


def _series_bound(c: np.ndarray, z: complex) -> float:
    """The stated bound 2(K+1) * eps * sum |c_k| |z|**k."""
    return 2 * c.size * EPS * math.fsum((np.abs(c) * abs(z) ** np.arange(c.size)).tolist())


@pytest.mark.parametrize("K", [15, 63, 1023, 4095])
@pytest.mark.parametrize("radius", [0.3, 0.97, 1.003, 1.02])  # a contour partial sum's zeta lies outside
def test_one_point_matches_mpmath_within_stated_bound(K, radius):
    c = _random_coefficients(K)
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(ck.real, ck.imag) for ck in reversed(c.tolist())]
        for theta in (-2.5, 0.4, math.pi):
            z = radius * complex(math.cos(theta), math.sin(theta))
            got = power_series(c, z)
            assert got.shape == ()
            exact = mpmath.polyval(coeffs, mpmath.mpc(z.real, z.imag))
            assert abs(complex(exact) - complex(got)) <= _series_bound(c, z)


@pytest.mark.parametrize("K", [14, 63, 4095])
def test_one_point_is_the_same_for_a_python_scalar_and_a_0d_array(K):
    c = _random_coefficients(K)
    z = complex(0.62, -0.71)
    for point in (np.array(z), np.complex128(z)):
        assert power_series(c, point).shape == power_series(c, z).shape == ()
        assert power_series(c, point).tobytes() == power_series(c, z).tobytes()


@pytest.mark.parametrize("K", [24, 255, 4095])
@pytest.mark.parametrize("x", [0.81, -0.999, 1.01])
def test_a_real_point_keeps_the_value_of_a_one_point_array(K, x):
    # rho0**2 in hilbert.inner_product_series: at a real point the Python
    # products round as numpy's do, so one point gives the value of a
    # single-point array, bit for bit
    c = _random_coefficients(K)
    assert power_series(c, x).tobytes() == power_series(c, np.array([x])).tobytes()


@pytest.mark.parametrize("K", [24, 255, 4095])
def test_a_lone_point_agrees_with_the_same_point_in_an_array(K):
    # Not bit for bit at a complex point: Python's complex product is the
    # plain four-multiply formula, while numpy's vector loop over a table
    # row may fuse a multiply and an add, so the two round z**j differently.
    # Both values are within the stated bound of the true sum.
    c = _random_coefficients(K)
    z = disk_points(theta_grid(12), 0.93)
    values = power_series(c, z)
    for zi, vi in zip(z.tolist(), values.tolist()):
        assert abs(complex(power_series(c, zi)) - vi) <= _series_bound(c, zi)


@pytest.mark.parametrize("P", [128, 3584])
def test_evaluation_memory_stays_far_below_a_k_by_p_table(P):
    # a K x P power table at K = 4096 and 3,584 points would take 235 MB
    c = _random_coefficients(4096)
    z = disk_points(np.linspace(0.0, 1.0, P), 0.9)
    tracemalloc.start()
    try:
        power_series(c, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("m", [7, 260, 4096])
def test_unit_phasors_are_shared_and_read_only(m):
    table = unit_phasors(m)
    assert unit_phasors(m) is table
    with pytest.raises(ValueError):
        table[0] = 2.0
    if m % 4 == 0:
        assert np.array_equal(table[m // 2 :], -table[: m // 2])


def test_synthesis_shapes_follow_the_theta_by_rho_grid():
    c = np.array([1.0, 2.0, 3.0])
    assert power_series(c, disk_points(0.3, 0.5)).shape == ()
    assert power_series(c, disk_points(np.zeros(5), [0.1, 0.2])).shape == (5, 2)
    assert power_series(c, disk_points(0.0, 0.5)) == 1.0 + 2.0 * 0.5 + 3.0 * 0.25
    grid = np.linspace(-math.pi, math.pi, 5, endpoint=False)
    assert grid_power_series(c, grid, 0.5).shape == (5,)
    assert grid_power_series(c, grid, [0.1, 0.2]).shape == (5, 2)


@pytest.mark.parametrize("K, m", [(5, 11), (-1, 64)])
def test_circle_transform_needs_2k_plus_2_nodes(K, m):
    w = TaylorSeries(TaylorCoefficients(np.array([1.0, 2.0], dtype=complex)))
    with pytest.raises(ValueError, match="M >= 2K \\+ 2"):
        circle_coefficients(w, K, 0.5, m)


@given(
    c=_complex_lists(1, 65),
    n=st.integers(1, 96),
    theta0=st.floats(-20.0, 20.0),
    radii=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
@example(c=[1 + 2j, 3 - 1j, 0.5j, -2.0], n=8, theta0=-math.pi, radii=[0.0])  # rho = 0
@example(c=[1.0 + 1j] * 41, n=7, theta0=12.5, radii=[0.5, 0.99, 1.0])  # n <= K, theta0 past pi
@example(c=[0.25 - 1j, 2.0, -1j], n=64, theta0=-9.0, radii=[0.3])  # n > K + 1
@example(c=[1.0 - 0.5j] * 65, n=96, theta0=-19.7, radii=[1.0])  # angles ulps off the exact grid, k up to 64
def test_grid_synthesis_matches_mpmath_within_stated_bound(c, n, theta0, radii):
    theta = theta0 + (TWO_PI / n) * np.arange(n)
    values = grid_power_series(np.array(c), theta, np.array(radii))
    assert values.shape == (n, len(radii))
    K = len(c) - 1
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(ck.real, ck.imag) for ck in reversed(c)]
        for r, rho in enumerate(radii):
            scale = math.fsum(abs(ck) * rho**k for k, ck in enumerate(c))
            bound = (2.0 * K / n + 2.0 * math.log2(n) + 4.0) * EPS * scale
            for t, v in zip(theta.tolist(), values[:, r]):
                exact = mpmath.polyval(coeffs, mpmath.mpf(rho) * mpmath.expj(mpmath.mpf(t)))
                assert abs(complex(exact) - v) <= bound


@pytest.mark.parametrize(
    "theta",
    [
        np.linspace(-math.pi, math.pi, 16, endpoint=False)[:-1],  # one node short of the period
        np.linspace(0.0, 1.0, 8),
        np.linspace(-math.pi, math.pi, 16, endpoint=False) + 1e-12 * np.arange(16),
        np.linspace(-math.pi, math.pi, 16, endpoint=False).reshape(4, 4),
        np.r_[np.linspace(-math.pi, math.pi, 7, endpoint=False), math.nan],
        np.array(0.3),
    ],
    ids=["short", "partial_arc", "perturbed", "two_dimensional", "nan", "scalar"],
)
def test_grid_synthesis_declines_other_angles(theta):
    assert grid_power_series(np.array([1.0, 2.0, 3.0]), theta, 0.5) is None



def _random_series(K: int) -> TaylorSeries:
    rng = np.random.default_rng(K)
    return TaylorSeries(TaylorCoefficients(rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)))


_GEOMETRIC = ClosedForm(
    lambda z: 1.0 / (1.0 - z), pole_set=(1.0,), taylor_fn=lambda K: TaylorCoefficients(np.ones(K + 1, dtype=complex))
)


@pytest.mark.parametrize("w", [delta_inner(0.4), _GEOMETRIC, _random_series(60)], ids=["delta", "geometric", "series"])
@pytest.mark.parametrize("rho, m, N", [(0.8, 256, 40), (0.6, 128, 30), (0.95, 1024, 30)])
def test_circle_transforms_are_one_pair_under_every_contour_routine(w, rho, m, N):
    # the Cauchy coefficients are the circle DFT over m * rho**k, bit for bit
    k, powers = np.arange(N), rho ** np.arange(N + 0.0)
    dft = circle_dft(circle_samples(w, rho, m))
    got = circle_coefficients(w, N - 1, rho, m)
    assert got.tobytes() == (dft[:N] / (m * powers)).tobytes()
    # the DFT gives back the c_k * rho**k that circle_series summed, within the errors both state
    scaled = np.zeros(m, dtype=complex)
    scaled[:N] = w.taylor(N - 1).c * powers
    values = circle_series(w.taylor(N - 1).c, rho, m)
    series_err = math.log2(m) * EPS * math.fsum(np.abs(scaled))
    dft_err = 6.0 * math.log2(m) * EPS * float(np.max(np.abs(values)))
    assert np.max(np.abs(circle_dft(values) / m - scaled)) <= series_err + dft_err
    # a contour sum is the direct sum of the trapezoid Cauchy coefficients: the power_series
    # of c~_k * rho**k at z/rho against that of c~_k at z, within both power_series bounds
    for z in (PolarPoint(0.5 * rho, 1.3), PolarPoint(min(1.0, 1.2 * rho), -2.0)):
        contour = contour_partial_sum(w, z, N, rho, m).contour
        direct = complex(power_series(got, z.z))
        contour_terms = np.abs(dft[:N] / m) * (z.rho / rho) ** k
        direct_terms = np.abs(got) * z.rho**k
        assert abs(contour - direct) <= 2 * N * EPS * (math.fsum(contour_terms) + math.fsum(direct_terms))
