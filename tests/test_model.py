import math

import numpy as np
import numpy.testing as npt
import pytest

from quatkin.diagnostics import frobenius_norm
from quatkin.errors import ProfileDomainError
from quatkin.model import (
    _LEFT_TAKE,
    I4,
    LEFT_I,
    LEFT_J,
    LEFT_K,
    SYMPLECTIC_J4,
    AngularVelocityProfile,
    ConingProfile,
    ConstantProfile,
    MidpointSamplingMode,
    TabulatedProfile,
    analytic_constant_transition,
    coefficient_matrix,
    coning_analytic_state,
    constant_oracle,
    midpoint_omega,
    _product_matrix,
    right_matrix,
    stage_rates,
)
from quatkin.scenario import profile_from_name
from reference_impl import constant_transition_series, hamilton_product

W0 = 2.0 * math.pi
BETA = math.pi / 80.0


# --- coefficient matrix -------------------------------------------------------

def test_coefficient_matrix_zero():
    npt.assert_array_equal(coefficient_matrix([0.0, 0.0, 0.0]), np.zeros((4, 4)))


def test_coefficient_matrix_rows():
    a = coefficient_matrix([2.0, 10.0, 3.0])
    npt.assert_array_equal(a[0], [0.0, -2.0, -10.0, -3.0])
    npt.assert_array_equal(a[1], [2.0, 0.0, 3.0, -10.0])
    npt.assert_array_equal(a[2], [10.0, -3.0, 0.0, 2.0])
    npt.assert_array_equal(a[3], [3.0, 10.0, -2.0, 0.0])


def test_coefficient_matrix_unit_axis_squares_to_minus_identity():
    a = coefficient_matrix([1.0, 0.0, 0.0])
    npt.assert_allclose(a @ a, -I4, atol=1e-15)


def test_coefficient_matrix_skew_and_square_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.normal(0.0, 5.0, 3)
        a = coefficient_matrix(w)
        npt.assert_array_equal(a.T, -a)
        n2 = float(w @ w)
        assert frobenius_norm(a @ a + n2 * I4) <= 1e-12 * (1.0 + n2)


def test_coefficient_matrix_broadcasts():
    ws = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    batch = coefficient_matrix(ws)
    assert batch.shape == (2, 4, 4)
    npt.assert_array_equal(batch[0], coefficient_matrix(ws[0]))
    npt.assert_array_equal(batch[1], coefficient_matrix(ws[1]))


def test_coefficient_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        coefficient_matrix([np.nan, 0.0, 0.0])


def test_right_matrix_is_the_hamilton_right_product():
    # q (x) p written out component by component.
    rng = np.random.default_rng(5)
    for _ in range(100):
        q, p = rng.normal(size=(2, 4))
        q, p = q / np.linalg.norm(q), p / np.linalg.norm(p)
        (q0, q1, q2, q3), (p0, p1, p2, p3) = q, p
        product = [
            q0 * p0 - q1 * p1 - q2 * p2 - q3 * p3,
            q0 * p1 + q1 * p0 + q2 * p3 - q3 * p2,
            q0 * p2 - q1 * p3 + q2 * p0 + q3 * p1,
            q0 * p3 + q1 * p2 - q2 * p1 + q3 * p0,
        ]
        npt.assert_allclose(right_matrix(p) @ q, product, rtol=0.0, atol=1e-15)


def test_coefficient_matrix_is_right_matrix_of_pure_quaternion():
    ws = np.random.default_rng(6).normal(size=(50, 3))
    ws[::3, 1] = 0.0
    pure = np.concatenate([np.zeros((50, 1)), ws], axis=1)
    assert coefficient_matrix(ws).tobytes() == right_matrix(pure).tobytes()


def left_matrix(p):
    return _product_matrix(p, _LEFT_TAKE)


def test_structure_matrices_are_the_product_tables_at_unit_quaternions():
    npt.assert_array_equal(SYMPLECTIC_J4, right_matrix([0.0, 0.0, -1.0, 0.0]))
    npt.assert_array_equal(LEFT_I, left_matrix([0.0, 1.0, 0.0, 0.0]))
    npt.assert_array_equal(LEFT_J, left_matrix([0.0, 0.0, 1.0, 0.0]))
    npt.assert_array_equal(LEFT_K, left_matrix([0.0, 0.0, 0.0, 1.0]))
    npt.assert_array_equal(I4, right_matrix([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "s", [I4, SYMPLECTIC_J4, LEFT_I, LEFT_J, LEFT_K], ids=["I4", "J4", "LEFT_I", "LEFT_J", "LEFT_K"]
)
def test_structure_matrices_are_read_only_without_negative_zero(s):
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    assert not np.signbit(s[s == 0.0]).any()


def test_left_table_is_the_hamilton_left_product():
    rng = np.random.default_rng(7)
    p, q = rng.normal(size=(5, 1, 4)), rng.normal(size=(3, 4))
    got = (left_matrix(p) @ q[..., None])[..., 0]
    assert got.shape == (5, 3, 4)
    npt.assert_allclose(got, hamilton_product(p, q), rtol=0.0, atol=1e-14)


def test_left_and_right_products_commute():
    # (a (x) q) (x) b = a (x) (q (x) b): associativity of the product.
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 50, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    la, rb = left_matrix(a), right_matrix(b)
    npt.assert_allclose(la @ rb, rb @ la, rtol=0.0, atol=1e-15)


# --- profiles -----------------------------------------------------------------

def test_coning_profile_at_zero():
    w = ConingProfile(W0, BETA).omega_at(0.0)
    npt.assert_allclose(
        w,
        [-W0 * (1.0 - math.cos(BETA)), 0.0, W0 * math.sin(BETA)],
        rtol=1e-15,
        atol=1e-18,
    )


def test_fig1b_profile_at_zero():
    npt.assert_allclose(profile_from_name("fig1b").omega_at(0.0), [2.0, 0.0, 0.0])


def test_fig1d_profile_at_zero():
    npt.assert_allclose(profile_from_name("fig1d").omega_at(0.0), [-2.0, 1.4, 3.8])


def test_fig1c_profile_formula():
    p = profile_from_name("fig1c")
    t = 1.7
    expected = [
        2.0 * (1.0 + math.sin(t) * math.exp(-t / 4.0)),
        (-3.0 + t * t) * math.exp(-t / 3.0),
        (1.0 + t) * math.exp(-t),
    ]
    npt.assert_allclose(p.omega_at(t), expected, rtol=1e-15)


def test_constant_profile_broadcast():
    p = ConstantProfile((2.0, 10.0, 3.0))
    out = p.omega_at(np.linspace(0.0, 1.0, 7))
    assert out.shape == (7, 3)
    npt.assert_array_equal(out[3], [2.0, 10.0, 3.0])


@pytest.mark.parametrize("vector", [(2.0, 10.0), (2.0, math.nan, 3.0)], ids=["two", "nan"])
def test_constant_profile_needs_three_finite_components(vector):
    with pytest.raises(ValueError, match="^constant profile needs three finite components$"):
        ConstantProfile(vector)


@pytest.mark.parametrize(
    "times, values",
    [(np.arange(3.0), np.zeros((3, 2))), (np.arange(3.0)[:, None], np.zeros((3, 3)))],
    ids=["values-n-2", "times-n-1"],
)
def test_tabulated_profile_checks_its_shapes(times, values):
    reason = r"^need times of shape \(n,\) and values of shape \(n, 3\)$"
    with pytest.raises(ValueError, match=reason):
        TabulatedProfile(times, values)


def test_tabulated_profile_interpolates_and_checks_range():
    p = TabulatedProfile(np.array([0.0, 1.0, 2.0]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [4.0, 0.0, 0.0]]))
    npt.assert_allclose(p.omega_at(0.5), [0.5, 0.0, 0.0])
    npt.assert_allclose(p.omega_at(1.5), [2.5, 0.0, 0.0])
    with pytest.raises(ProfileDomainError):
        p.omega_at(2.5)
    with pytest.raises(ProfileDomainError):
        p.omega_at(-0.1)


def test_tabulated_profile_requires_increasing_times():
    with pytest.raises(ValueError):
        TabulatedProfile(np.array([0.0, 0.0]), np.zeros((2, 3)))


def test_coning_profile_rejects_zero_rate():
    with pytest.raises(ValueError):
        ConingProfile(0.0, BETA)


# --- rate sampling --------------------------------------------------------------

@pytest.mark.parametrize("mode", list(MidpointSamplingMode))
def test_midpoint_constant_profile_any_mode(mode):
    p = ConstantProfile((2.0, 10.0, 3.0))
    npt.assert_array_equal(midpoint_omega(p, 0.3, 0.1, mode), [2.0, 10.0, 3.0])


@pytest.mark.parametrize("mode", list(MidpointSamplingMode))
def test_midpoint_linear_ramp_both_modes_exact(mode):
    # omega1(t) = t: the chord midpoint equals the exact midpoint sample.
    p = TabulatedProfile(np.array([0.0, 1.0]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    npt.assert_allclose(midpoint_omega(p, 0.0, 0.1, mode), [0.05, 0.0, 0.0], rtol=1e-15)


def test_midpoint_interp_is_endpoint_average():
    p = profile_from_name("fig2")
    t_k, tau = 0.4, 0.2
    expected = 0.5 * (p.omega_at(t_k) + p.omega_at(t_k + tau))
    npt.assert_array_equal(
        midpoint_omega(p, t_k, tau, MidpointSamplingMode.LINEAR_INTERP), expected
    )


def test_stage_rates_sample_each_time_once_and_form_the_chord():
    fig2, drawn = profile_from_name("fig2"), []

    class Recording(AngularVelocityProfile):
        def omega_at(self, t):
            drawn.append(t)
            return fig2.omega_at(t)

    p = Recording()
    t, tau = np.array([0.4, 1.0]), np.array([0.2, 0.1])
    t_end = t + tau
    fractions = (0.0, 0.3, 0.5, 1.0)
    exact = stage_rates(p, t, tau, t_end, fractions, MidpointSamplingMode.EXACT)
    assert drawn[0] is t and drawn[-1] is t_end
    for c, w in zip(fractions, exact):
        npt.assert_array_equal(w, fig2.omega_at(t + c * tau))
    drawn.clear()
    chord = stage_rates(p, t, tau, t_end, fractions, MidpointSamplingMode.LINEAR_INTERP)
    assert len(drawn) == 2
    w0, w1 = fig2.omega_at(t), fig2.omega_at(t_end)
    npt.assert_array_equal(chord[0], w0)
    npt.assert_allclose(chord[1], 0.7 * w0 + 0.3 * w1, rtol=1e-15)
    npt.assert_array_equal(chord[2], 0.5 * (w0 + w1))
    npt.assert_array_equal(chord[3], w1)
    drawn.clear()
    stage_rates(p, t, tau, t_end, (1.0,), MidpointSamplingMode.LINEAR_INTERP)
    assert len(drawn) == 1 and drawn[0] is t_end
    with pytest.raises(ValueError, match="unknown sampling mode"):
        stage_rates(p, t, tau, t_end, fractions, "exact")


def test_midpoint_rejects_nonpositive_step():
    # nan <= 0 is false, so a step that is not finite is refused on its own,
    # and first.
    fig2 = profile_from_name("fig2")
    for t_k, tau, reason in [
        (0.0, 0.0, "positive"),
        (0.0, -0.1, "positive"),
        (0.0, math.nan, "finite"),
        (0.0, math.inf, "finite"),
        ([0.0, 0.1], [0.1, math.nan], "finite"),
    ]:
        with pytest.raises(ValueError, match=f"^step size must be {reason}$"):
            midpoint_omega(fig2, t_k, tau)


# --- constant-rate analytic transition ------------------------------------------

def test_analytic_transition_zero_rate_is_identity():
    npt.assert_array_equal(analytic_constant_transition(np.zeros(3), 0.37), I4)


def test_analytic_transition_half_period():
    # |w| tau = 2 pi rotates every component phase by pi: G = -I.
    w = np.array([2.0, 10.0, 3.0])
    tau = 2.0 * math.pi / np.linalg.norm(w)
    npt.assert_allclose(analytic_constant_transition(w, tau), -I4, atol=1e-13)


def test_analytic_transition_matches_series_oracle():
    w = np.array([2.0, 10.0, 3.0])
    g_closed = analytic_constant_transition(w, 0.01)
    g_series = constant_transition_series(w, 0.01)
    assert frobenius_norm(g_closed - g_series) <= 1e-12


def test_analytic_transition_series_agrees_for_random_inputs():
    rng = np.random.default_rng(9)
    for _ in range(25):
        w = rng.normal(0.0, 4.0, 3)
        tau = rng.uniform(0.001, 0.3)
        gap = frobenius_norm(
            analytic_constant_transition(w, tau) - constant_transition_series(w, tau)
        )
        assert gap <= 1e-13


def test_analytic_transition_orthogonal():
    rng = np.random.default_rng(10)
    for _ in range(50):
        w = rng.normal(0.0, 5.0, 3)
        g = analytic_constant_transition(w, rng.uniform(0.0, 1.0))
        assert frobenius_norm(g.T @ g - I4) <= 1e-14


def test_analytic_transition_flow_property():
    # G(tau1) G(tau2) = G(tau1 + tau2): the map is the exact flow.
    rng = np.random.default_rng(13)
    for _ in range(25):
        w = rng.normal(0.0, 5.0, 3)
        t1, t2 = rng.uniform(0.0, 0.5, 2)
        lhs = analytic_constant_transition(w, t1) @ analytic_constant_transition(w, t2)
        rhs = analytic_constant_transition(w, t1 + t2)
        assert frobenius_norm(lhs - rhs) <= 1e-12


# --- coning analytic state -------------------------------------------------------

def test_coning_state_at_zero():
    npt.assert_allclose(
        coning_analytic_state(W0, BETA, 0.0),
        [math.cos(math.pi / 160.0), 0.0, math.sin(math.pi / 160.0), 0.0],
        rtol=1e-15,
    )


def test_coning_state_periodicity():
    npt.assert_allclose(
        coning_analytic_state(W0, BETA, 1.0),
        coning_analytic_state(W0, BETA, 0.0),
        atol=1e-15,
    )


def test_coning_state_quarter_period():
    npt.assert_allclose(
        coning_analytic_state(W0, BETA, 0.25),
        [math.cos(math.pi / 160.0), 0.0, 0.0, math.sin(math.pi / 160.0)],
        atol=1e-15,
    )


def test_coning_state_unit_norm_everywhere():
    t = np.linspace(0.0, 7.3, 1001)
    norms = np.linalg.norm(coning_analytic_state(W0, BETA, t), axis=-1)
    npt.assert_allclose(norms, 1.0, atol=1e-15)


def test_coning_state_satisfies_rate_equation():
    # Central finite difference of q(t) vs (1/2) A(w(t)) q(t).
    profile = ConingProfile(W0, BETA)
    h = 1e-6
    for t in [0.0, 0.123, 0.5, 2.71]:
        dq = (
            coning_analytic_state(W0, BETA, t + h)
            - coning_analytic_state(W0, BETA, t - h)
        ) / (2.0 * h)
        rhs = 0.5 * coefficient_matrix(profile.omega_at(t)) @ coning_analytic_state(
            W0, BETA, t
        )
        npt.assert_allclose(dq, rhs, atol=1e-6)


def test_constant_oracle_matches_transition_powers():
    w = np.array([2.0, 0.0, 0.0])
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    oracle = constant_oracle(w, q0)
    # e0 tracks cos(t), e1 tracks sin(t) at rate |w|/2 = 1
    t = np.linspace(0.0, 3.0, 31)
    ref = oracle(t)
    npt.assert_allclose(ref[:, 0], np.cos(t), atol=1e-15)
    npt.assert_allclose(ref[:, 1], np.sin(t), atol=1e-15)
    g = analytic_constant_transition(w, 0.1)
    q = q0.copy()
    for k in range(1, 11):
        q = g @ q
        npt.assert_allclose(q, oracle(0.1 * k), atol=1e-13)


def test_constant_oracle_at_zero_rate_holds_q0():
    q0 = np.array([0.5, 0.5, 0.5, 0.5])
    oracle = constant_oracle(np.zeros(3), q0, t0=2.0)
    assert oracle(np.array([[0.0, 2.0, 7.5]])).tobytes() == np.tile(q0, (1, 3, 1)).tobytes()
    assert oracle(3.0).tobytes() == q0.tobytes()
