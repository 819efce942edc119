import numpy as np
import numpy.testing as npt
import pytest

from quatkin.errors import SingularMatrixError
from quatkin.linalg import (
    I4,
    LEFT_I,
    LEFT_J,
    LEFT_K,
    SYMPLECTIC_J4,
    frobenius_norm,
    solve_linear_4,
)
from quatkin.model import coefficient_matrix

# 2x2 rotation generator: J2 @ J2 = -I2, J2.T = -J2
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((4, 4))) == 0.0
    assert frobenius_norm(I4) == 2.0
    assert frobenius_norm(SYMPLECTIC_J4) == 2.0


def test_orthogonal_matrix_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert frobenius_norm(q.T @ q - I4) <= 1e-14
        v = rng.normal(size=4)
        npt.assert_allclose(
            np.linalg.norm(q @ v), np.linalg.norm(v), rtol=1e-13
        )


def test_symplectic_j4_invariants_exact():
    npt.assert_array_equal(SYMPLECTIC_J4.T, -SYMPLECTIC_J4)
    npt.assert_array_equal(SYMPLECTIC_J4 @ SYMPLECTIC_J4, -I4)
    assert SYMPLECTIC_J4[0, 2] == 1.0 and SYMPLECTIC_J4[2, 0] == -1.0


LEFT_UNITS = {"i": LEFT_I, "j": LEFT_J, "k": LEFT_K}
UNIT_QUATERNIONS = {
    "i": np.array([0.0, 1.0, 0.0, 0.0]),
    "j": np.array([0.0, 0.0, 1.0, 0.0]),
    "k": np.array([0.0, 0.0, 0.0, 1.0]),
}


def hamilton_product(p, q):
    p0, pv = p[0], np.asarray(p[1:])
    q0, qv = q[0], np.asarray(q[1:])
    return np.concatenate([[p0 * q0 - pv @ qv], p0 * qv + q0 * pv + np.cross(pv, qv)])


@pytest.mark.parametrize("unit", ["i", "j", "k"])
def test_left_structures_are_left_multiplications(unit):
    rng = np.random.default_rng(5)
    for q in rng.normal(size=(20, 4)):
        npt.assert_allclose(
            LEFT_UNITS[unit] @ q, hamilton_product(UNIT_QUATERNIONS[unit], q), atol=1e-15
        )


@pytest.mark.parametrize("unit", ["i", "j", "k"])
def test_left_structures_skew_and_square_to_minus_identity(unit):
    s = LEFT_UNITS[unit]
    npt.assert_array_equal(s.T, -s)
    npt.assert_array_equal(s @ s, -I4)
    assert not s.flags.writeable


def test_left_structures_multiply_like_i_j_k():
    npt.assert_array_equal(LEFT_I @ LEFT_J, LEFT_K)
    npt.assert_array_equal(LEFT_J @ LEFT_K, LEFT_I)
    npt.assert_array_equal(LEFT_K @ LEFT_I, LEFT_J)


@pytest.mark.parametrize("unit", ["i", "j", "k"])
def test_left_structures_commute_with_rate_matrix(unit):
    rng = np.random.default_rng(6)
    s = LEFT_UNITS[unit]
    for w in rng.normal(0.0, 4.0, size=(50, 3)):
        a = coefficient_matrix(w)
        npt.assert_allclose(s @ a, a @ s, atol=1e-14)


def test_symplectic_j4_does_not_commute_with_rate_matrix_off_e2():
    # J4 is the right multiplication by -j: it commutes with A(w) only for w
    # parallel to e2, so the flow of a general rate does not preserve it.
    a = coefficient_matrix([0.0, 3.0, 0.0])
    npt.assert_array_equal(SYMPLECTIC_J4 @ a, a @ SYMPLECTIC_J4)
    a = coefficient_matrix([2.0, 0.0, 3.0])
    assert frobenius_norm(SYMPLECTIC_J4 @ a - a @ SYMPLECTIC_J4) > 1.0


def test_minus_left_i_is_block_diagonal_j2():
    block = np.zeros((4, 4))
    block[:2, :2] = J2
    block[2:, 2:] = J2
    npt.assert_array_equal(-LEFT_I, block)


def test_solve_identity_and_scalar():
    b = np.array([1.0, -2.0, 3.0, 0.5])
    npt.assert_array_equal(solve_linear_4(I4, b), b)
    npt.assert_allclose(solve_linear_4(2.0 * I4, b), b / 2.0, rtol=1e-15)


def test_solve_backward_euler_block_case():
    # (I - 0.05 A(2,0,0)) x = e0 has the hand-solvable 2x2 block solution.
    m = I4 - 0.05 * coefficient_matrix([2.0, 0.0, 0.0])
    x = solve_linear_4(m, np.array([1.0, 0.0, 0.0, 0.0]))
    npt.assert_allclose(x, [1.0 / 1.01, 0.1 / 1.01, 0.0, 0.0], rtol=1e-14)


def test_solve_residual_bound_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.normal(size=(4, 4)) + 4.0 * I4
        b = rng.normal(size=4)
        x = solve_linear_4(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_matches_numpy_on_pivoting_cases():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        a[0, 0] = 0.0  # force a row swap
        b = rng.normal(size=4)
        npt.assert_allclose(solve_linear_4(a, b), np.linalg.solve(a, b), rtol=1e-9)


def _reference_solve(a, b):
    """Row-by-row numpy elimination with partial pivoting: the solver's
    original form, kept as the reference for the scalar version."""
    m, x = np.array(a, dtype=float), np.array(b, dtype=float)
    for col in range(4):
        p = col + int(np.argmax(np.abs(m[col:, col])))
        m[[col, p]] = m[[p, col]]
        x[[col, p]] = x[[p, col]]
        for row in range(col + 1, 4):
            f = m[row, col] / m[col, col]
            m[row, col:] -= f * m[col, col:]
            x[row] -= f * x[col]
    for col in range(3, -1, -1):
        x[col] = (x[col] - m[col, col + 1 :] @ x[col + 1 :]) / m[col, col]
    return x


def test_solve_matches_reference_elimination():
    # Same pivots and eliminations; only the back-substitution sums may
    # round differently, so agreement is to a few ulps of the solution.
    rng = np.random.default_rng(13)
    for i in range(300):
        a = rng.normal(size=(4, 4))
        if i % 2:
            a[0, 0] = 0.0
        b = rng.normal(size=4)
        ref = _reference_solve(a, b)
        x = solve_linear_4(a, b)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_singular_raises():
    singular = np.zeros((4, 4))
    singular[0, 0] = 1.0
    with pytest.raises(SingularMatrixError, match="pivot"):
        solve_linear_4(singular, np.ones(4))


def test_solve_singular_in_last_column_raises():
    singular = np.array(I4, copy=True)
    singular[3, 3] = 0.0
    with pytest.raises(SingularMatrixError, match="column 3"):
        solve_linear_4(singular, np.ones(4))


def test_solve_pivots_on_largest_entry():
    # Without the row swap the 1e-12 pivot would cost about four digits.
    a = np.array(
        [
            [1e-12, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 1.0],
            [0.0, 0.0, 1.0, 3.0],
        ]
    )
    b = np.array([1.0, 2.0, 3.0, 4.0])
    npt.assert_allclose(solve_linear_4(a, b), np.linalg.solve(a, b), rtol=1e-14)


def test_solve_rejects_wrong_shapes():
    with pytest.raises(ValueError, match="4x4"):
        solve_linear_4(np.eye(3), np.ones(4))
    with pytest.raises(ValueError, match="length-4"):
        solve_linear_4(I4, np.ones(3))


def test_solve_does_not_mutate_inputs():
    a = np.array(I4, copy=True)
    a[0, 1] = 0.5
    b = np.array([1.0, 2.0, 3.0, 4.0])
    a_copy, b_copy = a.copy(), b.copy()
    solve_linear_4(a, b)
    npt.assert_array_equal(a, a_copy)
    npt.assert_array_equal(b, b_copy)
