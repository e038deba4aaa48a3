import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sccat import intmat


def test_snf_identity():
    res = intmat.smith_normal_form(intmat.identity(3))
    assert res.diagonal == intmat.identity(3)
    assert res.validate(intmat.identity(3)) == []


def test_snf_zero_matrix():
    z = intmat.zeros(2, 3)
    res = intmat.smith_normal_form(z)
    assert res.diagonal == intmat.zeros(2, 3)
    assert res.left == intmat.identity(2)
    assert res.right == intmat.identity(3)
    assert res.validate(z) == []


def test_snf_hand_checked_2x2():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4
    m = [[2, 4], [6, 8]]
    res = intmat.smith_normal_form(m)
    assert res.diagonal_entries() == [2, 4]
    assert res.validate(m) == []


@pytest.mark.parametrize("m,expected", [
    ([[1]], [1]),
    ([[0]], [0]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[3, 0], [0, 3]], [3, 3]),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 3, 0]),
])
def test_snf_small_cases(m, expected):
    res = intmat.smith_normal_form(m)
    assert res.diagonal_entries() == expected
    assert res.validate(m) == []


def test_snf_random_suite():
    rng = random.Random(11)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        res = intmat.smith_normal_form(m)
        assert res.validate(m) == []
        assert res.rank() == intmat.rank_rational(m)


def test_kernel_basis_is_kernel():
    rng = random.Random(5)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = intmat.kernel_basis(m)
        assert len(basis) == cols - intmat.rank_rational(m)
        for vec in basis:
            image = [sum(m[i][j] * vec[j] for j in range(cols)) for i in range(rows)]
            assert image == [0] * rows


def test_solve_consistent_and_inconsistent():
    a = [[2, 0], [0, 3]]
    assert intmat.solve(a, [4, 9]) == [2, 3]
    assert intmat.solve(a, [1, 0]) is None  # 2 does not divide 1
    assert intmat.solve([[1, 1]], [5]) is not None
    assert intmat.solve([[0]], [1]) is None  # a zero divisor reaches only 0


def test_determinant_matches_expansion():
    assert intmat.determinant([[1, 2], [3, 4]]) == -2
    assert intmat.determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert intmat.determinant([[0, 1], [1, 0]]) == -1


# ---------------------------------------------------------------------------
# oracle: the sparse unit-pivot reduction against the dense Smith normal form

@st.composite
def small_matrices(draw):
    """Up to 7 x 8; entries from a pool with units, or from one without any,
    so that the dense residual path runs."""
    pool = draw(st.sampled_from([(-1, 0, 0, 1), (-3, -2, 0, 0, 2, 3)]))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    return [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(m)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_matrices())
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 3], [3, 2]])
def test_reduction_matches_dense_snf(a):
    ncols = intmat.shape(a)[1]
    assert intmat.invariant_factors(a) == intmat.smith_normal_form(a).invariant_factors()
    assert intmat.rank(a) == intmat.rank_rational(a)
    basis = intmat.kernel_basis(a)
    assert len(basis) == ncols - intmat.rank_rational(a)
    for vec in basis:
        assert all(sum(v * x for v, x in zip(row, vec)) == 0 for row in a)
    if basis:
        # saturated: the basis columns have only unit invariant factors
        cols = intmat.from_columns(basis, ncols)
        assert intmat.smith_normal_form(cols).invariant_factors() == [1] * len(basis)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_matrices())
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
def test_invariant_factors_match_sympy(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    expected = invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
    assert intmat.invariant_factors(a) == [abs(int(d)) for d in expected if d]


def test_reduction_passes_again_for_units_made_by_a_pivot(monkeypatch):
    # column 0 has no unit until the pivot of column 1 clears row 0 from it
    dense = []
    snf = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form", lambda a: dense.append(a) or snf(a))
    assert intmat.invariant_factors([[2, 1], [3, 1]]) == [1, 1]
    assert dense == []
