import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma import gfp


def matrices(p, max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_shape_and_pivots(p, data):
    A = np.array(data.draw(matrices(p)), dtype=np.int64)
    R, pivots = gfp.rref(A, p)
    assert R.shape == A.shape
    for r, c in enumerate(pivots):
        assert R[r, c] == 1
        col = R[:, c].copy()
        col[r] = 0
        assert not col.any()


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nullspace_annihilates(p, data):
    A = np.array(data.draw(matrices(p)), dtype=np.int64)
    ns = gfp.nullspace(A, p)
    assert len(ns) == A.shape[1] - gfp.rank(A, p)
    for v in ns:
        assert not ((A @ v) % p).any()


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_consistency(p, data):
    A = np.array(data.draw(matrices(p)), dtype=np.int64)
    x = np.array(
        data.draw(
            st.lists(st.integers(0, p - 1), min_size=A.shape[1], max_size=A.shape[1])
        ),
        dtype=np.int64,
    )
    b = (A @ x) % p
    sol = gfp.solve(A, b, p)
    assert sol is not None
    assert np.array_equal((A @ sol) % p, b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_reports_inconsistent(p):
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert gfp.solve(A, b, p) is None


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse(p, data):
    n = data.draw(st.integers(1, 4))
    A = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    inv = gfp.inv_matrix(A, p)
    if inv is None:
        assert gfp.rank(A, p) < n
    else:
        assert np.array_equal((A @ inv) % p, np.eye(n, dtype=np.int64))
        assert np.array_equal((inv @ A) % p, np.eye(n, dtype=np.int64))


def reference_rref(A, p):
    """Gauss-Jordan with a row-by-row pivot search in Python."""
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i, c]), None)
        if piv is None:
            continue
        R[[r, piv]] = R[[piv, r]]
        R[r] = R[r] * pow(int(R[r, c]), p - 2, p) % p
        for i in range(rows):
            if i != r:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


@pytest.mark.parametrize("p", [2, 3, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_the_row_by_row_search(p, data):
    # sparse draws, so zero columns and rank-deficient matrices are common
    A = np.array(data.draw(matrices(p, max_dim=7)), dtype=np.int64)
    A[np.array(data.draw(st.lists(st.booleans(), min_size=A.size, max_size=A.size)))
      .reshape(A.shape)] = 0
    R, pivots = gfp.rref(A, p)
    R_ref, pivots_ref = reference_rref(A, p)
    assert pivots == pivots_ref and np.array_equal(R, R_ref)
