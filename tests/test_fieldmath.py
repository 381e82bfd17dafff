import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breedsim import fieldmath as fm
from breedsim import symplectic as sp
from breedsim.codes import StabilizerCode


def test_check_modulus_accepts_primes():
    for p in (2, 3, 5, 7, 251):
        assert fm.check_modulus(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 252, 256])
def test_check_modulus_rejects(bad):
    with pytest.raises(ValueError):
        fm.check_modulus(bad)


def test_field_ops():
    assert (1 + 1) % 2 == 0
    assert fm.inv_mod(3, 5) == 2
    assert (-1) % 3 == 2
    assert fm.inv_mod(7, 11) * 7 % 11 == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        fm.inv_mod(0, 5)


def test_rref_collapses_dependent_rows():
    r, pivots = fm.rref([[1, 1], [1, 1]], 2)
    assert len(pivots) == 1
    assert np.array_equal(r[0], [1, 1])


def test_rref_identity_fixed_point():
    eye = np.eye(3, dtype=np.int64)
    r, pivots = fm.rref(eye, 2)
    assert np.array_equal(r, eye)
    assert pivots == [0, 1, 2]


def test_rref_normalizes_over_f5():
    r, pivots = fm.rref([[2, 4], [1, 2]], 5)
    assert len(pivots) == 1
    assert np.array_equal(r[0], [1, 2])


def test_rref_idempotent():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(30):
            m = rng.integers(0, p, size=(3, 5))
            r1, _ = fm.rref(m, p)
            r2, _ = fm.rref(r1, p)
            assert np.array_equal(r1, r2)


def test_rref_preserves_row_space():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(30):
            m = rng.integers(0, p, size=(3, 6))
            basis = fm.row_basis(m, p)
            assert fm.rank(m, p) == basis.shape[0]
            _, pivots = fm.rref(basis, p)
            assert not fm.reduce_rows(basis, pivots, m, p).any()


def test_kernel_of_zero_map_is_everything():
    k = fm.kernel(np.zeros((1, 3), dtype=np.int64), 2)
    assert k.shape == (3, 3)


def test_kernel_of_identity_is_trivial():
    assert fm.kernel(np.eye(4, dtype=np.int64), 3).shape == (0, 4)


def test_kernel_example_f2():
    k = fm.kernel([[1, 1, 0]], 2)
    expected = fm.row_basis([[1, 1, 0], [0, 0, 1]], 2)
    assert np.array_equal(k, expected)


def kernel_by_columns(m, p):
    """fm.kernel with one basis vector, and one entry of it, at a time."""
    a = fm.as_field_matrix(m, p)
    ncols = a.shape[1]
    r, pivots = fm.rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for row_i, c in enumerate(pivots):
            basis[idx, c] = (-r[row_i, f]) % p
    return fm.row_basis(basis, p)


@st.composite
def field_matrices(draw):
    """A matrix over F_p, p in {2, 3, 5}, of up to 8 x 12 entries, some rows zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    m = np.reshape(np.array(entries, dtype=np.int64), (rows, cols))
    m[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0
    return m, p


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_kernel_matches_column_loop(case):
    m, p = case
    got, want = fm.kernel(m, p), kernel_by_columns(m, p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_rank_nullity():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(40):
            m = rng.integers(0, p, size=(4, 6))
            assert fm.rank(m, p) + fm.kernel(m, p).shape[0] == 6
            # kernel rows really annihilate
            for row in fm.kernel(m, p):
                assert not np.any((m % p) @ row % p)


def test_solve_round_trip():
    rng = np.random.default_rng(23)
    for p in (2, 5):
        for _ in range(20):
            a = rng.integers(0, p, size=(3, 5))
            x = rng.integers(0, p, size=5)
            b = a @ x % p
            got = fm.solve(a, b, p)
            assert np.array_equal(a @ got % p, b)


def test_solve_inconsistent():
    with pytest.raises(ValueError):
        fm.solve([[1, 1], [1, 1]], [0, 1], 2)


def test_span_enumeration_is_complete():
    basis = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    for batch_size, lengths in [(1, [1, 1, 1, 1]), (3, [3, 1]), (4, [4]), (5, [4])]:
        batches = list(fm.iter_span_batches(basis, 2, batch_size))
        assert [len(b) for b in batches] == lengths
        elems = np.vstack(batches)
        assert elems.shape == (4, 3)
        assert len({tuple(r) for r in elems}) == 4


def reduce_rows_per_pivot(basis, pivots, rows, p):
    """Reference: clear one pivot column per pass."""
    out = np.asarray(rows, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        out = (out - out[:, c : c + 1] * basis[i]) % p
    return out


@st.composite
def reduction_cases(draw):
    """An RREF basis (possibly empty) over p in {2, 3, 5} and rows to reduce,
    some of them zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    ncols = draw(st.integers(1, 7))
    entries = st.integers(0, p - 1)
    gens = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=ncols))
    r, pivots = fm.rref(np.array(gens, dtype=np.int64).reshape(-1, ncols), p)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=8))
    rows = np.array(rows + [[0] * ncols] * draw(st.integers(0, 2)), dtype=np.int64).reshape(-1, ncols)
    return p, r[: len(pivots)], pivots, rows


@settings(max_examples=200, deadline=None)
@given(reduction_cases())
def test_reduce_rows_matches_per_pivot_reference(case):
    p, basis, pivots, rows = case
    got = fm.reduce_rows(basis, pivots, rows, p)
    assert np.array_equal(got, reduce_rows_per_pivot(basis, pivots, rows, p))
    assert not got[:, pivots].any()


@st.composite
def product_cases(draw):
    """(a, b, p): a with entries that may be negative or at least p, b with
    entries in (-p, p), in shapes that may have zero rows, zero inner length
    or zero columns."""
    p = draw(st.sampled_from([2, 3, 5, 251]))
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    big = st.one_of(st.integers(-3 * p, 3 * p), st.integers(-(1 << 40), 1 << 40))

    def matrix(r, c):
        return np.array(draw(st.lists(big, min_size=r * c, max_size=r * c)), dtype=np.int64).reshape(r, c)

    # b is a fixed map: entries in (-p, p), int64 or float64
    a, b = matrix(rows, inner), np.fmod(matrix(inner, cols), p)
    if draw(st.booleans()):
        b = b.astype(np.float64)
    return a, b, p


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_mat_mod_matches_int64_product(case):
    a, b, p = case
    got = fm.mat_mod(a, b, p)
    # reduce first, so the int64 reference cannot overflow
    want = (a % p) @ (b.astype(np.int64) % p) % p
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def codes_and_rows(draw):
    """A random self-orthogonal code over p in {2, 3, 5} (``symp_extend`` of a
    random subspace) and rows inside and outside its dual, some unreduced."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
    dim = draw(st.integers(1, n))
    entries = st.integers(0, p - 1)
    gens = draw(st.lists(entries, min_size=dim * 2 * n, max_size=dim * 2 * n))
    ext, _ = sp.symp_extend(sp.SympSubspace.from_rows(p, n, np.reshape(gens, (dim, 2 * n))))
    code = StabilizerCode(p, ext.n, ext.basis)
    width = 2 * code.n
    outside = draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=width, max_size=width), max_size=6))
    dual = code.dual.basis
    coeffs = draw(st.lists(st.lists(entries, min_size=len(dual), max_size=len(dual)), max_size=6))
    inside = np.array(coeffs, dtype=np.int64).reshape(-1, len(dual)) @ dual
    rows = np.vstack([np.array(outside, dtype=np.int64).reshape(-1, width), inside])
    return code, rows, len(inside)


@settings(max_examples=150, deadline=None)
@given(codes_and_rows())
def test_coset_representatives_match_per_pivot_reference(case):
    code, rows, n_inside = case
    p = code.p
    basis, pivots = fm.rref(code.stab.basis, p)
    got = code.coset_representatives(rows)
    assert np.array_equal(got, reduce_rows_per_pivot(basis[: len(pivots)], pivots, rows, p))
    assert not got[:, pivots].any()
    # a dual row keeps its syndrome (zero) through the reduction
    assert not code.syndromes_batch(got[len(rows) - n_inside :]).any()
