import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breedsim import fieldmath as fm
from breedsim import symplectic as sp


def v(text, p=2):
    return sp.from_string(text, p)


class TestProduct:
    def test_x_z_anticommute(self):
        assert sp.symp_product(v("10|00"), v("00|10"), 2) == 1

    def test_self_product_zero(self):
        rng = np.random.default_rng(0)
        for p in (2, 3, 5):
            for _ in range(50):
                u = rng.integers(0, p, size=8)
                assert sp.symp_product(u, u, p) == 0

    def test_f5_arithmetic(self):
        assert sp.symp_product(v("20|10", 5), v("10|30", 5), 5) == 0

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        for p in (2, 3, 5):
            for _ in range(60):
                u, w, x = rng.integers(0, p, size=(3, 10))
                assert sp.symp_product(u, w, p) == (-sp.symp_product(w, u, p)) % p
                lhs = sp.symp_product((u + w) % p, x, p)
                rhs = (sp.symp_product(u, x, p) + sp.symp_product(w, x, p)) % p
                assert lhs == rhs

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sp.symp_product(v("10|00"), v("100|000"), 2)


class TestWeight:
    def test_examples(self):
        assert sp.symp_weight(v("101|011")) == 3
        assert sp.symp_weight(np.zeros(6, dtype=np.int64)) == 0
        assert sp.symp_weight(v("02|00", 3)) == 1

    def test_subadditive_and_definite(self):
        rng = np.random.default_rng(2)
        for p in (2, 3, 5):
            for _ in range(60):
                u, w = rng.integers(0, p, size=(2, 8))
                assert sp.symp_weight((u + w) % p) <= sp.symp_weight(u) + sp.symp_weight(w)
                assert (sp.symp_weight(u) == 0) == (not np.any(u))
                assert sp.symp_weight(sp.star(u, p)) == sp.symp_weight(u)


class TestStar:
    def test_f3_example(self):
        assert np.array_equal(sp.star(v("12|21", 3), 3), v("12|12", 3))

    def test_identity_on_f2(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.integers(0, 2, size=10)
            assert np.array_equal(sp.star(u, 2), u)

    def test_involution(self):
        rng = np.random.default_rng(4)
        for p in (2, 3, 5):
            u = rng.integers(0, p, size=12)
            assert np.array_equal(sp.star(sp.star(u, p), p), u)

    def test_product_negation(self):
        rng = np.random.default_rng(5)
        for p in (2, 3, 5):
            for _ in range(40):
                u, w = rng.integers(0, p, size=(2, 8))
                got = sp.symp_product(sp.star(u, p), sp.star(w, p), p)
                assert got == (-sp.symp_product(u, w, p)) % p

    def test_self_orthogonality_closure(self):
        # the closure property underpinning the protocol's zero-error behavior
        rng = np.random.default_rng(6)
        for p in (2, 3, 5):
            for _ in range(25):
                d = sp.SympSubspace.from_rows(p, 3, rng.integers(0, p, size=(2, 6)))
                c, _ = sp.symp_extend(d)
                assert sp.is_self_orthogonal(c)
                assert sp.is_self_orthogonal(sp.star_subspace(c))


class TestDual:
    def test_single_generator_n1(self):
        s = sp.SympSubspace.from_rows(2, 1, [v("1|0")])
        assert sp.symp_dual(s) == s

    def test_zero_and_full(self):
        zero = sp.SympSubspace.from_rows(2, 2, [])
        assert sp.symp_dual(zero).dim == 4
        full = sp.SympSubspace.from_rows(2, 2, np.eye(4, dtype=np.int64))
        assert sp.symp_dual(full).dim == 0

    def test_double_dual_and_dimension(self):
        rng = np.random.default_rng(7)
        for p in (2, 3, 5):
            for _ in range(30):
                s = sp.SympSubspace.from_rows(p, 4, rng.integers(0, p, size=(3, 8)))
                dual = sp.symp_dual(s)
                assert dual.dim == 8 - s.dim
                assert sp.symp_dual(dual) == s


class TestSelfOrthogonal:
    def test_x6_z6(self):
        s = sp.SympSubspace.from_rows(2, 6, [v("111111|000000"), v("000000|111111")])
        assert sp.is_self_orthogonal(s)

    def test_hyperbolic_pair_is_not(self):
        s = sp.SympSubspace.from_rows(2, 1, [v("1|0"), v("0|1")])
        assert not sp.is_self_orthogonal(s)

    def test_zero_space(self):
        assert sp.is_self_orthogonal(sp.SympSubspace.from_rows(2, 3, []))


class TestGram:
    def test_self_orthogonal_gives_zero(self):
        s = sp.SympSubspace.from_rows(2, 6, [v("111111|000000"), v("000000|111111")])
        assert not np.any(sp.gram(s))

    def test_hyperbolic_pair(self):
        s = sp.SympSubspace.from_rows(2, 1, [v("1|0"), v("0|1")])
        assert np.array_equal(sp.gram(s), [[0, 1], [1, 0]])

    def test_punctured_pair(self):
        # X^6/Z^6 punctured at the last position: <1^5, 1^5> = 5 = 1 mod 2
        s = sp.SympSubspace.from_rows(2, 6, [v("111111|000000"), v("000000|111111")])
        punct = sp.puncture(s, {5})
        assert np.array_equal(sp.gram(punct), [[0, 1], [1, 0]])

    def test_antisymmetric_zero_diagonal(self):
        rng = np.random.default_rng(8)
        for p in (3, 5):
            s = sp.SympSubspace.from_rows(p, 3, rng.integers(0, p, size=(3, 6)))
            g = sp.gram(s)
            assert np.array_equal(g, (-g.T) % p)
            assert not np.any(np.diag(g))


class TestPuncture:
    def test_noop(self):
        s = sp.SympSubspace.from_rows(2, 3, [v("110|001")])
        assert sp.puncture(s, set()) == s

    def test_coordinate_deletion(self):
        s = sp.SympSubspace.from_rows(2, 6, [v("111111|000000"), v("000000|111111")])
        punct = sp.puncture(s, {5})
        expected = sp.SympSubspace.from_rows(2, 5, [v("11111|00000"), v("00000|11111")])
        assert punct == expected

    def test_dimension_can_drop(self):
        s = sp.SympSubspace.from_rows(2, 2, [v("10|00")])
        assert sp.puncture(s, {0}).dim == 0

    def test_out_of_range(self):
        s = sp.SympSubspace.from_rows(2, 2, [v("10|00")])
        with pytest.raises(ValueError):
            sp.puncture(s, {2})


class TestExtend:
    def test_already_self_orthogonal(self):
        s = sp.SympSubspace.from_rows(2, 6, [v("111111|000000"), v("000000|111111")])
        ext, c = sp.symp_extend(s)
        assert c == 0
        assert ext == s

    def test_hyperbolic_pair(self):
        s = sp.SympSubspace.from_rows(2, 1, [v("1|0"), v("0|1")])
        ext, c = sp.symp_extend(s)
        assert c == 1
        assert sp.is_self_orthogonal(ext)
        assert sp.puncture(ext, {1}) == s

    def test_punctured_repetition_pair(self):
        s = sp.SympSubspace.from_rows(2, 6, [v("111111|000000"), v("000000|111111")])
        punct = sp.puncture(s, {5})
        ext, c = sp.symp_extend(punct)
        assert c == 1
        assert ext.n == 6 and ext.dim == 2
        assert sp.puncture(ext, {5}) == punct

    def test_random_round_trip(self):
        rng = np.random.default_rng(9)
        for p in (2, 3, 5):
            for _ in range(40):
                n = int(rng.integers(1, 5))
                dim = int(rng.integers(0, min(4, 2 * n) + 1))
                d = sp.SympSubspace.from_rows(p, n, rng.integers(0, p, size=(dim, 2 * n)))
                ext, c = sp.symp_extend(d)
                assert c == fm.rank(sp.gram(d), p) // 2
                assert sp.is_self_orthogonal(ext)
                assert sp.puncture(ext, range(n, n + c)) == d


def symp_extend_by_pairs(d):
    """symp_extend as a scalar loop: each pair found by scanning (i < j) with
    one symp_product per pair of rows, each extension row built on its own."""
    p, n = d.p, d.n
    vecs = [row.copy() for row in d.basis]
    pairs = []
    while True:
        hit = next(
            ((i, j) for i in range(len(vecs)) for j in range(i + 1, len(vecs))
             if sp.symp_product(vecs[i], vecs[j], p) != 0),
            None,
        )
        if hit is None:
            break
        i, j = hit
        u = vecs[i]
        v = (vecs[j] * fm.inv_mod(sp.symp_product(u, vecs[j], p), p)) % p
        rest = [vecs[t] for t in range(len(vecs)) if t not in (i, j)]
        vecs = [(w + sp.symp_product(w, u, p) * v - sp.symp_product(w, v, p) * u) % p for w in rest]
        pairs.append((u, v))
    nn = n + len(pairs)
    rows = []
    for t, (u, v) in enumerate(pairs):
        ue = np.zeros(2 * nn, dtype=np.int64)
        ve = np.zeros(2 * nn, dtype=np.int64)
        ue[:n], ue[nn : nn + n] = u[:n], u[n:]
        ve[:n], ve[nn : nn + n] = v[:n], v[n:]
        ue[n + t] = 1
        ve[nn + n + t] = p - 1
        rows.extend([ue, ve])
    for w in vecs:
        we = np.zeros(2 * nn, dtype=np.int64)
        we[:n], we[nn : nn + n] = w[:n], w[n:]
        rows.append(we)
    return sp.SympSubspace.from_rows(p, nn, rows), len(pairs)


@st.composite
def subspaces(draw):
    """A random subspace of F_p^{2n}, p in {2, 3, 5}, from up to 2n rows."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(0, 2 * n))
    gens = draw(st.lists(st.integers(0, p - 1), min_size=dim * 2 * n, max_size=dim * 2 * n))
    return sp.SympSubspace.from_rows(p, n, np.reshape(gens, (dim, 2 * n)))


@settings(max_examples=200, deadline=None)
@given(subspaces(), st.sampled_from(["from_rows", "symp_dual", "puncture", "symp_extend"]), st.data())
def test_cached_maps_match_a_fresh_rref(d, made_by, data):
    # a subspace from each constructor; its basis must be RREF for the
    # cached coset map to reduce rows as a fresh rref does
    if made_by == "symp_dual":
        s = sp.symp_dual(d)
    elif made_by == "puncture":
        s = sp.puncture(d, data.draw(st.sets(st.integers(0, d.n - 1), max_size=d.n - 1)))
    elif made_by == "symp_extend":
        s = sp.symp_extend(d)[0]
    else:
        s = d
    p, width = s.p, 2 * s.n
    rows = np.reshape(data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=3 * width, max_size=3 * width)), (3, width))
    r, pivots = fm.rref(s.basis, p)
    assert np.array_equal(fm.mat_mod(rows, s.coset_map, p), fm.reduce_rows(r[: len(pivots)], pivots, rows, p))
    assert s.syndrome_map.dtype == np.float64
    assert np.array_equal(s.syndrome_map, sp.syndrome_matrix(s.basis, p).T)


@settings(max_examples=300, deadline=None)
@given(subspaces())
def test_extend_matches_scalar_loop(d):
    ext, c = sp.symp_extend(d)
    want, want_c = symp_extend_by_pairs(d)
    assert c == want_c
    assert ext.n == want.n and ext.basis.dtype == want.basis.dtype
    assert np.array_equal(ext.basis, want.basis)
