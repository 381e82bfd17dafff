"""The weight-class enumerator, and the distance, purity, coset-leader decoder,
guarantee check and batched protocol kernel built on it, against slow references.

Codes are random self-orthogonal extensions (``symp_extend``) of random
subspaces over p in {2, 3, 5}, small enough that F_p^{2n} can be listed.
"""

import contextlib
import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from breedsim import codes
from breedsim import symplectic as sp
from breedsim.breeding import BreedingProtocolSpec, EaqeccParams, convert_pure, eaqecc_distance
from breedsim.catalog import builtin_catalog
from breedsim.codes import FeasibilityError, StabilizerCode
from breedsim.engine import (
    Channel,
    ErrorPattern,
    PostSelect,
    exact_fidelity,
    run_protocol,
    simulate,
    verify_guarantee,
)

#: largest subspace length per field, so that p^(2(n + c)) stays at most 2^14
MAX_N = {2: 5, 3: 3, 5: 2}

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def extended_codes(draw):
    """A random subspace of F_p^{2n} made self-orthogonal by symp_extend: (code, n, c)."""
    p = draw(st.sampled_from(sorted(MAX_N)))
    n = draw(st.integers(1, MAX_N[p]))
    dim = draw(st.integers(1, n))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=dim * 2 * n, max_size=dim * 2 * n))
    d = sp.SympSubspace.from_rows(p, n, np.asarray(entries, dtype=np.int64).reshape(dim, 2 * n))
    assume(d.dim >= 1)
    ext, c = sp.symp_extend(d)
    return StabilizerCode(p, ext.n, ext.basis), n, c


@st.composite
def protocols(draw):
    """A breeding spec built from a random subspace, plus random error rows and
    one erased set per row: the same set for every row, or sets mixed across rows."""
    code, n, c = draw(extended_codes())
    p = code.p
    spec = BreedingProtocolSpec(
        code, frozenset(range(n, code.n)), EaqeccParams(p=p, n=n, gross_k=code.k, c=c, d=None)
    )
    rows = draw(st.integers(1, 12))
    noisy = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * 2 * n, max_size=rows * 2 * n)
    )
    errors = np.zeros((rows, 2 * code.n), dtype=np.int64)
    errors[:, list(range(n)) + list(range(code.n, code.n + n))] = np.reshape(noisy, (rows, 2 * n))
    erased_set = st.frozensets(st.integers(0, n - 1))
    if draw(st.booleans()):
        erased = [draw(erased_set)] * rows
    else:
        erased = draw(st.lists(erased_set, min_size=rows, max_size=rows))
    return spec, errors, erased


def erasure_mask(sets, n):
    """(rows, n) boolean mask with row i flagging the positions of sets[i]."""
    mask = np.zeros((len(sets), n), dtype=bool)
    for row, erased in zip(mask, sets):
        row[list(erased)] = True
    return mask


def all_syndromes(code):
    """Every syndrome of the code as rows, in mixed-radix key order."""
    m = code.stab.dim
    return np.asarray(list(itertools.product(range(code.p), repeat=m)), dtype=np.int64).reshape(-1, m)


def brute_force_leaders(code, erased):
    """Leader of every syndrome, in key order, by listing all of F_p^{2n}: the
    minimum weight off the erased positions, then the lex-smallest (a|b).
    Vector i has the base-p digits of i, so index order is lex order, and
    syndromes are symplectic products with the stabilizer basis."""
    p, n, m = code.p, code.n, code.stab.dim
    vectors = np.arange(p ** (2 * n))[:, None] // p ** np.arange(2 * n - 1, -1, -1) % p
    keys = sp.pairwise_products(code.stab.basis, vectors, p).T @ p ** np.arange(m - 1, -1, -1)
    live = np.ones(n, dtype=bool)
    live[list(erased)] = False
    weights = ((vectors[:, :n] != 0) | (vectors[:, n:] != 0))[:, live].sum(axis=1)
    # lexsort is stable: among rows of equal key and weight, the lowest index
    order = np.lexsort((weights, keys))
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    assert first.sum() == p**m
    return vectors[order[first]]


def brute_force_min_weights(sub):
    """(min weight over sub^perp_s minus sub, min nonzero weight over sub^perp_s),
    or (None, None), by listing all of F_p^{2n}; vector i has the base-p digits of i."""
    p, n = sub.p, sub.n
    radix = p ** np.arange(2 * n - 1, -1, -1)
    vectors = np.arange(p ** (2 * n))[:, None] // radix % p
    coeffs = np.arange(p**sub.dim)[:, None] // p ** np.arange(sub.dim - 1, -1, -1) % p
    in_sub = np.isin(np.arange(len(vectors)), coeffs @ sub.basis % p @ radix)
    in_dual = ~sp.pairwise_products(vectors, sub.basis, p).any(axis=1)
    weights = sp.symp_weights(vectors)
    outside = weights[in_dual & ~in_sub]
    nonzero = weights[in_dual & (weights > 0)]
    return (int(outside.min()), int(nonzero.min())) if len(outside) else (None, None)


@st.composite
def subspaces(draw, max_n=MAX_N):
    """A random subspace of F_p^{2n} given by up to n + 1 random rows."""
    p = draw(st.sampled_from(sorted(max_n)))
    n = draw(st.integers(1, max_n[p]))
    rows = draw(st.integers(0, n + 1))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * 2 * n, max_size=rows * 2 * n))
    return sp.SympSubspace.from_rows(p, n, np.asarray(entries, dtype=np.int64).reshape(rows, 2 * n))


#: [[4,2,2]] plus a fifth qubit fixed by Z: d = 2 with a weight-1 stabilizer, so impure
IMPURE = StabilizerCode(2, 5, [sp.from_string(g, 2) for g in ("11110|00000", "00000|11110", "00000|00001")])


@SETTINGS
@given(extended_codes())
@example((IMPURE, 5, 0))
def test_distance_and_purity_match_brute_force(case):
    code = case[0]
    distance, min_nonzero = brute_force_min_weights(code.stab)
    assert code.distance == distance
    assert code.is_pure == (None if distance is None else distance == min_nonzero)


@SETTINGS
@given(extended_codes())
def test_dual_dimension_is_n_plus_k(case):
    # what ``analyze`` prints as dual_dim, without building the dual
    code = case[0]
    assert code.n + code.k == code.dual.dim


@SETTINGS
@given(subspaces())
def test_eaqecc_distance_matches_brute_force(d):
    assume(not sp.is_self_orthogonal(d))
    assert eaqecc_distance(d) == brute_force_min_weights(d)[0]


@SETTINGS
@given(st.sampled_from([2, 3]), st.integers(1, 4), st.data())
def test_support_vectors_order(p, n, data):
    supports = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 3)), max_size=6)
    )
    max_rows = data.draw(st.integers(1, 40))
    values = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    expected = []
    for support in supports:
        for content in itertools.product(values, repeat=len(support)):
            vec = np.zeros(2 * n, dtype=np.int64)
            for pos, (a, b) in zip(support, content):
                vec[pos], vec[n + pos] = a, b
            expected.append(vec)
    with mock.patch.object(sp, "BLOCK_ENTRIES", max_rows * 2 * n):
        blocks = list(sp.support_vectors(n, p, map(tuple, supports)))
    assert all(1 <= len(block) <= max_rows for block in blocks)
    got = np.vstack([np.zeros((0, 2 * n), dtype=np.int64), *blocks])
    assert np.array_equal(got, np.reshape(expected, (-1, 2 * n)))


@pytest.fixture(scope="module")
def quantum_hamming():
    """[[15,7,3]]: CSS code of the [15,11,3] Hamming code's parity checks (column j is j+1 in binary)."""
    h = (np.arange(1, 16)[None, :] >> np.arange(3, -1, -1)[:, None]) & 1
    zeros = np.zeros_like(h)
    return StabilizerCode(2, 15, np.vstack([np.hstack([h, zeros]), np.hstack([zeros, h])]))


def test_quantum_hamming_code(quantum_hamming):
    code = quantum_hamming
    assert (code.k, code.distance, code.is_pure) == (7, 3, True)
    table = code.decode_table()
    assert table.shape == (256, 30)
    keys = code.syndromes_batch(table) @ (2 ** np.arange(7, -1, -1))
    assert np.array_equal(keys, np.arange(256))
    assert sp.symp_weights(table).max() == 2
    cert = verify_guarantee(convert_pure(code, {14}))
    assert cert.passed and cert.patterns == 904


@pytest.mark.parametrize("policy", ["none", "nonzero", "weight:1"])
def test_quantum_hamming_punctured_once_exact_agrees_with_simulation(quantum_hamming, policy):
    # 4^14 error rows on the 14 noisy pairs; the oracle takes 2^8 leaders
    # times 2^8 stabilizer elements
    spec = convert_pure(quantum_hamming, {14})
    channel, post = Channel(2, 0.01), PostSelect.parse(policy)
    exact = exact_fidelity(spec, channel, post)
    pinned = {"none": (0.993253, 1.0), "nonzero": (0.999997, 0.868749), "weight:1": (0.997241, 0.994342)}
    assert np.allclose((exact.fidelity, exact.acceptance), pinned[policy], rtol=0, atol=5e-7)
    report = simulate(spec, channel, 200_000, seed=3, postselect=post)
    # 5 half-widths of the 95% interval, with the exact probabilities
    half = 1.96 * np.sqrt(exact.fidelity * (1 - exact.fidelity) / report.kept)
    assert abs(report.fidelity_estimate - exact.fidelity) <= 5 * half
    half = 1.96 * np.sqrt(exact.acceptance * (1 - exact.acceptance) / report.trials)
    assert abs(report.kept / report.trials - exact.acceptance) <= 5 * half


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_leaders_merge_across_blocks(entry, monkeypatch):
    # blocks of three rows: every class is split, so per-block minima must merge
    monkeypatch.setattr(sp, "BLOCK_ENTRIES", 3 * 2 * entry.code.n)
    for erased in (frozenset(), frozenset({0}), frozenset({1, 2})):
        code = StabilizerCode(entry.code.p, entry.code.n, entry.code.stab.basis)
        expected = brute_force_leaders(code, erased)
        assert np.array_equal(code.decode(all_syndromes(code), erased), expected)


@SETTINGS
@given(extended_codes(), st.data())
def test_decode_matches_brute_force(case, data):
    code = case[0]
    erased = frozenset(data.draw(st.sets(st.integers(0, code.n - 1))))
    expected = brute_force_leaders(code, erased)
    syndromes = all_syndromes(code)
    order = data.draw(st.permutations(range(len(syndromes))))
    # one syndrome per call, each decoded cold, on a fresh copy of the code
    single = StabilizerCode(code.p, code.n, code.stab.basis)
    for i in order:
        assert np.array_equal(single.decode(tuple(syndromes[i]), erased), expected[i])
    # a partial batch, then a batch with repeats that is partly answered from the cache
    batched = StabilizerCode(code.p, code.n, code.stab.basis)
    head = order[: len(order) // 2]
    assert np.array_equal(batched.decode(syndromes[head], erased), expected[head])
    rows = order + head
    assert np.array_equal(batched.decode(syndromes[rows], erased), expected[rows])


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_builtin_decode_tables_match_brute_force(entry):
    assert np.array_equal(entry.code.decode_table(), brute_force_leaders(entry.code, frozenset()))


@SETTINGS
@given(extended_codes(), st.data())
def test_decode_mixes_erased_sets_in_one_batch(case, data):
    code = case[0]
    p, n = code.p, code.n
    # sets of one size share their weight classes, so they are built in the same steps
    size = data.draw(st.none() | st.integers(0, n - 1))
    erased_sets = st.frozensets(st.integers(0, n - 1), min_size=size or 0, max_size=size)
    sets = data.draw(st.lists(erased_sets, min_size=1, max_size=3, unique=True))
    expected = [brute_force_leaders(code, erased) for erased in sets]
    syndromes = all_syndromes(code)
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, len(sets) - 1), st.integers(0, len(syndromes) - 1)), min_size=1, max_size=30)
    )
    # repeated rows, then one shuffle of the whole batch
    pairs = data.draw(st.permutations(pairs + pairs[: len(pairs) // 2]))
    batch = syndromes[[key for _, key in pairs]]
    mask = erasure_mask([sets[s] for s, _ in pairs], n)
    want = np.asarray([expected[s][key] for s, key in pairs]).reshape(-1, 2 * n)
    # blocks of a few rows split classes, and the sets built in one step, across
    # blocks, and split the sets that share a class across decoder chunks,
    # down to one row a chunk
    block_rows = data.draw(st.sampled_from([1, 3, 16, None]))
    block_entries = block_rows * 2 * n if block_rows else sp.BLOCK_ENTRIES
    cold = StabilizerCode(p, n, code.stab.basis)
    with mock.patch.object(sp, "BLOCK_ENTRIES", block_entries):
        assert np.array_equal(cold.decode(batch, mask), want)
    # per-set calls on a fresh code agree with the mixed batch
    per_set = StabilizerCode(p, n, code.stab.basis)
    for s, erased in enumerate(sets):
        rows = [i for i, (owner, _) in enumerate(pairs) if owner == s]
        assert np.array_equal(per_set.decode(batch[rows], erased), want[rows])
    # partly warm: one set's cache is extended first by part of its syndromes
    warm = StabilizerCode(p, n, code.stab.basis)
    head = data.draw(st.lists(st.integers(0, len(syndromes) - 1), max_size=len(syndromes)))
    assert np.array_equal(warm.decode(syndromes[head], sets[0]), expected[0][head])
    assert np.array_equal(warm.decode(batch, mask), want)


@SETTINGS
@given(extended_codes(), st.data())
def test_decode_calls_on_one_code_match_brute_force(case, data):
    code = case[0]
    p, n = code.p, code.n
    sets = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), min_size=2, max_size=4, unique=True))
    expected = [brute_force_leaders(code, erased) for erased in sets]
    syndromes = all_syndromes(code)
    keys = st.integers(0, len(syndromes) - 1)
    rows = st.lists(st.tuples(st.integers(0, len(sets) - 1), keys), max_size=12)
    # the first set is asked for one syndrome, then for all of them; rows of
    # every set are mixed into each call
    calls = [
        [(0, data.draw(keys))] + [pair for pair in data.draw(rows) if pair[0]],
        [(0, key) for key in range(len(syndromes))] + data.draw(rows),
        data.draw(rows),
    ]
    # pairs packed into int64 keys, or held as (mask words, key) voids
    packed = data.draw(st.booleans())
    with contextlib.nullcontext() if packed else mock.patch.object(StabilizerCode, "_pair_span", None):
        one = StabilizerCode(p, n, code.stab.basis)
        assert bool(one._pair_span) == packed
        for pairs in calls:
            pairs = data.draw(st.permutations(pairs))
            mask = erasure_mask([sets[s] for s, _ in pairs], n)
            want = np.asarray([expected[s][key] for s, key in pairs]).reshape(-1, 2 * n)
            assert np.array_equal(one.decode(syndromes[[key for _, key in pairs]].reshape(-1, code.stab.dim), mask), want)


@SETTINGS
@given(extended_codes(), st.data())
def test_unerased_leaders_match_brute_force(case, data):
    code = case[0]
    p, n, m = code.p, code.n, code.stab.dim
    erased = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    expected, erased_expected = brute_force_leaders(code, frozenset()), brute_force_leaders(code, erased)
    syndromes = all_syndromes(code)
    keys = st.lists(st.integers(0, len(syndromes) - 1), min_size=1, max_size=20)
    pairs = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, len(syndromes) - 1)), min_size=1, max_size=30))
    mixed = syndromes[[key for _, key in pairs]].reshape(-1, m)
    mask = erasure_mask([erased if flag else frozenset() for flag, _ in pairs], n)
    want = np.asarray([erased_expected[key] if flag else expected[key] for flag, key in pairs]).reshape(-1, 2 * n)
    joins = []
    join = StabilizerCode._join

    def join_spy(self, keys, mask, rows, e):
        joins.append(e)
        return join(self, keys, mask, rows, e)

    # pairs packed into int64 keys, or held as (mask words, key) voids
    packed = data.draw(st.booleans())
    with contextlib.nullcontext() if packed else mock.patch.object(StabilizerCode, "_pair_span", None):
        with mock.patch.object(StabilizerCode, "_join", join_spy):
            # cold, then warm: a later call repeats some syndromes and meets new ones
            one = StabilizerCode(p, n, code.stab.basis)
            assert bool(one._pair_span) == packed
            for rows in (data.draw(keys), data.draw(keys)):
                assert np.array_equal(one.decode(syndromes[rows]), expected[rows])
            assert joins == []
            # mixed: rows of the empty set next to rows of an erased set, on
            # the warm code and on a cold one
            for decoder in (one, StabilizerCode(p, n, code.stab.basis)):
                assert np.array_equal(decoder.decode(mixed, mask), want)
            assert np.array_equal(one.decode_table(), expected)
            assert set(joins) <= {len(erased)}


def test_ties_go_to_the_lex_smallest_content_plus_class_row():
    # Z_0 Z_2 and Z_1 Z_2: X_0 (100|000) leads syndrome (1, 0). With qubit 1
    # erased, X_1 X_2 (011|000) ties with it at live weight 1 and is smaller,
    # though its content X_1 is not the smallest content, 0
    code = StabilizerCode(2, 3, [sp.from_string(g, 2) for g in ("000|101", "000|011")])
    assert sp.to_string(code.decode((1, 0))) == "100|000"
    assert sp.to_string(code.decode((1, 0), {1})) == "011|000"
    fresh = StabilizerCode(2, 3, code.stab.basis)
    got = fresh.decode([[1, 0], [1, 0]], erasure_mask([frozenset(), frozenset({1})], 3))
    assert [sp.to_string(row) for row in got] == ["100|000", "011|000"]
    for erased in (frozenset(), frozenset({1})):
        assert np.array_equal(fresh.decode(all_syndromes(code), erased), brute_force_leaders(code, erased))


@pytest.mark.parametrize("chunk_rows", [1, 3, 16])
def test_join_chunks_leave_leaders_unchanged(chunk_rows, monkeypatch):
    # every erased set of at most two of the five qubits, each asked for every
    # syndrome in one call: the empty set is read off the classes with no
    # join; a join takes as many whole sets as their 4^e contents fit the
    # chunk (one at least), lists contents and candidates about a chunk at a
    # time, and scans class rows a chunk at a time
    entry = next(e for e in builtin_catalog() if e.name == "five_qubit")
    code = StabilizerCode(entry.code.p, entry.code.n, entry.code.stab.basis)
    n = code.n
    sets = [frozenset(s) for size in range(3) for s in itertools.combinations(range(n), size)]
    syndromes = all_syndromes(code)
    pairs = list(itertools.product(range(len(sets)), range(len(syndromes))))
    order = np.random.default_rng(3).permutation(len(pairs))
    batch = syndromes[[pairs[i][1] for i in order]]
    mask = erasure_mask([sets[pairs[i][0]] for i in order], n)
    expected = [brute_force_leaders(code, erased) for erased in sets]
    want = np.asarray([expected[pairs[i][0]][pairs[i][1]] for i in order])
    monkeypatch.setattr(sp, "BLOCK_ENTRIES", chunk_rows * 2 * n)
    joins, scans = [], []
    join, first_clear = StabilizerCode._join, codes._first_clear

    def join_spy(self, keys, mask, rows, e):
        joins.append((e, len(rows)))
        return join(self, keys, mask, rows, e)

    def first_clear_spy(lo, hi, erased, bits, chunk):
        scans.append(chunk)
        return first_clear(lo, hi, erased, bits, chunk)

    monkeypatch.setattr(StabilizerCode, "_join", join_spy)
    monkeypatch.setattr(codes, "_first_clear", first_clear_spy)
    assert np.array_equal(code.decode(batch, mask), want)
    steps = []
    for e, count in ((1, 5), (2, 10)):
        per_join = max(1, chunk_rows // 4**e)
        steps += [(e, 16 * min(per_join, count - start)) for start in range(0, count, per_join)]
    assert joins == steps
    assert scans and set(scans) == {chunk_rows}


def test_decoder_counts_a_sets_contents_before_generating_them(monkeypatch):
    # two erased qubits carry 4^2 = 16 contents
    entry = next(e for e in builtin_catalog() if e.name == "five_qubit")
    code = StabilizerCode(entry.code.p, entry.code.n, entry.code.stab.basis)
    monkeypatch.setattr(codes, "ENUM_CAP", 15)
    with pytest.raises(FeasibilityError, match="16 weight-class vectors on them, over cap 15"):
        code.decode((0, 0, 0, 0), {0, 1})
    assert code._classes == []
    monkeypatch.setattr(codes, "ENUM_CAP", 16)
    assert not code.decode((0, 0, 0, 0), {0, 1}).any()


def test_decoder_refuses_the_largest_erased_set_before_joining_any(monkeypatch):
    # one call with an erased set of one qubit (4 contents) and one of two
    # (16): nothing is joined, so not even class 0 is built
    entry = next(e for e in builtin_catalog() if e.name == "five_qubit")
    code = StabilizerCode(entry.code.p, entry.code.n, entry.code.stab.basis)
    monkeypatch.setattr(codes, "ENUM_CAP", 15)
    mask = erasure_mask([{0}, {0, 1}], code.n)
    with pytest.raises(FeasibilityError, match="16 weight-class vectors on them, over cap 15"):
        code.decode(np.zeros((2, 4), dtype=np.int64), mask)
    assert code._classes == [] and len(code._cache_keys) == 0

@SETTINGS
@given(st.data())
def test_first_clear_matches_a_scan_of_each_range(data):
    bits = np.asarray(data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=30)), dtype=np.int64)
    bounds = st.integers(0, len(bits))
    ranges = data.draw(st.lists(st.tuples(bounds, bounds).map(sorted), max_size=12))
    erased = data.draw(st.lists(st.integers(0, 15), min_size=len(ranges), max_size=len(ranges)))
    lo = np.array([a for a, _ in ranges], dtype=np.int64)
    hi = np.array([b for _, b in ranges], dtype=np.int64)
    chunk = data.draw(st.integers(1, 8))
    got = codes._first_clear(lo, hi, np.asarray(erased, dtype=np.int64)[:, None], bits[:, None], chunk)
    want = [next((r for r in range(a, b) if not bits[r] & e), -1) for (a, b), e in zip(ranges, erased)]
    assert got.tolist() == want


@SETTINGS
@given(extended_codes(), st.data())
def test_pair_keys_sort_by_erased_set_then_syndrome(case, data):
    code = case[0]
    n = code.n
    rows = data.draw(st.integers(1, 20))
    mask = np.reshape(data.draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n)), (rows, n))
    syndromes = all_syndromes(code)
    syn = syndromes[data.draw(st.lists(st.integers(0, len(syndromes) - 1), min_size=rows, max_size=rows))]
    pairs = [(tuple(mask[i].tolist()), tuple(syn[i].tolist())) for i in range(rows)]
    want = sorted(range(rows), key=pairs.__getitem__)
    assert code._pair_span
    packed = code._pair_keys(mask, syn)
    with mock.patch.object(StabilizerCode, "_pair_span", None):
        voids = StabilizerCode(code.p, n, code.stab.basis)._pair_keys(mask, syn)
    for keys in (packed, voids):
        assert np.argsort(keys, kind="stable").tolist() == want
        assert all((keys[i] == keys[j]) == (pairs[i] == pairs[j]) for i in range(rows) for j in range(rows))


def test_cache_keys_hold_pairs_beyond_int64():
    # 251^7 syndrome keys fit int64, but read as a number the erasure mask {8}
    # is 2^8, and 2^8 * 251^7 does not: (erased set, syndrome) must not be packed
    p, n = 251, 9
    generators = np.hstack([np.zeros((7, n)), np.eye(n)[2:]]).astype(np.int64)
    code = StabilizerCode(p, n, generators)
    assert p**7 < 1 << 63 < 2**8 * p**7
    rows, sets, want = [], [], []
    for j, s in itertools.product(range(7), (0, 1, 7, 250)):
        # Z_{j+2} measures -a_{j+2}, so syndrome s in row j is led by X^{p-s} there
        syn = np.zeros(7, dtype=np.int64)
        syn[j] = s
        leader = np.zeros(2 * n, dtype=np.int64)
        leader[j + 2] = (p - s) % p
        rows.append(syn), sets.append(frozenset()), want.append(leader)
        if j == 6:
            # erasing position 8 makes that leader free: live weight 0
            rows.append(syn), sets.append(frozenset({8})), want.append(leader)
    order = np.random.default_rng(1).permutation(len(rows))
    rows, want = np.asarray(rows)[order], np.asarray(want)[order]
    mask = erasure_mask([sets[i] for i in order], n)
    assert np.array_equal(code.decode(rows, mask), want)
    fresh = StabilizerCode(p, n, generators)
    for erased in (frozenset(), frozenset({8})):
        keep = ~mask[:, 8] if not erased else mask[:, 8]
        assert np.array_equal(fresh.decode(rows[keep], erased), want[keep])


def postselects(n_total):
    return st.sampled_from(["none", "nonzero"] + [f"weight:{t}" for t in range(n_total + 1)])


@SETTINGS
@given(protocols(), st.data())
def test_batched_run_protocol_matches_single_vectors(case, data):
    spec, errors, sets = case
    code = spec.extended_code
    policy = PostSelect.parse(data.draw(postselects(code.n)))
    out = run_protocol(spec, ErrorPattern(errors, erasure_mask(sets, code.n)), policy)
    assert out.logical.shape == errors.shape
    if len(set(sets)) == 1:
        shared = run_protocol(spec, ErrorPattern(errors, sets[0]), policy)
        assert np.array_equal(shared.decoded, out.decoded)
        assert np.array_equal(shared.discarded, out.discarded)
    for r, (err, erased) in enumerate(zip(errors, sets)):
        one = run_protocol(spec, ErrorPattern(err, erased), policy)
        assert tuple(int(s) for s in out.combined_syndrome[r]) == one.combined_syndrome
        assert np.array_equal(out.decoded[r], one.decoded)
        assert tuple(int(x) for x in out.logical[r]) == one.logical.representative
        assert bool(out.success[r]) == one.success
        assert bool(out.discarded[r]) == one.discarded
        # reference: the scalar syndrome -> decode -> logical-class path
        syn = code.syndrome(err)
        decoded = code.decode(syn, erased)
        logical = code.logical_class((err - decoded) % code.p)
        assert one.combined_syndrome == syn
        assert np.array_equal(one.decoded, decoded)
        assert one.logical == logical and one.success == logical.is_identity
        weight = sp.symp_weight(decoded)
        expected = {"none": False, "nonzero": any(syn), "weight": weight > policy.threshold}
        assert one.discarded == expected[policy.mode]


def test_run_protocol_on_f251_sums_beyond_float32():
    """Over F_251 with n = 137, one stabilizer h = (1, -2, ..., -2 | 2, ..., 2)
    (RREF as it stands; its syndrome row is -2 on every column but one) and
    error entries mostly -1, the rest -2, mod 251, the exact syndrome sums
    run past 2^24, where float32 stops holding odd integers. The batched
    kernel must still match int64 references and the scalar syndrome ->
    decode -> logical-class path, with rows on the empty erased set and on
    two one-position sets."""
    p, n = 251, 137
    h = np.concatenate([[1], np.full(n - 1, p - 2), np.full(n, 2)])
    code = StabilizerCode(p, n, [h])
    assert np.array_equal(code.stab.basis[0], h)
    spec = BreedingProtocolSpec(code, frozenset(), EaqeccParams(p=p, n=n, gross_k=code.k, c=0, d=None))
    rng = np.random.default_rng(251)
    errors = rng.choice([p - 1, p - 2], size=(9, 2 * n), p=[0.9, 0.1])
    check = sp.syndrome_matrix(h[None, :], p)[0]
    # the first three rows sit on the empty erased set; decoding them needs
    # no class past weight 0, so position 0's a gives them a zero syndrome
    errors[:3, 0] = 0
    errors[:3, 0] = (-(errors[:3] @ check) * pow(int(check[0]), -1, p)) % p
    sets = [frozenset()] * 3 + [frozenset({7})] * 3 + [frozenset({100})] * 3
    sums = errors @ check
    assert sums.min() > 1 << 24 and np.any(sums % 2)
    out = run_protocol(spec, ErrorPattern(errors, erasure_mask(sets, n)))
    assert np.array_equal(out.combined_syndrome[:, 0], sums % p)
    assert not out.combined_syndrome[:3].any()
    for r, (err, erased) in enumerate(zip(errors, sets)):
        syn = code.syndrome(err)
        decoded = code.decode(syn, erased)
        logical = code.logical_class(err - decoded)
        residual = (err - decoded) % p
        assert out.combined_syndrome[r].tolist() == list(syn)
        assert np.array_equal(out.decoded[r], decoded)
        assert tuple(out.logical[r].tolist()) == logical.representative
        # int64 reference: h is the RREF basis, with its pivot on column 0
        assert np.array_equal(out.logical[r], (residual - residual[0] * h) % p)
        assert bool(out.success[r]) == logical.is_identity


def per_row_verify(spec):
    """(passed, patterns, counterexample error, its erased set) of the guarantee
    check, one run_protocol call per pattern, in (e, t, erased set, row) order."""
    code, d = spec.extended_code, spec.params.d
    noisy, p = spec.noisy_positions, spec.extended_code.p
    m = len(noisy)
    values = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    patterns = 0
    for e in range(min(d, m + 1)):
        for t in range(min((d - e - 1) // 2, m - e) + 1):
            for erased in itertools.combinations(noisy, e):
                rest = [i for i in noisy if i not in erased]
                for support in (erased + err for err in itertools.combinations(rest, t)):
                    for content in itertools.product(values, repeat=len(support)):
                        vec = np.zeros(2 * code.n, dtype=np.int64)
                        for pos, (a, b) in zip(support, content):
                            vec[pos], vec[code.n + pos] = a, b
                        patterns += 1
                        if not run_protocol(spec, ErrorPattern(vec, erased)).success:
                            return False, patterns, vec, frozenset(erased)
    return True, patterns, None, None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(extended_codes(), st.data())
def test_verify_matches_per_row_reference(case, data):
    code = case[0]
    assume(code.distance is not None)
    ebits = data.draw(st.frozensets(st.integers(0, code.n - 1), max_size=code.n - 1))
    # the true distance (for random ebits it may pass or fail), then overstated
    claimed = code.distance + data.draw(st.sampled_from([0, 1, 2]))
    params = EaqeccParams(p=code.p, n=code.n - len(ebits), gross_k=code.k, c=len(ebits), d=claimed)
    spec = BreedingProtocolSpec(code, ebits, params)
    m, q = params.n, code.p**2
    assume(
        sum(
            comb(m, e) * comb(m - e, t) * (q - 1) ** (e + t)
            for e in range(min(claimed, m + 1))
            for t in range(min((claimed - e - 1) // 2, m - e) + 1)
        )
        <= 2000
    )
    check_verify_against_reference(spec, data.draw(st.sampled_from([1, 5, 64, None])))


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
@pytest.mark.parametrize("ebits", [(), (0,), (1, 3)])
@pytest.mark.parametrize("overstated", [0, 1, 2])
def test_verify_matches_per_row_reference_on_catalog_codes(entry, ebits, overstated):
    code = entry.code
    params = EaqeccParams(
        p=code.p, n=code.n - len(ebits), gross_k=code.k, c=len(ebits), d=entry.d + overstated
    )
    check_verify_against_reference(BreedingProtocolSpec(code, frozenset(ebits), params), 7)


@pytest.mark.parametrize("block_rows", [2, 7, None])
def test_verify_counterexample_on_a_later_erased_set(block_rows):
    # d = 2 first fails with position 1 erased, after the rows of erased set {0}
    code = StabilizerCode(2, 4, [sp.from_string(g, 2) for g in ("1011|1000", "0100|1101")])
    spec = BreedingProtocolSpec(code, frozenset(), EaqeccParams(p=2, n=4, gross_k=code.k, c=0, d=2))
    passed, patterns, _, erased = per_row_verify(spec)
    assert (passed, patterns, erased) == (False, 6, frozenset({1}))
    check_verify_against_reference(spec, block_rows)


def test_decoder_cap_counts_every_class_generated(monkeypatch):
    # Z_0, Z_1 on three qubits: syndrome (1, 1) is led by X_0 X_1, of weight 2;
    # the classes of weight 0, 1, 2 hold 1, 9 and 27 vectors
    generators = [sp.from_string(g, 2) for g in ("000|100", "000|010")]
    monkeypatch.setattr(codes, "ENUM_CAP", 37)
    assert StabilizerCode(2, 3, generators).decode((1, 1)).tolist() == [1, 1, 0, 0, 0, 0]
    monkeypatch.setattr(codes, "ENUM_CAP", 36)
    with pytest.raises(FeasibilityError, match="37 weight-class vectors"):
        StabilizerCode(2, 3, generators).decode((1, 1))
    # the count carries over from an earlier call that stopped at weight 1
    code = StabilizerCode(2, 3, generators)
    assert code.decode((1, 0)).tolist() == [1, 0, 0, 0, 0, 0]
    with pytest.raises(FeasibilityError, match="37 weight-class vectors"):
        code.decode([[1, 1], [0, 1]])


def check_verify_against_reference(spec, block_rows):
    """verify_guarantee, with blocks of block_rows rows (None: the default
    blocks), gives the verdict, pattern count and counterexample of the
    per-row reference."""
    passed, patterns, error, erased = per_row_verify(spec)
    # small blocks split the rows of one (e, t) and of one erased set across kernel calls
    block_entries = block_rows * 2 * spec.extended_code.n if block_rows else sp.BLOCK_ENTRIES
    with mock.patch.object(sp, "BLOCK_ENTRIES", block_entries):
        cert = verify_guarantee(spec)
    assert (cert.passed, cert.patterns) == (passed, patterns)
    if not passed:
        assert np.array_equal(cert.counterexample.error, error)
        assert cert.counterexample.erased == erased
