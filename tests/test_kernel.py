"""The weight-class enumerator, and the distance, purity, coset-leader decoder,
guarantee check and batched protocol kernel built on it, against slow references.

Codes are random self-orthogonal extensions (``symp_extend``) of random
subspaces over p in {2, 3, 5}, small enough that F_p^{2n} can be listed.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from breedsim import symplectic as sp
from breedsim.breeding import BreedingProtocolSpec, EaqeccParams, convert_pure, eaqecc_distance
from breedsim.catalog import builtin_catalog
from breedsim.codes import StabilizerCode
from breedsim.engine import ErrorPattern, PostSelect, run_protocol, verify_guarantee

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
    """A breeding spec built from a random subspace, plus random error rows and an erased set."""
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
    erased = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return spec, errors, erased


def all_syndromes(code):
    """Every syndrome of the code as rows, in mixed-radix key order."""
    m = code.stab.dim
    return np.asarray(list(itertools.product(range(code.p), repeat=m)), dtype=np.int64).reshape(-1, m)


def brute_force_leaders(code, erased):
    """Leader of every syndrome, in key order, by listing all of F_p^{2n}: the
    minimum weight off the erased positions, then the lex-smallest (a|b)."""
    p, n = code.p, code.n
    live = [i for i in range(n) if i not in erased]
    best = {}
    for vec in itertools.product(range(p), repeat=2 * n):
        syn = tuple(code.syndrome(np.asarray(vec)))
        weight = sum(1 for i in live if vec[i] or vec[n + i])
        best[syn] = min(best.get(syn, (weight, vec)), (weight, vec))
    return np.asarray([best[tuple(s)][1] for s in all_syndromes(code)], dtype=np.int64)


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


def postselects(n_total):
    return st.sampled_from(["none", "nonzero"] + [f"weight:{t}" for t in range(n_total + 1)])


@SETTINGS
@given(protocols(), st.data())
def test_batched_run_protocol_matches_single_vectors(case, data):
    spec, errors, erased = case
    code = spec.extended_code
    policy = PostSelect.parse(data.draw(postselects(code.n)))
    out = run_protocol(spec, ErrorPattern(errors, erased), policy)
    assert out.logical.shape == errors.shape
    for r, err in enumerate(errors):
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
