import gc
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breedsim import codes, search
from breedsim import fieldmath as fm
from breedsim import symplectic as sp
from breedsim.codes import FeasibilityError, StabilizerCode
from breedsim.search import SearchQuery, SearchResult, search_codes


def validate_witness(result: SearchResult, q: SearchQuery):
    rows = [sp.from_string(text, q.p) for text in result.witness]
    code = StabilizerCode(q.p, q.n, rows)
    assert code.k == q.k
    assert code.distance is not None and code.distance >= q.d_min
    if q.purity_required:
        assert code.is_pure
    return code


def test_no_532_code_exhaustive():
    result = search_codes(SearchQuery(2, 5, 3, 2))
    assert result.verdict == "not_exists"
    assert result.nodes > 0


def test_642_exists():
    q = SearchQuery(2, 6, 4, 2)
    result = search_codes(q)
    assert result.verdict == "exists"
    validate_witness(result, q)


def test_422_exists_with_purity():
    q = SearchQuery(2, 4, 2, 2, purity_required=True)
    result = search_codes(q)
    assert result.verdict == "exists"
    validate_witness(result, q)


def test_k_zero_never_matches():
    # dim C = n forces an empty dual complement: undefined distance
    assert search_codes(SearchQuery(2, 1, 0, 1)).verdict == "not_exists"


def test_catalog_codes_are_found():
    from breedsim.catalog import builtin_catalog

    for entry in builtin_catalog():
        code = entry.code
        if code.n - code.k > 2:  # keep the naive feasibility bound happy
            continue
        q = SearchQuery(code.p, code.n, code.k, entry.d)
        result = search_codes(q)
        assert result.verdict == "exists"
        validate_witness(result, q)


def test_budget_exhaustion_is_inconclusive():
    result = search_codes(SearchQuery(2, 5, 3, 2, budget=100))
    assert result.verdict == "inconclusive"
    assert result.nodes > 100


def test_feasibility_refusal():
    with pytest.raises(FeasibilityError):
        search_codes(SearchQuery(2, 8, 3, 3))


def test_power_exceeds_is_exact():
    assert not search._power_exceeds(10, 8, 10**8)
    assert search._power_exceeds(10, 9, 10**8)
    assert not search._power_exceeds(2, 0, 1)
    # 2^(2 * 30 * 29) is far outside float range; the answer comes after 27 products
    assert search._power_exceeds(2, 2 * 30 * 29, 10**8)
    assert not search._power_exceeds(2, 26, 10**8) and search._power_exceeds(2, 27, 10**8)


def test_search_leaves_no_reference_cycle():
    # the DFS closure refers to itself; a cycle would keep the vector table
    # alive until a later gc pass
    for params in [(2, 4, 2, 2), (2, 5, 3, 2), (2, 5, 3, 2, False, 100)]:
        gc.collect()
        result = search_codes(SearchQuery(*params))
        assert gc.collect() == 0, result


def test_query_validation():
    with pytest.raises(ValueError):
        SearchQuery(2, 3, 3, 1)  # n - k must be >= 1
    with pytest.raises(ValueError):
        SearchQuery(2, 3, 1, 0)


@pytest.mark.parametrize("budget", [0, -5])
def test_query_refuses_a_budget_below_one(budget):
    # as ``search --budget`` does; such a query used to end inconclusive at one node
    with pytest.raises(ValueError, match="budget"):
        SearchQuery(2, 5, 3, 2, budget=budget)
    assert SearchQuery(2, 5, 3, 2, budget=1).budget == 1


def test_trivial_distance_one_exists():
    q = SearchQuery(2, 2, 1, 1)
    result = search_codes(q)
    assert result.verdict == "exists"
    validate_witness(result, q)


def reference_search(q: SearchQuery) -> SearchResult:
    """The same DFS and node count, but every leaf candidate is checked by
    building its code and reading ``distance`` and ``is_pure``."""
    p, n, m = q.p, q.n, q.n - q.k
    if q.k == 0:
        return SearchResult("not_exists", 0)
    vectors = np.array(list(itertools.product(range(p), repeat=2 * n)), dtype=np.int64)
    nonzero = vectors.any(axis=1)
    first_nz = np.where(nonzero, np.argmax(vectors != 0, axis=1), 2 * n)
    monic = nonzero & (vectors[np.arange(len(vectors)), np.minimum(first_nz, 2 * n - 1)] == 1)
    nodes = 0

    def candidates(chosen, last):
        mask = monic & (first_nz > last)
        if len(chosen):
            mask &= (chosen[:, np.minimum(first_nz, 2 * n - 1)] == 0).all(axis=0)
            mask &= (sp.pairwise_products(chosen, vectors, p) == 0).all(axis=0)
        return np.flatnonzero(mask)

    def dfs(chosen, last):
        nonlocal nodes
        idx = candidates(chosen, last)
        if len(chosen) == m - 1:
            nodes += len(idx)
            if nodes > q.budget:
                return None
            for i in idx:
                code = StabilizerCode(p, n, list(chosen) + [vectors[i]])
                if code.distance is None or code.distance < q.d_min:
                    continue
                if q.purity_required and not code.is_pure:
                    continue
                return tuple(sp.to_string(r) for r in code.stab.basis)
            return None
        for i in idx:
            nodes += 1
            if nodes > q.budget:
                return None
            witness = dfs(np.vstack([chosen, vectors[i]]), first_nz[i])
            if witness is not None or nodes > q.budget:
                return witness
        return None

    witness = dfs(np.zeros((0, 2 * n), dtype=np.int64), -1)
    if witness is not None:
        return SearchResult("exists", nodes, witness)
    return SearchResult("inconclusive" if nodes > q.budget else "not_exists", nodes)


#: (p, n, k, largest d_min) of the reference grid; every d_min from 1 up is queried
REFERENCE_GRID = [
    (2, 1, 0, 2), (2, 2, 1, 3), (2, 3, 1, 4), (2, 3, 2, 4), (2, 4, 1, 2), (2, 4, 2, 2),
    (2, 4, 3, 3), (3, 2, 1, 3), (3, 3, 1, 2), (3, 3, 2, 4), (5, 2, 1, 3),
]


@pytest.mark.parametrize("pure", [False, True])
@pytest.mark.parametrize("p, n, k, d_max", REFERENCE_GRID)
def test_matches_reference_search(p, n, k, d_max, pure):
    for d_min in range(1, d_max + 1):
        q = SearchQuery(p, n, k, d_min, purity_required=pure)
        assert search_codes(q) == reference_search(q), d_min


def test_matches_reference_search_under_budget():
    for budget in (1, 40, 300):
        q = SearchQuery(2, 4, 2, 2, budget=budget)
        assert search_codes(q) == reference_search(q)


@pytest.mark.parametrize("params", [(2, 2, 1, 1), (2, 3, 2, 1), (3, 2, 1, 1), (2, 4, 3, 2)])
def test_budget_runs_out_on_the_leaves_of_an_n_minus_k_1_search(params):
    # the root's leaves cost one spend; a budget below it checks none of them,
    # even where a witness sits among them
    found = search_codes(SearchQuery(*params))
    for budget in (1, found.nodes - 1, found.nodes):
        q = SearchQuery(*params, budget=budget)
        assert search_codes(q) == reference_search(q), budget


@pytest.mark.parametrize("params", [(3, 3, 1, 2), (2, 4, 2, 2)])
def test_budget_runs_out_inside_sibling_groups(params):
    # the witness's node count less one runs out on the leaves of its own child
    found = search_codes(SearchQuery(*params))
    assert found.verdict == "exists"
    for budget in [*range(1, 400, 37), found.nodes - 1, found.nodes]:
        q = SearchQuery(*params, budget=budget)
        assert search_codes(q) == reference_search(q), budget


@pytest.mark.parametrize(
    "params, nodes", [((2, 5, 3, 2), 87_978), ((3, 4, 2, 3), 301_760), ((2, 6, 4, 3), 1_400_490)]
)
def test_certificate_node_counts(params, nodes):
    assert search_codes(SearchQuery(*params)) == SearchResult("not_exists", nodes)


def first_total_past(spends, budget):
    """The running total of spends at the first spend that takes it past budget."""
    total = 0
    for spend in spends:
        total += spend
        if total > budget:
            return total
    raise AssertionError("the budget is never passed")


@pytest.mark.parametrize("params", [(3, 4, 2, 3), (2, 5, 3, 2)])
def test_budget_runs_out_inside_root_blocks(params):
    # n - k = 2: the root is the only sibling group. Its children are costed
    # a block at a time, and at the [[4,2,3]]_3 root the bound retires every
    # one of them; budgets that run out on a child, or on its leaves, in the
    # middle of a block end there
    p, n, _, d_min = params
    table = search._VectorTable(p, n, d_min)
    root = np.zeros((0, 2 * n), dtype=np.int64)
    kids = table.candidates(root, [])
    spends = []
    for u in kids:  # the child's node, then one per leaf under it
        spends += [1, len(table.candidates(table.vectors[[u]].astype(np.int64), [int(table.first_nz[u])]))]
    prefix = np.cumsum(spends)
    blocks = sibling_group(table, root, []).blocks(kids)
    assert len(blocks) > 1
    for block in blocks[:3]:
        # the first child past the middle of the block with leaves under it
        j = next(j for j in range((block.start + block.stop) // 2, block.stop - 1) if spends[2 * j + 1] > 1)
        for budget in [prefix[2 * j] - 1, prefix[2 * j], prefix[2 * j] + spends[2 * j + 1] // 2]:
            expected = first_total_past(spends, budget)
            assert search_codes(SearchQuery(*params, budget=int(budget))) == SearchResult("inconclusive", expected)


def test_leaf_filter_in_blocks_of_one_candidate(monkeypatch):
    monkeypatch.setattr(sp, "BLOCK_ENTRIES", 1)
    for params in [(2, 4, 3, 2), (2, 3, 1, 2), (3, 3, 1, 2)]:
        q = SearchQuery(*params)
        assert search_codes(q) == reference_search(q)


def test_vector_table_reads_the_cap_at_call_time(monkeypatch):
    # F_2^6 has 64 vectors
    monkeypatch.setattr(codes, "ENUM_CAP", 64)
    assert len(search._VectorTable(2, 3, 2).vectors) == 64
    monkeypatch.setattr(codes, "ENUM_CAP", 63)
    with pytest.raises(FeasibilityError, match="vector table of size 2\\^6 exceeds cap 63"):
        search._VectorTable(2, 3, 2)


def test_float32_products_refused_when_inexact():
    # 2n (p - 1)^2 >= 2^24 for n = 135 over F_251
    with pytest.raises(FeasibilityError, match="float32"):
        search._partner_rows(np.zeros((1, 270), dtype=np.int64), 251)


@st.composite
def table_rows(draw):
    """A vector table over p in {2, 3, 5} and two lists of its vectors, as
    the uint8 rows the search reads."""
    p = draw(st.sampled_from([2, 3, 5]))
    table = search._VectorTable(p, draw(st.integers(1, {2: 4, 3: 3, 5: 2}[p])), 1)
    picks = st.lists(st.integers(0, len(table.vectors) - 1), max_size=12)
    return table, table.vectors[draw(picks)], table.vectors[draw(picks)]


@settings(max_examples=80, deadline=None)
@given(table_rows())
def test_fast_orthogonality_matches_pairwise_products(case):
    # the float32 partner-row products and the int64 form products, bit for
    # bit against the exact symplectic products
    table, rows, others = case
    exact = sp.pairwise_products(rows.astype(np.int64), others.astype(np.int64), table.p) == 0
    assert np.array_equal(table.orthogonal(rows, others), exact)
    assert np.array_equal(table.orthogonal_to(rows, others.astype(np.int64)), exact.all(axis=1))


def carried_basis(table, chosen):
    """The basis ``search_codes`` carries down to the node of the RREF rows
    chosen: the identity, narrowed by each row in turn."""
    basis = np.eye(2 * table.n, dtype=np.int64)
    for row in chosen:
        (basis,) = table.narrowed(basis, np.array([row @ table.radix]))
    return basis


def kernel_basis(table, chosen, pivots):
    """The RREF basis, from ``fm.kernel``, of the vectors zero up to the last
    chosen pivot and orthogonal to every chosen row."""
    last = pivots[-1] if len(pivots) else -1
    constraints = np.vstack([np.eye(2 * table.n, dtype=np.int64)[: last + 1], sp.syndrome_matrix(chosen, table.p)])
    return fm.kernel(constraints, table.p)


def sibling_group(table, chosen, pivots):
    """The sibling group under the RREF rows chosen, with every candidate as a
    leaf and the basis ``search_codes`` would carry there."""
    leaves = table.candidates(chosen, pivots)
    return search._SiblingGroup(table, chosen, pivots, carried_basis(table, chosen), leaves)


def leaf_survivors(table, chosen, pivots):
    """Per candidate c after the RREF rows chosen: chosen + c has distance
    >= d_min. The sibling-group filter on the one child that adds no row."""
    group = sibling_group(table, chosen, pivots)
    ok = np.zeros(len(group.leaves), dtype=bool)
    ok[group.survivors(np.zeros(1, dtype=np.int64))[1]] = True
    return ok


def check_leaf_filter(p, n, chosen_rows, d_min, limit=None):
    """Compare the leaf filter after the RREF basis of chosen_rows with each
    candidate code's exact distance; returns the candidates that pass."""
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    if chosen_rows:
        basis, pivots = fm.rref(np.vstack(chosen_rows), p)
        chosen = basis[: len(pivots)]
    table = search._VectorTable(p, n, d_min)
    idx, ok = table.candidates(chosen, pivots), leaf_survivors(table, chosen, pivots)
    if limit is not None:
        stride = max(1, len(idx) // limit)
        idx, ok = idx[::stride], ok[::stride]
    for i, passed in zip(idx, ok):
        code = StabilizerCode(p, n, list(chosen) + [table.vectors[i]])
        assert passed == (code.distance is not None and code.distance >= d_min), table.vectors[i]
    return [sp.to_string(table.vectors[i]) for i in idx[ok]]


#: impure codes of distance 2: (p, RREF rows in DFS order, last row)
IMPURE_CODES = [
    # [[4,2,2]] on qubits 2-5 plus Z_1: a chosen row of weight 1 reduces to zero
    (2, ["01111|00000", "00000|10000"], "00000|01111"),
    # [[3,1,2]]_3 plus Z_4: the leaf's multiple 2 Z_4 has weight 1
    (3, ["1000|0110", "0110|2000"], "0000|0001"),
]


@pytest.mark.parametrize("p, chosen, leaf", IMPURE_CODES)
def test_leaf_filter_keeps_impure_codes(p, chosen, leaf):
    rows = [sp.from_string(g, p) for g in chosen]
    assert leaf in check_leaf_filter(p, len(leaf) // 2, rows, 2)


def passing_leaves(table, parent, pivots, kid_row):
    """The leaves under the child kid_row of the RREF rows parent that pass
    the sibling-group filter."""
    group = sibling_group(table, parent, pivots)
    kid_pos, leaf_pos = group.survivors(np.array([kid_row @ table.radix]))
    assert not kid_pos.any()
    return [sp.to_string(table.vectors[i]) for i in group.leaves[leaf_pos]]


@pytest.mark.parametrize("p, chosen, leaf", IMPURE_CODES)
def test_sibling_group_keeps_impure_codes(p, chosen, leaf):
    # the last chosen row is the child; in the first case it is the weight-1
    # Z_1, so mu counts it
    rows = [sp.from_string(g, p) for g in chosen]
    table = search._VectorTable(p, len(leaf) // 2, 2)
    pivots = [int(np.argmax(r != 0)) for r in rows[:-1]]
    assert leaf in passing_leaves(table, np.array(rows[:-1]), pivots, rows[-1])


def test_sibling_group_reduces_by_the_child():
    # Shor's [[9,1,3]] code; its RREF ends with Z_7 Z_9 and Z_8 Z_9, and the
    # weight-2 stabilizer Z_7 Z_8 reduces by the child Z_7 Z_9 to the leaf
    n = 9
    xs = ["111111000", "000111111"]
    zs = ["110000000", "011000000", "000110000", "000011000", "000000110", "000000011"]
    rows = [sp.from_string(f"{x}|{'0' * n}", 2) for x in xs]
    rows += [sp.from_string(f"{'0' * n}|{z}", 2) for z in zs]
    basis, pivots = fm.rref(np.array(rows), 2)
    kid, leaf = sp.to_string(basis[6]), sp.to_string(basis[7])
    assert [kid, leaf] == ["000000000|000000101", "000000000|000000011"]
    table = search._VectorTable(2, n, 3)
    assert leaf in passing_leaves(table, basis[:6], pivots[:6], basis[6])


#: largest n per field for the random leaf-filter check (p^(2n) <= 729)
LEAF_MAX_N = {2: 4, 3: 3, 5: 2}


@st.composite
def chosen_rows(draw):
    """Up to n - 2 chosen rows over p in {2, 3, 5}, each drawn among the DFS
    candidates after the previous ones, plus a d_min."""
    p = draw(st.sampled_from(sorted(LEAF_MAX_N)))
    n = draw(st.integers(2, LEAF_MAX_N[p]))
    d_min = draw(st.integers(1, n + 1))
    table = search._VectorTable(p, n, d_min)
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    for _ in range(draw(st.integers(0, n - 2))):
        idx = table.candidates(chosen, pivots)
        if len(idx) == 0:
            break
        i = idx[draw(st.integers(0, len(idx) - 1))]
        chosen = np.vstack([chosen, table.vectors[i]])
        pivots.append(int(table.first_nz[i]))
    return p, n, list(chosen), d_min


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chosen_rows())
def test_leaf_filter_matches_exact_distance(case):
    p, n, rows, d_min = case
    check_leaf_filter(p, n, rows, d_min, limit=24)


def filtered_blocks(group, kids):
    """Each block of kids with its leaf candidates, its survivor pairs and
    the same survivors as a dense (kids, leaves) mask, in the blocks of
    ``search_codes``."""
    for block in group.blocks(kids):
        cand = group.leaf_candidates(kids[block])
        pairs = group.survivors(kids[block])
        ok = np.zeros_like(cand)
        ok[pairs] = True
        yield kids[block], cand, pairs, ok


#: largest n per field for the random sibling-group check (p^(2n) <= 15625)
GROUP_MAX_N = {2: 4, 3: 4, 5: 3}


@st.composite
def sibling_groups(draw):
    """A parent of at most n - 3 rows drawn among the DFS candidates, so
    every leaf code has k >= 1; up to five of its children in random order;
    a d_min and a block size."""
    p = draw(st.sampled_from(sorted(GROUP_MAX_N)))
    n = draw(st.integers(3, GROUP_MAX_N[p]))
    d_min = draw(st.integers(1, n + 1))
    table = search._VectorTable(p, n, d_min)
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    for _ in range(draw(st.integers(0, n - 3))):
        idx = table.candidates(chosen, pivots)
        if len(idx) == 0:
            break
        i = idx[draw(st.integers(0, len(idx) - 1))]
        chosen = np.vstack([chosen, table.vectors[i]])
        pivots.append(int(table.first_nz[i]))
    idx = table.candidates(chosen, pivots).tolist()
    kids = draw(st.lists(st.sampled_from(idx), max_size=5, unique=True)) if idx else []
    block_entries = draw(st.sampled_from([1, 7, 64, sp.BLOCK_ENTRIES]))
    return p, n, d_min, chosen, pivots, np.array(kids, dtype=np.int64), block_entries


@st.composite
def ordered_sibling_groups(draw):
    """A parent and d_min as in ``sibling_groups``; its children are the zero
    child alone (the root of an m = 1 search) or up to six consecutive
    candidates, in ascending or descending order; a block size, where 2^12
    splits a block of several children into several leaf chunks."""
    p, n, d_min, chosen, pivots, _, _ = draw(sibling_groups())
    block_entries = draw(st.sampled_from([1, 7, 64, 1 << 12, sp.BLOCK_ENTRIES]))
    idx = search._VectorTable(p, n, d_min).candidates(chosen, pivots)
    order = draw(st.sampled_from(["zero", "asc", "desc"]))
    if order == "zero" or len(idx) == 0:
        kids = np.zeros(1, dtype=np.int64)
    else:
        start = draw(st.integers(0, len(idx) - 1))
        kids = idx[start : start + draw(st.integers(1, 6))]
        kids = kids if order == "asc" else kids[::-1]
    return p, n, d_min, chosen, pivots, kids, block_entries


def check_per_vector(table, chosen, pivots, kids):
    """Filter kids' leaves with ``filtered_blocks`` and compare each block
    with ``per_vector_filter``: the same candidates and the same survivor
    pairs in the same order; the group's tables, built in those blocks, are
    compared with ``per_vector_tables``."""
    group = sibling_group(table, chosen, pivots)
    leaves = group.leaves
    blocks = list(filtered_blocks(group, kids))
    check_tables(group, chosen, kids)
    survived = 0
    for block, cand, (kid_pos, leaf_pos), _ in blocks:
        ref_cand, ref_ok = per_vector_filter(table, chosen, leaves, block)
        width = cand.shape[1]
        assert np.array_equal(cand, ref_cand[:, :width]) and not ref_cand[:, width:].any()
        ref_j, ref_c = np.nonzero(ref_ok)
        assert kid_pos.tolist() == ref_j.tolist() and leaf_pos.tolist() == ref_c.tolist()
        survived += len(kid_pos)
    return len(blocks), survived


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ordered_sibling_groups())
def test_leaf_filter_matches_per_vector_reference(case):
    p, n, d_min, chosen, pivots, kids, block_entries = case
    # the table is built at the default block size, as the strategies build theirs
    table = search._VectorTable(p, n, d_min)
    with mock.patch.object(sp, "BLOCK_ENTRIES", block_entries):
        check_per_vector(table, chosen, pivots, kids)


@pytest.mark.parametrize("order", ["asc", "desc"])
@pytest.mark.parametrize("block_entries", [64, 256, 1024])
@pytest.mark.parametrize(
    "p, n, d_min, chosen_rows", [(2, 6, 2, []), (3, 4, 2, ["1100|0200"]), (2, 5, 2, [])]
)
def test_leaf_filter_matches_per_vector_reference_on_wide_groups(
    p, n, d_min, chosen_rows, block_entries, order, monkeypatch
):
    # the roots of [[6,4,2]]_2 (witnesses) and [[5,3,2]]_2 (open pairs, none
    # pass) and a repeated-row group over F_3, about 48 children each
    monkeypatch.setattr(sp, "BLOCK_ENTRIES", block_entries)
    group, chosen = group_under(p, n, d_min, chosen_rows)
    pivots = [int(np.argmax(r != 0)) for r in chosen]
    kids = group.leaves[:: max(1, len(group.leaves) // 48)]
    blocks, survived = check_per_vector(group.table, chosen, pivots, kids if order == "asc" else kids[::-1])
    assert blocks > 1 and (survived > 0) == (n != 5)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sibling_groups())
def test_sibling_group_matches_candidates_and_exact_distance(case):
    p, n, d_min, chosen, pivots, kids, block_entries = case
    table = search._VectorTable(p, n, d_min)
    with mock.patch.object(sp, "BLOCK_ENTRIES", block_entries):
        group = sibling_group(table, chosen, pivots)
        blocks = list(filtered_blocks(group, kids))
    leaves = group.leaves
    assert [int(kid) for block, *_ in blocks for kid in block] == kids.tolist()
    for block, cand, _, ok in blocks:
        assert not (ok & ~cand).any()
        for kid, kid_cand, kid_ok in zip(block, cand, ok):
            rows = np.vstack([chosen, table.vectors[kid]])
            expected = table.candidates(rows, pivots + [int(table.first_nz[kid])])
            assert leaves[: len(kid_cand)][kid_cand].tolist() == expected.tolist()
            cols = np.flatnonzero(kid_cand)
            for col in cols[:: max(1, len(cols) // 6)]:
                code = StabilizerCode(p, n, list(rows) + [table.vectors[leaves[col]]])
                assert kid_ok[col] == (code.distance >= d_min), table.vectors[leaves[col]]


@st.composite
def counted_groups(draw):
    """A node of up to n - 1 rows over p in {2, 3, 5}, each drawn among the
    DFS candidates after the previous ones; the zero child and up to 40 of
    the node's children, in random order."""
    p = draw(st.sampled_from(sorted(GROUP_MAX_N)))
    n = draw(st.integers(1, GROUP_MAX_N[p]))
    table = search._VectorTable(p, n, draw(st.integers(1, 2)))
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    for _ in range(draw(st.integers(0, n - 1))):
        idx = table.candidates(chosen, pivots)
        if len(idx) == 0:
            break
        i = idx[draw(st.integers(0, len(idx) - 1))]
        chosen = np.vstack([chosen, table.vectors[i]])
        pivots.append(int(table.first_nz[i]))
    idx = table.candidates(chosen, pivots).tolist()
    kids = draw(st.lists(st.sampled_from(idx), max_size=40, unique=True)) if idx else []
    return table, chosen, pivots, np.array([0, *kids], dtype=np.int64)


def check_leaf_counts(table, chosen, pivots, kids):
    """The carried basis is the RREF basis from ``fm.kernel``; the closed-form
    count of every child is its row of leaf candidates and the number of
    ``candidates(chosen + u)``; the zero child's count is every leaf."""
    basis = carried_basis(table, chosen)
    assert basis.tolist() == kernel_basis(table, chosen, pivots).tolist()
    group = sibling_group(table, chosen, pivots)
    counts = group.leaf_counts(kids)
    assert counts.tolist() == group.leaf_candidates(kids).sum(axis=1).tolist()
    for u, count in zip(kids, counts):
        rows, below = (np.vstack([chosen, table.vectors[u]]), pivots + [int(table.first_nz[u])]) if u else (chosen, pivots)
        assert count == len(table.candidates(rows, below)), u
    assert counts[kids == 0].tolist() == [len(group.leaves)] * int((kids == 0).sum())
    return group


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(counted_groups())
def test_leaf_counts_in_closed_form(case):
    check_leaf_counts(*case)


#: DFS nodes whose rows are nonzero on a pivot column of the space V after
#: them, so that no leaf pivots there: (p, RREF rows)
CLOSED_CLASS_NODES = [
    # V: x_0 = 0 and x_1 = x_3, with pivots 1, 2, 4 and 5; the row is nonzero on 4
    (2, ["100|010"]),
    (3, ["1020|0100", "0100|2010"]),
    (5, ["13|41"]),
]


@pytest.mark.parametrize("p, rows", CLOSED_CLASS_NODES)
def test_leaf_counts_skip_pivots_no_leaf_has(p, rows):
    n = len(rows[0]) // 2
    basis, pivots = fm.rref(np.array([sp.from_string(g, p) for g in rows]), p)
    chosen = basis[: len(pivots)]
    table = search._VectorTable(p, n, 1)
    classes = np.argmax(kernel_basis(table, chosen, pivots) != 0, axis=1)
    assert chosen[:, classes].any()
    kids = np.concatenate([[0], table.candidates(chosen, pivots)])
    check_leaf_counts(table, chosen, pivots, kids)


def per_vector_s(table, chosen):
    """S vector by vector: the distinct low-weight rows orthogonal to the RREF
    rows chosen, reduced against them, as vector indices with multiplicities;
    rows inside span(chosen) reduce to zero and are dropped."""
    p = table.p
    sel = table.low_weight
    if len(chosen) and len(sel):
        sel = sel[(sp.pairwise_products(sel, chosen, p) == 0).all(axis=1)]
        sel = fm.reduce_rows(chosen, [int(np.argmax(r != 0)) for r in chosen], sel, p)
    weight = np.bincount(sel @ table.radix, minlength=len(table.vectors))
    weight[0] = 0
    rows = np.flatnonzero(weight)
    return rows, weight[rows]


def orthogonal_flags(a, b, p):
    """[i, j]: <a[i], b[j]>_s = 0, from float64 products (exact far below
    2^53), 1024 rows of a at a time."""
    b = b.astype(np.float64)
    n = b.shape[1] // 2
    flags = np.empty((len(a), len(b)), dtype=bool)
    for start in range(0, len(a), 1024):
        x = a[start : start + 1024].astype(np.float64)
        flags[start : start + len(x)] = (x[:, :n] @ b[:, n:].T - x[:, n:] @ b[:, :n].T).astype(np.int64) % p == 0
    return flags


def per_vector_filter(table, chosen, leaves, kids):
    """The leaf filter pair by pair, over every leaf: dense (kids, leaves)
    masks of the leaf candidates and of the survivors. A candidate c of child
    u passes iff the weight of S (distinct rows with multiplicities, tested
    against this block's kids) orthogonal to u and c equals its weight on
    span(u, c), summed vector by vector."""
    p = table.p
    rows, weight = per_vector_s(table, chosen)
    dense = np.zeros(len(table.vectors), dtype=np.int64)
    dense[rows] = weight
    u, c = table.vectors[kids].astype(np.int64), table.vectors[leaves].astype(np.int64)
    pivot_u, pivot_c = table.first_nz[kids].astype(np.int64), table.first_nz[leaves].astype(np.int64)
    cand = (pivot_c > pivot_u[:, None]) & (u[:, pivot_c] == 0) & orthogonal_flags(u, c, p)
    at = np.flatnonzero(cand.any(axis=0))  # the leaves under some child
    s_rows = table.vectors[rows]
    gram = (orthogonal_flags(s_rows, u, p).T * weight) @ orthogonal_flags(s_rows, c[at], p).astype(np.float64)
    on_span = np.zeros_like(gram)
    for j, kid in enumerate(kids):
        for a in range(p) if kid else [0]:  # span(0, c) is the line of c
            for b in range(p):
                on_span[j] += dense[(a * u[j] + b * c[at]) % p @ table.radix]
    ok = np.zeros_like(cand)
    ok[:, at] = cand[:, at] & (gram == on_span)
    return cand, ok


def group_under(p, n, d_min, chosen_rows):
    """The sibling group, over all of its children, under the RREF basis of
    the rows chosen_rows (symplectic strings)."""
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    if chosen_rows:
        basis, pivots = fm.rref(np.array([sp.from_string(g, p) for g in chosen_rows]), p)
        chosen = basis[: len(pivots)]
    return sibling_group(search._VectorTable(p, n, d_min), chosen, pivots), chosen


def per_vector_tables(table, chosen, idx):
    """A and mu at the vectors idx, summed over S row by row: the weight of S
    orthogonal to each vector, and its weight on the vector's line."""
    p = table.p
    rows, weight = per_vector_s(table, chosen)
    x = table.vectors[idx].astype(np.int64)
    a = orthogonal_flags(x, table.vectors[rows], p).astype(np.int64) @ weight
    dense = np.zeros(len(table.vectors), dtype=np.int64)
    dense[rows] = weight
    mu = sum(dense[gamma * x % p @ table.radix] for gamma in range(1, p))
    return a, mu


def check_tables(group, chosen, kids):
    """Compare the group's A, mu and D with ``per_vector_tables`` at its
    children, at a sample of its leaves and of its prefix, and where D is
    least; every child and leaf lies in the prefix."""
    table, size = group.table, group.size
    assert group.total == per_vector_s(table, chosen)[1].sum()
    assert (kids < size).all() and (group.leaves < size).all()
    leaves = group.leaves[:: max(1, len(group.leaves) // 100)]
    idx = np.concatenate([kids, leaves, np.arange(0, size, max(1, size // 100))])
    if kids.any():
        excess, least = group.excess
        idx = np.append(idx, 1 + np.argmin(excess[1:]))
    a, mu = per_vector_tables(table, chosen, idx)
    assert group.orthogonal_weight(idx).tolist() == a.tolist()
    assert group.line_weight()[idx].tolist() == mu.tolist()
    if kids.any():
        assert excess.shape == (size,) and excess[idx].tolist() == (a - table.p * mu).tolist()
        assert least == excess[idx[-1]]


def span_line_sums(group, kids, cols):
    """Per pair (u, c): D summed over the p + 1 lines of span(u, c), from its
    p^2 - 1 nonzero vectors, p - 1 on each line."""
    t, p = group.table, group.table.p
    excess = group.excess[0]
    u, c = t.vectors[kids].astype(np.int64), t.vectors[cols].astype(np.int64)
    vectors = ((a * u + b * c) % p @ t.radix for a in range(p) for b in range(p) if a or b)
    return sum(excess[x] for x in vectors) // (p - 1)


def open_pairs(group, kids, cand):
    """The candidate pairs of kids that the bound leaves to the exact sum,
    (child position, leaf position) ordered by child, then leaf: those with
    D(u) + D(c) + (p - 1) D_min <= M."""
    p, (excess, least) = group.table.p, group.excess
    room = group.total - (p - 1) * least - excess[kids]
    return np.nonzero(cand & (excess[group.leaves[: cand.shape[1]]] <= room[:, None]))


def check_line_sums(group, chosen, kids):
    """Over every candidate pair of kids in ``per_vector_filter``: D summed
    over the lines of span(u, c) is at least M, and is M iff the pair passes;
    no pair or child that the bound retires has a passing pair. A leaf c of
    the zero child passes iff A(c) = mu(c). Returns the number of pairs the
    bound leaves open and how many of them pass."""
    p, total = group.table.p, group.total
    cand, ok = per_vector_filter(group.table, chosen, group.leaves, kids)
    j, c = np.nonzero(cand)
    leaves = group.leaves[c]
    if not kids.any():
        assert ok[j, c].tolist() == (group.orthogonal_weight(leaves) == group.line_weight()[leaves]).tolist()
        return 0, 0
    excess, least = group.excess
    sums = span_line_sums(group, kids[j], leaves)
    assert (sums >= total).all()
    assert ok[j, c].tolist() == (sums == total).tolist()
    assert not ok[excess[kids] + p * least > total].any()
    retired = excess[kids[j]] + excess[leaves] + (p - 1) * least > total
    assert not ok[j[retired], c[retired]].any()
    return int((~retired).sum()), int(ok.sum())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(sibling_groups(), ordered_sibling_groups()))
def test_line_sums_of_excess_decide_every_pair(case):
    p, n, d_min, chosen, pivots, kids, block_entries = case
    table = search._VectorTable(p, n, d_min)
    with mock.patch.object(sp, "BLOCK_ENTRIES", block_entries):
        group = sibling_group(table, chosen, pivots)
        check_line_sums(group, chosen, kids)
        check_tables(group, chosen, kids)


@pytest.mark.parametrize("p, n, d_min, chosen_rows", [(2, 4, 2, []), (3, 3, 2, []), (2, 5, 2, [])])
def test_line_sums_of_excess_at_roots(p, n, d_min, chosen_rows):
    # every child of the root: pairs stay open, and in the first two groups
    # some of them pass and some fail; in the [[5,3,2]]_2 root none passes
    group, chosen = group_under(p, n, d_min, chosen_rows)
    opened, passed = check_line_sums(group, chosen, group.leaves)
    assert opened > passed and (passed > 0) == (n != 5)


@pytest.mark.parametrize(
    "p, n, d_min, total, least, live",
    [(2, 5, 2, 15, 5, [81, 162]), (3, 4, 3, 416, 128, None), (2, 6, 3, 153, 73, None)],
)
def test_bound_at_the_certificate_roots(p, n, d_min, total, least, live):
    # the root groups of [[5,3,2]]_2, [[4,2,3]]_3 and [[6,4,3]]_2: in the last
    # two the bound retires every child (live None); in the first, 81 and 162
    # children of its two blocks stay open and none of their leaves passes
    group, _ = group_under(p, n, d_min, [])
    kids = group.leaves
    check_tables(group, np.zeros((0, 2 * n), dtype=np.int64), kids)
    excess, found = group.excess
    assert (group.total, found) == (total, least)
    open_kids = [int((excess[kids[b]] + p * least <= total).sum()) for b in group.blocks(kids)]
    assert open_kids == live if live else not any(open_kids)
    for block in group.blocks(kids):
        assert not len(group.survivors(kids[block])[0])


def check_sibling_group(p, n, d_min, chosen_rows, samples):
    """Filter every leaf pair under the rows chosen_rows, in blocks, and
    compare about samples of the candidate pairs with the exact distance.
    Returns the group, its parent rows, the number of pairs the bound leaves
    to the exact sum and the (passed, failed) counts of the pairs checked."""
    group, chosen = group_under(p, n, d_min, chosen_rows)
    table, leaves = group.table, group.leaves
    results = {True: 0, False: 0}
    opened, stride = 0, None
    for kids, cand, _, ok in filtered_blocks(group, leaves):
        opened += len(open_pairs(group, kids, cand)[0])
        pairs = np.argwhere(cand)
        stride = stride or max(1, len(pairs) * len(leaves) // (samples * len(kids)))
        for j, col in pairs[::stride]:
            code = StabilizerCode(p, n, list(chosen) + [table.vectors[kids[j]], table.vectors[leaves[col]]])
            assert ok[j, col] == (code.distance >= d_min), (kids[j], leaves[col])
            results[bool(ok[j, col])] += 1
    return group, chosen, opened, results


def test_sibling_group_with_repeated_reduced_rows():
    # under X_1 X_2 2Z_2 over F_3, weight-1 rows such as X_1 and 2 X_2 Z_2 reduce to one row
    group, chosen, opened, results = check_sibling_group(3, 4, 2, ["1100|0200"], 400)
    assert per_vector_s(group.table, chosen)[1].max() > 1
    assert opened > 0
    assert results[True] > 0 and results[False] > 0


def test_sibling_group_exact_sums_at_the_532_root():
    # the root group of the [[5,3,2]]_2 certificate: the bound leaves pairs
    # open, and the exact sum fails every one
    _, _, opened, results = check_sibling_group(2, 5, 2, [], 400)
    assert opened > 0
    assert results[False] > 0 and results[True] == 0


def test_zero_child_compares_a_with_mu():
    # m = 1: span(0, c) is the line of c, so c passes iff A(c) = mu(c); over
    # F_3 some leaves carry weight of S, A >= mu on every leaf, and no D is
    # built; no [[2,1,2]]_3 code exists (n - k < 2(d - 1)), so none passes
    group, _ = group_under(3, 2, 2, [])
    leaves = group.leaves
    a, mu = group.orthogonal_weight(leaves), group.line_weight()[leaves]
    assert mu.max() > 0 and (a >= mu).all()
    kid_pos, leaf_pos = group.survivors(np.zeros(1, dtype=np.int64))
    assert not kid_pos.any() and leaf_pos.tolist() == np.flatnonzero(a == mu).tolist()
    assert "excess" not in vars(group)
    assert check_leaf_filter(3, 2, [], 2) == []


@pytest.mark.parametrize("p, n, d_min, chosen_rows", [(3, 4, 3, ["0100|0112"]), (5, 2, 3, [])])
def test_orthogonal_weight_of_span_by_enumeration(p, n, d_min, chosen_rows):
    # G[u, c], the weight of S orthogonal to u and c counted row by row, is
    # (sum_L A(L) - M) / p over the lines L of span(u, c); for the zero child it is A(c)
    group, chosen = group_under(p, n, d_min, chosen_rows)
    table, leaves = group.table, group.leaves
    rows, weight = per_vector_s(table, chosen)
    kids = np.concatenate([[0], leaves])
    j, c = np.nonzero(group.leaf_candidates(kids))
    u, v = table.vectors[kids[j]].astype(np.int64), table.vectors[leaves[c]].astype(np.int64)
    s = table.vectors[rows]
    gram = (orthogonal_flags(u, s, p) & orthogonal_flags(v, s, p)).astype(np.int64) @ weight
    a = group.orthogonal_weight(np.arange(group.size))
    span = ((x * u + y * v) % p @ table.radix for x in range(p) for y in range(p) if x or y)
    line_sums = sum(a[i] for i in span) // (p - 1)
    zero = kids[j] == 0
    assert zero.any() and not zero.all()
    assert (p * gram[~zero]).tolist() == (line_sums[~zero] - group.total).tolist()
    assert gram[zero].tolist() == a[leaves[c[zero]]].tolist()


def test_zero_child_filter_stays_in_blocks():
    # an m = 1 search has one group of one child, kids = [0]: it tests its
    # leaves against S a chunk at a time, never holds an |S| x leaves table
    # and builds no D over its prefix
    tracemalloc.start()
    try:
        assert search_codes(SearchQuery(2, 8, 7, 3)).verdict == "not_exists"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    group, _ = group_under(2, 8, 3, [])
    assert peak < len(group.lines) * len(group.leaves) // 2
    assert not len(group.survivors(np.zeros(1, dtype=np.int64))[0])
    assert "excess" not in vars(group)


@pytest.mark.parametrize("pair_step", [1, 3])
@pytest.mark.parametrize("p, n, d_min", [(3, 3, 2), (2, 4, 2)])
def test_exact_sums_take_open_pairs_in_several_steps(p, n, d_min, pair_step, monkeypatch):
    # every child of the root in one call: with BLOCK_ENTRIES = 2n * pair_step
    # the exact sums take pair_step open pairs at a time and the tables are
    # built a few vectors at a time; past the first step pairs pass and fail
    group, chosen = group_under(p, n, d_min, [])
    kids = group.leaves
    cand = group.leaf_candidates(kids)
    monkeypatch.setattr(sp, "BLOCK_ENTRIES", 2 * n * pair_step)
    kid_pos, leaf_pos = group.survivors(kids)
    ref_cand, ref_ok = per_vector_filter(group.table, chosen, group.leaves, kids)
    assert np.array_equal(cand, ref_cand[:, : cand.shape[1]]) and not ref_cand[:, cand.shape[1] :].any()
    ref_j, ref_c = np.nonzero(ref_ok)
    assert kid_pos.tolist() == ref_j.tolist() and leaf_pos.tolist() == ref_c.tolist()
    passed = ref_ok[open_pairs(group, kids, cand)]
    assert passed[pair_step:].any() and not passed[pair_step:].all()
