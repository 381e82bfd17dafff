import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from breedsim import fieldmath as fm
from breedsim import search
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


def test_replay_with_reversed_order_agrees():
    for params in [(2, 5, 3, 2), (2, 4, 2, 3)]:
        a = search_codes(SearchQuery(*params))
        b = search_codes(SearchQuery(*params), order="desc")
        assert a.verdict == b.verdict == "not_exists"
        assert a.nodes == b.nodes


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


def test_query_validation():
    with pytest.raises(ValueError):
        SearchQuery(2, 3, 3, 1)  # n - k must be >= 1
    with pytest.raises(ValueError):
        SearchQuery(2, 3, 1, 0)
    with pytest.raises(ValueError):
        search_codes(SearchQuery(2, 4, 2, 2), order="sideways")


def test_trivial_distance_one_exists():
    q = SearchQuery(2, 2, 1, 1)
    result = search_codes(q)
    assert result.verdict == "exists"
    validate_witness(result, q)


def reference_search(q: SearchQuery, order: str = "asc") -> SearchResult:
    """The same DFS and node count, but every leaf candidate is checked by
    building its code and reading ``distance`` and ``is_pure``."""
    p, n, m = q.p, q.n, q.n - q.k
    if q.k == 0:
        return SearchResult("not_exists", 0)
    vectors = fm.span_elements(np.eye(2 * n, dtype=np.int64), p)
    nonzero = vectors.any(axis=1)
    first_nz = np.where(nonzero, np.argmax(vectors != 0, axis=1), 2 * n)
    monic = nonzero & (vectors[np.arange(len(vectors)), np.minimum(first_nz, 2 * n - 1)] == 1)
    nodes = 0

    def candidates(chosen, last):
        mask = monic & (first_nz > last)
        if len(chosen):
            mask &= (chosen[:, np.minimum(first_nz, 2 * n - 1)] == 0).all(axis=0)
            mask &= (sp.pairwise_products(chosen, vectors, p) == 0).all(axis=0)
        idx = np.flatnonzero(mask)
        return idx if order == "asc" else idx[::-1]

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


@pytest.mark.parametrize("order", ["asc", "desc"])
@pytest.mark.parametrize("pure", [False, True])
@pytest.mark.parametrize("p, n, k, d_max", REFERENCE_GRID)
def test_matches_reference_search(p, n, k, d_max, pure, order):
    for d_min in range(1, d_max + 1):
        q = SearchQuery(p, n, k, d_min, purity_required=pure)
        assert search_codes(q, order) == reference_search(q, order), d_min


def test_matches_reference_search_under_budget():
    for budget in (1, 40, 300):
        q = SearchQuery(2, 4, 2, 2, budget=budget)
        assert search_codes(q) == reference_search(q)


@pytest.mark.parametrize("order", ["asc", "desc"])
@pytest.mark.parametrize("params", [(3, 3, 1, 2), (2, 4, 2, 2)])
def test_budget_runs_out_inside_sibling_groups(params, order):
    # the witness's node count less one runs out on the leaves of its own child
    found = search_codes(SearchQuery(*params), order)
    assert found.verdict == "exists"
    for budget in [*range(1, 400, 37), found.nodes - 1, found.nodes]:
        q = SearchQuery(*params, budget=budget)
        assert search_codes(q, order) == reference_search(q, order), budget


@pytest.mark.parametrize(
    "params, nodes", [((2, 5, 3, 2), 87_978), ((3, 4, 2, 3), 301_760), ((2, 6, 4, 3), 1_400_490)]
)
def test_certificate_node_counts(params, nodes):
    for order in ("asc", "desc"):
        assert search_codes(SearchQuery(*params), order) == SearchResult("not_exists", nodes)


def test_leaf_filter_in_blocks_of_one_candidate(monkeypatch):
    monkeypatch.setattr(search, "BLOCK_ENTRIES", 1)
    for params in [(2, 4, 3, 2), (2, 3, 1, 2), (3, 3, 1, 2)]:
        q = SearchQuery(*params)
        assert search_codes(q) == reference_search(q)


def test_float32_products_refused_when_inexact():
    # 2n (p - 1)^2 >= 2^24 for n = 135 over F_251
    with pytest.raises(FeasibilityError, match="float32"):
        search._partner_rows(np.zeros((1, 270), dtype=np.int64), 251)


def check_leaf_filter(p, n, chosen_rows, d_min, limit=None):
    """Compare the leaf filter after the RREF basis of chosen_rows with each
    candidate code's exact distance; returns the candidates that pass."""
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    if chosen_rows:
        basis, pivots = fm.rref(np.vstack(chosen_rows), p)
        chosen = basis[: len(pivots)]
    table = search._VectorTable(p, n, d_min)
    idx = table.candidates(chosen, pivots)
    if limit is not None:
        idx = idx[:: max(1, len(idx) // limit)]
    ok = table.leaf_survivors(idx, chosen, pivots)
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
    leaves = table.candidates(parent, pivots)
    group = search._SiblingGroup(table, parent, pivots, leaves)
    kid = np.array([kid_row @ table.radix])
    ok = group.survivors(kid, group.leaf_candidates(kid))
    return [sp.to_string(table.vectors[i]) for i in leaves[: ok.shape[1]][ok[0]]]


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
    block_entries = draw(st.sampled_from([1, 7, 64, search.BLOCK_ENTRIES]))
    return p, n, d_min, chosen, pivots, np.array(kids, dtype=np.int64), block_entries


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(sibling_groups())
def test_sibling_group_matches_candidates_and_exact_distance(monkeypatch, group):
    p, n, d_min, chosen, pivots, kids, block_entries = group
    monkeypatch.setattr(search, "BLOCK_ENTRIES", block_entries)
    table = search._VectorTable(p, n, d_min)
    leaves = table.candidates(chosen, pivots)
    sibling_group = search._SiblingGroup(table, chosen, pivots, leaves)
    blocks = [kids[block] for block in sibling_group.blocks(kids)]
    assert [int(kid) for block in blocks for kid in block] == kids.tolist()
    for block in blocks:
        cand = sibling_group.leaf_candidates(block)
        ok = sibling_group.survivors(block, cand)
        assert not (ok & ~cand).any()
        for kid, kid_cand, kid_ok in zip(block, cand, ok):
            rows = np.vstack([chosen, table.vectors[kid]])
            expected = table.candidates(rows, pivots + [int(table.first_nz[kid])])
            assert leaves[: len(kid_cand)][kid_cand].tolist() == expected.tolist()
            cols = np.flatnonzero(kid_cand)
            for col in cols[:: max(1, len(cols) // 6)]:
                code = StabilizerCode(p, n, list(rows) + [table.vectors[leaves[col]]])
                assert kid_ok[col] == (code.distance >= d_min), table.vectors[leaves[col]]


def group_under(p, n, d_min, chosen_rows):
    """The sibling group, over all of its children, under the RREF basis of
    the rows chosen_rows (symplectic strings)."""
    chosen, pivots = np.zeros((0, 2 * n), dtype=np.int64), []
    if chosen_rows:
        basis, pivots = fm.rref(np.array([sp.from_string(g, p) for g in chosen_rows]), p)
        chosen = basis[: len(pivots)]
    table = search._VectorTable(p, n, d_min)
    leaves = table.candidates(chosen, pivots)
    return search._SiblingGroup(table, chosen, pivots, leaves), chosen


def check_sibling_group(p, n, d_min, chosen_rows, samples, monkeypatch):
    """Filter every leaf pair under the rows chosen_rows, in blocks, and
    compare about samples of the candidate pairs with the exact distance.
    Returns the group, the number of pairs that needed a line sum and the
    (passed, failed) counts of the pairs checked."""
    group, chosen = group_under(p, n, d_min, chosen_rows)
    table, leaves = group.table, group.leaves
    opened, line_sums = [], group.line_sums

    def counted_line_sums(kids, cols):
        opened.append(len(kids))
        return line_sums(kids, cols)

    monkeypatch.setattr(group, "line_sums", counted_line_sums)
    results = {True: 0, False: 0}
    stride = None
    for block in group.blocks(leaves):
        kids = leaves[block]
        cand = group.leaf_candidates(kids)
        ok = group.survivors(kids, cand)
        pairs = np.argwhere(cand)
        stride = stride or max(1, len(pairs) * len(leaves) // (samples * len(kids)))
        for j, col in pairs[::stride]:
            code = StabilizerCode(p, n, list(chosen) + [table.vectors[kids[j]], table.vectors[leaves[col]]])
            assert ok[j, col] == (code.distance >= d_min), (kids[j], leaves[col])
            results[bool(ok[j, col])] += 1
    return group, sum(opened), results


def test_sibling_group_with_repeated_reduced_rows(monkeypatch):
    # under X_1 X_2 2Z_2 over F_3, weight-1 rows such as X_1 and 2 X_2 Z_2 reduce to one row
    group, opened, results = check_sibling_group(3, 4, 2, ["1100|0200"], 400, monkeypatch)
    assert group.weights.max() > 1
    assert opened > 0
    assert results[True] > 0 and results[False] > 0


def test_sibling_group_line_sums_at_the_532_root(monkeypatch):
    # the root group of the [[5,3,2]]_2 certificate: the bound leaves pairs open
    group, opened, results = check_sibling_group(2, 5, 2, [], 400, monkeypatch)
    assert opened > 0
    assert results[False] > 0


def test_zero_child_line_sum_is_zero():
    # m = 1: span(0, c) is the line of c alone, so no other line adds weight
    group, _ = group_under(3, 2, 2, [])
    leaves = group.leaves
    assert group.mu(leaves).max() > 0
    assert not group.line_sums(np.zeros(len(leaves), dtype=np.int64), leaves).any()
    assert group.line_sums(leaves[:1].repeat(len(leaves) - 1), leaves[1:]).any()
    check_leaf_filter(3, 2, [], 2)


@pytest.mark.parametrize("p, n, d_min, chosen_rows", [(3, 4, 3, ["0100|0112"]), (5, 2, 3, [])])
def test_line_sums_match_the_span_by_enumeration(p, n, d_min, chosen_rows):
    # the weight of S on span(u, c) off the lines of u and c, counted vector by vector
    group, _ = group_under(p, n, d_min, chosen_rows)
    table, leaves = group.table, group.leaves
    weight = dict(zip((group.rows.astype(np.int64) @ table.radix).tolist(), group.weights.tolist()))
    kids = np.concatenate([[0], leaves])
    cand = group.leaf_candidates(kids)
    j, c = np.nonzero(cand)
    got = group.line_sums(kids[j], leaves[c])
    for u, v, total in zip(table.vectors[kids[j]].astype(np.int64), table.vectors[leaves[c]], got):
        span = {int((a * u + b * v) % p @ table.radix) for a in range(p) for b in range(p)}
        lines = {int(a * w % p @ table.radix) for a in range(p) for w in (u, v)}
        assert total == sum(weight.get(x, 0) for x in span - lines)
    assert got.any() and not got[kids[j] == 0].any()
