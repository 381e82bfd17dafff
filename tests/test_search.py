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
    (2, 1, 0, 2), (2, 2, 1, 3), (2, 3, 1, 4), (2, 3, 2, 4), (2, 4, 2, 2), (2, 4, 3, 3),
    (3, 2, 1, 3), (3, 3, 1, 2), (3, 3, 2, 4), (5, 2, 1, 3),
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


@pytest.mark.parametrize("params, nodes", [((2, 5, 3, 2), 87_978), ((3, 4, 2, 3), 301_760)])
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


@pytest.mark.parametrize(
    "p, chosen, leaf",
    [
        # [[4,2,2]] on qubits 2-5 plus Z_1: a chosen row of weight 1 reduces to zero
        (2, ["01111|00000", "00000|10000"], "00000|01111"),
        # [[3,1,2]]_3 plus Z_4: the leaf's multiple 2 Z_4 has weight 1
        (3, ["1000|0110", "0110|2000"], "0000|0001"),
    ],
)
def test_leaf_filter_keeps_impure_codes(p, chosen, leaf):
    rows = [sp.from_string(g, p) for g in chosen]
    assert leaf in check_leaf_filter(p, len(leaf) // 2, rows, 2)


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
