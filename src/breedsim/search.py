"""Exhaustive existence search for stabilizer code parameters at desk scale.

Subspaces are enumerated through their unique RREF bases, one generator per
depth in pivot order, pruning non-self-orthogonal partial bases. The distance
filter is complete: a finished subspace has d >= d_min iff no vector of
symplectic weight below d_min lies in the dual outside the code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import fieldmath as fm
from . import symplectic as sp
from .codes import FeasibilityError, StabilizerCode

#: refusal threshold for the naive pre-pruning node bound (p^{2n})^{n-k}
FEASIBILITY_CAP = 10**8
#: cap on materializing the full vector table
VECTOR_CAP = 1 << 22


@dataclass(frozen=True)
class SearchQuery:
    p: int
    n: int
    k: int
    d_min: int
    purity_required: bool = False
    budget: int = 10_000_000

    def __post_init__(self):
        fm.check_modulus(self.p)
        if self.n < 1 or self.k < 0 or self.n - self.k < 1:
            raise ValueError("need n >= 1 and 1 <= n - k")
        if self.d_min < 1:
            raise ValueError("d_min must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    verdict: str  # "exists" | "not_exists" | "inconclusive"
    nodes: int
    witness: Optional[Tuple[str, ...]] = None


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.nodes = 0
        self.exhausted = False

    def spend(self, amount: int) -> bool:
        self.nodes += amount
        if self.nodes > self.cap:
            self.exhausted = True
        return not self.exhausted


def _low_weight_vectors(p: int, n: int, d_min: int) -> np.ndarray:
    """All vectors with symplectic weight in [1, d_min)."""
    values = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    rows = []
    for w in range(1, d_min):
        for support in itertools.combinations(range(n), w):
            for content in itertools.product(values, repeat=w):
                v = np.zeros(2 * n, dtype=np.int64)
                for pos, (a, b) in zip(support, content):
                    v[pos] = a
                    v[n + pos] = b
                rows.append(v)
    if not rows:
        return np.zeros((0, 2 * n), dtype=np.int64)
    return np.vstack(rows)


def search_codes(q: SearchQuery, order: str = "asc") -> SearchResult:
    """Search for a self-orthogonal dim-(n-k) subspace with distance >= d_min.

    Exhaustive unless the node budget runs out (verdict "inconclusive").
    Codes whose distance is undefined (dual equal to the code itself) never
    match, so k = 0 queries have no witnesses.
    """
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc'")
    p, n, m = q.p, q.n, q.n - q.k
    if float(p) ** (2 * n * m) > FEASIBILITY_CAP:
        raise FeasibilityError(
            f"projected node bound ({p}^{2 * n})^{m} exceeds {FEASIBILITY_CAP}"
        )
    if q.k == 0:
        # dim C = n forces C^perp_s = C: distance undefined, never a match
        return SearchResult("not_exists", 0)
    if p ** (2 * n) > VECTOR_CAP:
        raise FeasibilityError(f"vector table of size {p}^{2 * n} exceeds cap {VECTOR_CAP}")

    vectors = fm.span_elements(np.eye(2 * n, dtype=np.int64), p)
    nonzero_mask = np.any(vectors != 0, axis=1)
    first_nz = np.where(nonzero_mask, np.argmax(vectors != 0, axis=1), 2 * n)
    leading = vectors[np.arange(len(vectors)), np.minimum(first_nz, 2 * n - 1)]
    monic = nonzero_mask & (leading == 1)
    low_weight = _low_weight_vectors(p, n, q.d_min)
    budget = _Budget(q.budget)

    def candidate_indices(chosen: np.ndarray, pivots: List[int]) -> np.ndarray:
        last = pivots[-1] if pivots else -1
        mask = monic & (first_nz > last)
        if len(pivots):
            # full RREF uniqueness: earlier rows are zero on the new pivot
            safe = np.minimum(first_nz, 2 * n - 1)
            mask &= (chosen[:, safe] == 0).all(axis=0)
            mask &= ~np.any(sp.pairwise_products(chosen, vectors, p) != 0, axis=0)
        idx = np.flatnonzero(mask)
        return idx if order == "asc" else idx[::-1]

    def validate(rows: List[np.ndarray]) -> Optional[StabilizerCode]:
        code = StabilizerCode(p, n, rows)
        if code.distance is None or code.distance < q.d_min:
            return None
        if q.purity_required and not code.is_pure:
            return None
        return code

    def finish(chosen: np.ndarray, pivots: List[int]) -> Optional[Tuple[str, ...]]:
        idx = candidate_indices(chosen, pivots)
        if not budget.spend(len(idx)):
            return None
        cands = vectors[idx]
        if len(cands) == 0:
            return None
        if len(low_weight) == 0:
            ok = np.ones(len(cands), dtype=bool)
        else:
            if len(pivots):
                orth = ~np.any(sp.pairwise_products(low_weight, chosen, p) != 0, axis=1)
            else:
                orth = np.ones(len(low_weight), dtype=bool)
            sel = low_weight[orth]
            if len(sel) == 0:
                ok = np.ones(len(cands), dtype=bool)
            else:
                sel_red = fm.reduce_rows(chosen, pivots, sel, p)
                prod = sp.pairwise_products(sel_red, cands, p)
                multiple = np.zeros((len(sel), len(cands)), dtype=bool)
                for alpha in range(1, p):
                    multiple |= (sel_red[:, None, :] == (alpha * cands[None, :, :]) % p).all(-1)
                in_chosen = (sel_red == 0).all(axis=1)
                disqualified = (prod == 0) & ~multiple & ~in_chosen[:, None]
                ok = ~disqualified.any(axis=0)
        for cand in cands[ok]:
            rows = list(chosen) + [cand]
            code = validate(rows)
            if code is not None:
                return tuple(sp.to_string(r) for r in code.stab.basis)
        return None

    def dfs(chosen: np.ndarray, pivots: List[int]) -> Optional[Tuple[str, ...]]:
        if len(pivots) == m - 1:
            return finish(chosen, pivots)
        for i in candidate_indices(chosen, pivots):
            if not budget.spend(1):
                return None
            row = vectors[i]
            witness = dfs(np.vstack([chosen, row]), pivots + [int(first_nz[i])])
            if witness is not None:
                return witness
            if budget.exhausted:
                return None
        return None

    witness = dfs(np.zeros((0, 2 * n), dtype=np.int64), [])
    if witness is not None:
        return SearchResult("exists", budget.nodes, witness)
    if budget.exhausted:
        return SearchResult("inconclusive", budget.nodes)
    return SearchResult("not_exists", budget.nodes)
