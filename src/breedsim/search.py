"""Exhaustive existence search for stabilizer code parameters at desk scale.

Subspaces are enumerated through their unique RREF bases, one generator per
depth in pivot order, pruning non-self-orthogonal partial bases. The distance
filter is exact: a finished subspace has d >= d_min iff no vector of
symplectic weight below d_min lies in the dual outside the code. Symplectic
products are float32 dot products with a partner table, exact because every
one is an integer below 2^24.
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
#: float32 represents every integer below this exactly
FLOAT32_EXACT = 1 << 24
#: entries per intermediate of the leaf filter; candidates are taken in blocks
BLOCK_ENTRIES = 1 << 22


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


def _partner_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """Rows (b | -a mod p) in float32, so that <u, v>_s = u . partner(v) mod p.

    Each such dot product is an integer of at most 2n (p - 1)^2, and float32
    adds integers below 2^24 exactly; refuses a length where that fails.
    """
    n = rows.shape[1] // 2
    if rows.shape[1] * (p - 1) ** 2 >= FLOAT32_EXACT:
        raise FeasibilityError(
            f"symplectic products over F_{p}^{2 * n} can reach {FLOAT32_EXACT} "
            "and are not exact in float32"
        )
    return np.hstack([rows[:, n:], (-rows[:, :n]) % p]).astype(np.float32)


class _VectorTable:
    """Every vector of F_p^{2n}, at its index in ``span_elements`` order, with
    the tables the DFS and the leaf filter read."""

    def __init__(self, p: int, n: int, d_min: int):
        if p ** (2 * n) > VECTOR_CAP:
            raise FeasibilityError(f"vector table of size {p}^{2 * n} exceeds cap {VECTOR_CAP}")
        self.p, self.n = p, n
        self.vectors = fm.span_elements(np.eye(2 * n, dtype=np.int64), p)
        self.partner = _partner_rows(self.vectors, p)
        # zero_mod[x]: the exact integer product x is 0 mod p
        self.zero_mod = np.arange(2 * n * (p - 1) ** 2 + 1) % p == 0
        # vector v sits at index v . radix
        self.radix = p ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)
        self.inverse = np.array([0] + [fm.inv_mod(x, p) for x in range(1, p)], dtype=np.int64)
        nonzero = self.vectors.any(axis=1)
        self.first_nz = np.where(nonzero, np.argmax(self.vectors != 0, axis=1), 2 * n)
        leading = self.vectors[np.arange(len(self.vectors)), np.minimum(self.first_nz, 2 * n - 1)]
        # ascending; the monic vectors with pivot after column j are those below p^(2n-1-j)
        self.monic_idx = np.flatnonzero(nonzero & (leading == 1))
        # every vector of symplectic weight in [1, d_min), by weight
        supports = (s for w in range(1, d_min) for s in itertools.combinations(range(n), w))
        self.low_weight = np.vstack([self.vectors[:0], *sp.support_vectors(n, p, supports)])

    def orthogonal(self, rows: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Flags [i, j]: <rows[i], v_j>_s = 0, where partners[j] is v_j's partner row."""
        return self.zero_mod[(rows.astype(np.float32) @ partners.T).astype(np.intp)]

    def candidates(self, chosen: np.ndarray, pivots: List[int]) -> np.ndarray:
        """Ascending indices of the vectors that extend the RREF rows chosen
        to a self-orthogonal RREF basis, as its last row."""
        last = pivots[-1] if pivots else -1
        idx = self.monic_idx[: np.searchsorted(self.monic_idx, self.p ** (2 * self.n - 1 - last))]
        if len(pivots):
            # full RREF uniqueness: earlier rows are zero on the new pivot
            idx = idx[~chosen.any(axis=0)[self.first_nz[idx]]]
            idx = idx[self.orthogonal(chosen, self.partner[idx]).all(axis=0)]
        return idx

    def leaf_survivors(self, idx: np.ndarray, chosen: np.ndarray, pivots: List[int]) -> np.ndarray:
        """Per candidate c: no vector of weight below d_min lies in the dual of
        chosen + c outside its span, i.e. that code has distance >= d_min.

        Counts, per c, the low-weight rows orthogonal to chosen, reduced
        against it and nonzero, that are orthogonal to c, and the ones that
        are multiples of c. Multiples of c are orthogonal to c, so c passes
        iff the counts agree. Candidates are taken in blocks so that no
        intermediate exceeds about BLOCK_ENTRIES entries.
        """
        ok = np.ones(len(idx), dtype=bool)
        sel = self.low_weight
        if len(pivots) and len(sel):
            sel = sel[self.orthogonal(sel, _partner_rows(chosen, self.p)).all(axis=1)]
            sel = fm.reduce_rows(chosen, pivots, sel, self.p)
            sel = sel[sel.any(axis=1)]  # rows inside span(chosen) never disqualify
        if len(sel) == 0:
            return ok
        # a reduced row is a multiple of the monic c iff its monic scaling is c
        lead = sel[np.arange(len(sel)), np.argmax(sel != 0, axis=1)]
        monic_rows = sel * self.inverse[lead][:, None] % self.p
        multiples = np.bincount(monic_rows @ self.radix, minlength=len(self.vectors))[idx]
        step = max(1, BLOCK_ENTRIES // len(sel))
        for start in range(0, len(idx), step):
            block = slice(start, start + step)
            zeros = self.orthogonal(sel, self.partner[idx[block]]).sum(axis=0)
            ok[block] = zeros == multiples[block]
        return ok


def search_codes(q: SearchQuery, order: str = "asc") -> SearchResult:
    """Search for a self-orthogonal dim-(n-k) subspace with distance >= d_min.

    Exhaustive unless the node budget runs out (verdict "inconclusive").
    Codes whose distance is undefined (dual equal to the code itself) never
    match, so k = 0 queries have no witnesses. Only the leaf candidates that
    pass ``_VectorTable.leaf_survivors`` are built as codes.
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
    table = _VectorTable(p, n, q.d_min)
    vectors, first_nz = table.vectors, table.first_nz
    budget = _Budget(q.budget)

    def candidate_indices(chosen: np.ndarray, pivots: List[int]) -> np.ndarray:
        idx = table.candidates(chosen, pivots)
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
        for i in idx[table.leaf_survivors(idx, chosen, pivots)]:
            code = validate(list(chosen) + [vectors[i]])
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
