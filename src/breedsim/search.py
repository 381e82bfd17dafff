"""Exhaustive existence search for stabilizer code parameters at desk scale.

Subspaces are enumerated through their unique RREF bases, one generator per
depth in pivot order, pruning non-self-orthogonal partial bases. The last two
depths are taken a block of siblings at a time: under a node P, the leaves of
a child u are the children of P that pivot after u, are zero on u's pivot and
are orthogonal to u. The distance filter is exact: a finished subspace has
d >= d_min iff no vector of symplectic weight below d_min lies in the dual
outside the code: a leaf c of child u passes iff P's reduced low-weight rows
orthogonal to u and c all lie on the lines of span(u, c). Those rows are kept
as their lines, each weighted by the rows on it, and counted by one Gram
product; each leaf is tested against the lines once per sibling group, and
only the passing (child, leaf) pairs are kept (see ``_SiblingGroup``). Node
counts are replayed over each block in DFS order, so verdicts, counts and
witnesses are those of a leaf-by-leaf search. Symplectic products are float32
dot products with partner rows, exact because every one is an integer below
2^24.
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
#: entries per intermediate of the leaf filter; children and leaves are taken in blocks
BLOCK_ENTRIES = 1 << 18


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
    # p - a, not -a: a uint8 negation wraps
    return np.hstack([rows[:, n:], (p - rows[:, :n]) % p]).astype(np.float32)


class _VectorTable:
    """Every vector of F_p^{2n} as uint8, at its index in ``span_elements``
    order, with the tables the DFS and the leaf filter read."""

    def __init__(self, p: int, n: int, d_min: int):
        if p ** (2 * n) > VECTOR_CAP:
            raise FeasibilityError(f"vector table of size {p}^{2 * n} exceeds cap {VECTOR_CAP}")
        self.p, self.n = p, n
        size = 2 * n
        # index i holds the base-p digits of i, the first coordinate most
        # significant; written a batch at a time, so no int64 copy of the table
        self.vectors = np.empty((p**size, size), dtype=np.uint8)
        start = 0
        for batch in fm.iter_span_batches(np.eye(size, dtype=np.int64), p, batch_size=1 << 12):
            self.vectors[start : start + len(batch)] = batch
            start += len(batch)
        # vector v sits at index v . radix
        self.radix = p ** np.arange(size - 1, -1, -1, dtype=np.int64)
        self.inverse = np.array([0] + [fm.inv_mod(x, p) for x in range(1, p)], dtype=np.int64)
        # after[j + 1] = p^(2n-1-j): the vectors with pivot (first nonzero
        # column) after j are those below it; pivot j fills [after[j + 1], after[j])
        self.after = p ** np.arange(size, -1, -1, dtype=np.int64)
        # the zero vector gets pivot -1, so as a child row it restricts nothing
        self.first_nz = np.full(len(self.vectors), -1, dtype=np.int8)
        for j in range(size):
            self.first_nz[self.after[j + 1] : self.after[j]] = j
        # ascending; the monic vectors with pivot j are [after[j + 1], 2 after[j + 1])
        self.monic_idx = np.concatenate([np.arange(a, 2 * a) for a in self.after[:0:-1]])
        # every vector of symplectic weight in [1, d_min), by weight
        supports = (s for w in range(1, d_min) for s in itertools.combinations(range(n), w))
        self.low_weight = np.vstack([np.zeros((0, size), np.int64), *sp.support_vectors(n, p, supports)])

    def orthogonal(self, rows: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Flags [i, j]: <rows[i], others[j]>_s = 0."""
        products = rows.astype(np.float32, copy=False) @ _partner_rows(others, self.p).T
        multiple = products / self.p  # rint(x / p) * p == x exactly iff p divides x
        return products == np.multiply(np.rint(multiple, out=multiple), self.p, out=multiple)

    def monic_keys(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row's monic multiple; 0 for a zero row."""
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        return rows * self.inverse[lead][:, None] % self.p @ self.radix

    def candidates(self, chosen: np.ndarray, pivots: List[int]) -> np.ndarray:
        """Ascending indices of the vectors that extend the RREF rows chosen
        to a self-orthogonal RREF basis, as its last row."""
        last = pivots[-1] if pivots else -1
        idx = self.monic_idx[: np.searchsorted(self.monic_idx, self.after[last + 1])]
        if len(pivots):
            # full RREF uniqueness: earlier rows are zero on the new pivot
            idx = idx[~chosen.any(axis=0)[self.first_nz[idx]]]
            idx = idx[self.orthogonal(self.vectors[idx], chosen).all(axis=1)]
        return idx


class _SiblingGroup:
    """The children of one DFS node chosen and the leaves under each.

    A child is an index of ``candidates(chosen)``, or index 0, the zero
    vector, standing for no child row. leaves is ``candidates(chosen)`` or an
    ascending part of it. The leaves under a child u are those leaves that
    pivot after u, are zero on u's pivot and are orthogonal to u, i.e.
    ``candidates(chosen + u)``; the pivot condition makes them a prefix of
    leaves.

    The filter is exact. S holds the low-weight rows orthogonal to chosen,
    reduced against it. chosen + u + c has no vector of weight below d_min in
    its dual outside its span iff each row of S orthogonal to u and c lies on
    the line of u, of c or of some u + gamma c. A row's orthogonality flags
    are those of its line, so S is kept as lines: the monic vectors mu_keys,
    each weighted by mu, the number of rows of S on it (mu[0] = 0 for the
    zero line, where rows inside span(chosen) land). c passes iff
    G[u, c] - mu[u] - mu[c], G the Gram product O_u^T diag(mu) O_c of
    orthogonality flags, equals the line sum of mu[monic(u + gamma c)],
    gamma != 0 (0 for the zero child); only a left side in
    (0, (p - 1) max mu] needs it. Survivors are returned as (child, leaf)
    pairs. Blocks hold ~BLOCK_ENTRIES entries; when the children span several
    blocks, ``share_leaf_flags`` tests each leaf against S once for all of
    them, otherwise each block tests its leaves a chunk at a time.
    """

    def __init__(self, table: _VectorTable, chosen: np.ndarray, pivots: List[int], leaves: np.ndarray):
        self.table, self.leaves = table, leaves
        sel = table.low_weight
        if len(pivots) and len(sel):
            sel = fm.reduce_rows(chosen, pivots, sel[table.orthogonal(sel, chosen).all(axis=1)], table.p)
        # the appended zero makes the zero line the first key; rows inside
        # span(chosen) never disqualify, so it weighs 0
        self.mu_keys, counts = np.unique(np.append(table.monic_keys(sel), 0), return_counts=True)
        counts[0] = 0
        self.mu_values = counts.astype(np.float32)
        self.lines = table.vectors[self.mu_keys].astype(np.float32)
        #: flags[l, c]: lines[l] is orthogonal to leaves[c]; set by share_leaf_flags
        self.flags: Optional[np.ndarray] = None

    def mu(self, idx: np.ndarray) -> np.ndarray:
        """The weight of S on the line of each monic vector (or zero) of idx."""
        pos = np.searchsorted(self.mu_keys, idx, side="right") - 1
        return np.where(self.mu_keys[pos] == idx, self.mu_values[pos], 0)

    def line_sums(self, kids: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Per pair (u, c): the weight of S on the lines of u + gamma c, gamma != 0 (0 for u = 0)."""
        t = self.table
        u, c = t.vectors[kids].astype(np.int64), t.vectors[cols].astype(np.int64)
        total = sum(self.mu(t.monic_keys((u + gamma * c) % t.p)) for gamma in range(1, t.p))
        return np.where(kids != 0, total, 0)

    def ends(self, kids: np.ndarray) -> np.ndarray:
        """How many leaves, from the first, pivot after each child."""
        return np.searchsorted(self.leaves, self.table.after[self.table.first_nz[kids] + 1])

    def blocks(self, kids: np.ndarray) -> List[slice]:
        """Consecutive blocks of kids, each as large as its intermediates allow."""
        ends = np.maximum(self.ends(kids), len(self.lines))
        blocks, start = [], 0
        while start < len(kids):
            # a block of count kids holds count * max(widest prefix, |S|) entries
            widest = np.maximum.accumulate(ends[start : start + BLOCK_ENTRIES])
            entries = widest * np.arange(1, len(widest) + 1)
            count = max(1, int(np.searchsorted(entries, BLOCK_ENTRIES, side="right")))
            blocks.append(slice(start, start + count))
            start += count
        return blocks

    def share_leaf_flags(self, kids: np.ndarray) -> None:
        """Test the leaves that pivot after some child against S's lines once,
        for every block of kids; |lines| x leaves bools, built a chunk at a time.
        A group with several children has m >= 2, where the feasibility cap
        keeps p^(2n) <= 10^4, so the table stays below 17 MB."""
        t = self.table
        leaves = self.leaves[: self.ends(kids).max(initial=0)]
        self.flags = np.empty((len(self.lines), len(leaves)), dtype=bool)
        step = max(1, BLOCK_ENTRIES // max(len(self.lines), 2 * t.n))
        for start in range(0, len(leaves), step):
            cols = leaves[start : start + step]
            self.flags[:, start : start + len(cols)] = t.orthogonal(self.lines, t.vectors[cols])

    def leaf_candidates(self, kids: np.ndarray) -> np.ndarray:
        """cand[j, c]: leaves[c] is a leaf under kids[j], over the leaves
        that pivot after some child."""
        t = self.table
        leaves = self.leaves[: self.ends(kids).max(initial=0)]
        u = t.vectors[kids]
        # free[j, i]: a leaf with pivot i may sit under kids[j] (u pivots before i and is zero there)
        free = (u == 0) & (np.arange(2 * t.n) > t.first_nz[kids][:, None])
        cand = np.empty((len(kids), len(leaves)), dtype=bool)
        step = max(1, BLOCK_ENTRIES // max(len(kids), 2 * t.n))
        for start in range(0, len(leaves), step):
            cols = leaves[start : start + step]
            cand[:, start : start + len(cols)] = free[:, t.first_nz[cols]] & t.orthogonal(u, t.vectors[cols])
        return cand

    def survivors(self, kids: np.ndarray, cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The leaf candidates cand of kids that pass the distance filter, as
        (child position, leaf position) pairs ordered by child, then leaf."""
        t = self.table
        gram_u = t.orthogonal(self.lines, t.vectors[kids]).T * self.mu_values
        gram_u[:, 0] = -self.mu(kids)  # the zero line is orthogonal to every leaf: it subtracts mu[u]
        bound = np.where(kids != 0, (t.p - 1) * self.mu_values.max(), 0)[:, None]
        found_j, found_c = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        step = max(1, BLOCK_ENTRIES // max(len(kids), len(self.lines), 2 * t.n))
        pair_step = max(1, BLOCK_ENTRIES // (2 * t.n))
        for start in range(0, cand.shape[1] if len(kids) else 0, step):
            at = start + np.flatnonzero(cand[:, start : start + step].any(axis=0))  # under some child
            cols = self.leaves[at]
            flags = t.orthogonal(self.lines, t.vectors[cols]) if self.flags is None else self.flags[:, at]
            excess = gram_u @ flags.astype(np.float32)
            excess -= self.mu(cols)  # in place: exact small integers in float32
            # excess >= 0 on leaf candidates; a 1-D nonzero is far faster on sparse flags
            j, c = np.divmod(np.flatnonzero(cand[:, at] & (excess <= bound)), len(cols))
            left = excess[j, c]
            open_ = np.flatnonzero(left)
            for first in range(0, len(open_), pair_step):
                o = open_[first : first + pair_step]
                left[o] -= self.line_sums(kids[j[o]], cols[c[o]])
            found_j.append(j[left == 0])
            found_c.append(at[c[left == 0]])
        j, c = np.concatenate(found_j), np.concatenate(found_c)
        order = np.argsort(j, kind="stable")  # chunks ascend by leaf, so each child's leaves stay ascending
        return j[order], c[order]


def _power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """Whether base ** exponent > cap, for base >= 2: exact integer products,
    at most log2(cap) + 1 of them, so never a float and never a huge integer."""
    value = 1
    for _ in range(exponent):
        value *= base
        if value > cap:
            return True
    return False


def search_codes(q: SearchQuery) -> SearchResult:
    """Search for a self-orthogonal dim-(n-k) subspace with distance >= d_min.

    Exhaustive unless the node budget runs out (verdict "inconclusive").
    Codes whose distance is undefined (dual equal to the code itself) never
    match, so k = 0 queries have no witnesses. Only the leaf candidates that
    pass the ``_SiblingGroup`` filter are built as codes.
    """
    p, n, m = q.p, q.n, q.n - q.k
    if _power_exceeds(p, 2 * n * m, FEASIBILITY_CAP):
        raise FeasibilityError(
            f"projected node bound ({p}^{2 * n})^{m} exceeds {FEASIBILITY_CAP}"
        )
    if q.k == 0:
        # dim C = n forces C^perp_s = C: distance undefined, never a match
        return SearchResult("not_exists", 0)
    table = _VectorTable(p, n, q.d_min)
    vectors, first_nz = table.vectors, table.first_nz
    budget = _Budget(q.budget)

    def validate(rows: List[np.ndarray]) -> Optional[StabilizerCode]:
        code = StabilizerCode(p, n, rows)
        if code.distance is None or code.distance < q.d_min:
            return None
        if q.purity_required and not code.is_pure:
            return None
        return code

    def last_levels(chosen: np.ndarray, pivots: List[int], kids: np.ndarray, leaves: np.ndarray):
        group = _SiblingGroup(table, chosen, pivots, leaves)
        blocks = group.blocks(kids)
        if len(blocks) > 1:
            group.share_leaf_flags(kids)
        for block in blocks:
            block = kids[block]
            cand = group.leaf_candidates(block)
            # each child costs a node (the zero row stands for none), then its leaves do
            spent = np.column_stack([block != 0, cand.sum(axis=1)]).ravel()
            total = budget.nodes + np.cumsum(spent)
            # the first spend past the cap ends the search; children before it are checked
            stop = int(np.searchsorted(total, budget.cap, side="right"))
            kid_pos, leaf_pos = group.survivors(block[: stop // 2], cand[: stop // 2])
            for j in sorted(set(kid_pos.tolist())):
                head = list(chosen) + ([vectors[block[j]]] if block[j] else [])
                for i in leaves[leaf_pos[kid_pos == j]]:
                    code = validate(head + [vectors[i]])
                    if code is not None:
                        budget.nodes = int(total[2 * j + 1])
                        return tuple(sp.to_string(r) for r in code.stab.basis)
            if stop < len(total):
                budget.nodes, budget.exhausted = int(total[stop]), True
                return None
            budget.nodes = int(total[-1])
        return None

    def dfs(chosen: np.ndarray, pivots: List[int]) -> Optional[Tuple[str, ...]]:
        idx = table.candidates(chosen, pivots)
        if len(pivots) == m - 1:  # m = 1: the root's leaves, under no child row
            return last_levels(chosen, pivots, np.zeros(1, dtype=np.int64), idx)
        if len(pivots) == m - 2:
            return last_levels(chosen, pivots, idx, idx)
        for i in idx:
            if not budget.spend(1):
                return None
            witness = dfs(np.vstack([chosen, vectors[i]]), pivots + [int(first_nz[i])])
            if witness is not None:
                return witness
            if budget.exhausted:
                return None
        return None

    try:
        witness = dfs(np.zeros((0, 2 * n), dtype=np.int64), [])
    finally:
        # dfs holds itself through its closure; unbinding it breaks that cycle,
        # so the vector table is freed now instead of at a later gc pass
        dfs = None
    if witness is not None:
        return SearchResult("exists", budget.nodes, witness)
    if budget.exhausted:
        return SearchResult("inconclusive", budget.nodes)
    return SearchResult("not_exists", budget.nodes)
