"""Exhaustive existence search for stabilizer code parameters at desk scale.

Subspaces are enumerated through their unique RREF bases, one generator per
depth in pivot order, pruning non-self-orthogonal partial bases. The last two
depths are taken a block of siblings at a time: under a node P, the leaves of
a child u are the children of P that pivot after u, are zero on u's pivot and
are orthogonal to u. The distance filter is exact: a finished subspace has
d >= d_min iff no vector of symplectic weight below d_min lies in the dual
outside the code: a leaf c of child u passes iff P's reduced low-weight rows
orthogonal to u and c all lie in span(u, c). Those rows are kept as their
lines, M in all; per vector x after P's last pivot, A(x) is their weight
orthogonal to x, mu(x) their weight on x's line and D = A - p mu. c passes
iff D summed over the p + 1 lines of span(u, c) is M, and that sum is never
less, so a bound from the least D retires children before any of their pairs
is tested, and only the children it leaves open get leaf candidates (see
``_SiblingGroup``). Node counts need no candidates: the DFS carries the RREF
basis of the vectors that pivot after a node's last row and are orthogonal to
its rows, one rank-one update per node, and a child's leaves are counted in
closed form from its products with that basis. The counts are replayed over
each block in DFS order, so verdicts, counts and witnesses are those of a
leaf-by-leaf search. The filter's symplectic products are float32 dot
products with partner rows, exact because every one is an integer below 2^24.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import codes
from . import fieldmath as fm
from . import symplectic as sp
from .codes import FeasibilityError, StabilizerCode

#: refusal threshold for the naive pre-pruning node bound (p^{2n})^{n-k}
FEASIBILITY_CAP = 10**8
#: float32 represents every integer below this exactly
FLOAT32_EXACT = 1 << 24


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
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    verdict: str  # "exists" | "not_exists" | "inconclusive"
    nodes: int
    witness: Optional[Tuple[str, ...]] = None


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
    """Every vector of F_p^{2n} as uint8, at the index its base-p digits
    spell, with the tables the DFS and the leaf filter read; refused above
    ``codes.ENUM_CAP`` vectors."""

    def __init__(self, p: int, n: int, d_min: int):
        if p ** (2 * n) > codes.ENUM_CAP:
            raise FeasibilityError(f"vector table of size {p}^{2 * n} exceeds cap {codes.ENUM_CAP}")
        self.p, self.n = p, n
        size = 2 * n
        # index i holds the base-p digits of i, the first coordinate most
        # significant; written 2^12 rows at a time, so the int64 batches stay
        # small beside the uint8 table (block_rows(2n) rows would not)
        self.vectors = np.empty((p**size, size), dtype=np.uint8)
        start = 0
        for batch in fm.iter_span_batches(np.eye(size, dtype=np.int64), p, batch_size=1 << 12):
            self.vectors[start : start + len(batch)] = batch
            start += len(batch)
        # vector v sits at index v . radix
        self.radix = p ** np.arange(size - 1, -1, -1, dtype=np.int64)
        self.inverse = np.array([0] + [fm.inv_mod(x, p) for x in range(1, p)], dtype=np.int64)
        # <x, y>_s = x @ form @ y mod p
        self.form = sp.syndrome_matrix(np.eye(size, dtype=np.int64), p)
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

    def orthogonal_to(self, rows: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        """Flags: rows[i] is orthogonal to every row of chosen, from exact
        integer products (chosen has a few rows; ``orthogonal`` serves wide
        products)."""
        return (rows @ (self.form @ chosen.T) % self.p == 0).all(axis=1)

    def monic_keys(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row's monic multiple; 0 for a zero row."""
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        return rows * self.inverse[lead][:, None] % self.p @ self.radix

    def narrowed(self, basis: np.ndarray, idx: np.ndarray) -> Iterator[np.ndarray]:
        """Under each vector i of idx, from the RREF basis basis: the RREF
        basis of the vectors of its span that pivot after i and are orthogonal
        to i. The vectors of the span that pivot after i are spanned by the
        basis rows that do; the latest of those not orthogonal to i is
        subtracted from the others until they are, which leaves it zero, and
        is dropped. It is zero on every other pivot, so this rank-one update
        keeps the rest in RREF. The updates are made for all of idx at once,
        and each basis is taken out as it is asked for."""
        p = self.p
        after = self.first_nz[basis @ self.radix] > self.first_nz[idx][:, None]
        products = self.vectors[idx] @ (basis @ self.form).T % p
        # the latest row not orthogonal to i, or row 0 when every row is; the
        # rows after i are the last ones, so it is among them if any of them is
        last = (np.arange(len(basis)) * (products != 0)).max(axis=1, initial=0)
        # rows orthogonal to i get a zero factor and stay as they are
        step = products * self.inverse[products[np.arange(len(idx)), last]][:, None]
        bases = (basis - step[:, :, None] * basis[last][:, None, :]) % p
        keep = after & bases.any(axis=2)
        return (rows[kept] for rows, kept in zip(bases, keep))

    def candidates(self, chosen: np.ndarray, pivots: List[int]) -> np.ndarray:
        """Ascending indices of the vectors that extend the RREF rows chosen
        to a self-orthogonal RREF basis, as its last row."""
        last = pivots[-1] if pivots else -1
        idx = self.monic_idx[: np.searchsorted(self.monic_idx, self.after[last + 1])]
        if len(pivots):
            # full RREF uniqueness: earlier rows are zero on the new pivot
            idx = idx[~chosen.any(axis=0)[self.first_nz[idx]]]
            idx = idx[self.orthogonal_to(self.vectors[idx], chosen)]
        return idx


class _SiblingGroup:
    """The children of one DFS node chosen and the leaves under each.

    A child is an index of ``candidates(chosen)``, or index 0, the zero
    vector, standing for no child row (and then the only child). leaves is
    all of ``candidates(chosen)``, not a part of it: the counts below count
    all of it. The leaves under a child u are those leaves that pivot after
    u, are zero on u's pivot and are orthogonal to u, i.e.
    ``candidates(chosen + u)``; the pivot condition makes them a prefix of
    leaves.

    Their number comes in closed form. V is the space of vectors that pivot
    after the last chosen row and are orthogonal to chosen, given by its RREF
    basis b_0, ..., b_{r-1}. The leaves with pivot q_k, the pivot of b_k, are
    b_k + L_k, with L_k the span of the rows after b_k, when chosen is zero on
    q_k, and none otherwise. Under a child u that pivots before q_k and is
    zero there, they add p^dim L_k when u is orthogonal to L_k and to b_k,
    none when u is orthogonal to L_k but not to b_k, and p^(dim L_k - 1)
    otherwise. So a child's count needs only its r products with the basis,
    and the zero child's count is len(leaves).

    The filter is exact. S holds the low-weight rows orthogonal to chosen,
    reduced against it, less those inside span(chosen) (they reduce to zero).
    chosen + u + c has no vector of weight below d_min in its dual outside its
    span iff every row of S orthogonal to u and c lies in span(u, c). A row
    and its multiples are orthogonal to the same vectors, so S is kept as its
    lines, each weighted by its rows, M in all. Every child, leaf and vector
    of span(u, c) pivots after the last chosen row, i.e. has an index below
    ``size``; over that prefix, A(x) is the weight of S orthogonal to x, mu(x)
    its weight on the line of x and D = A - p mu.

    A row of S orthogonal to span(u, c) is orthogonal to all p + 1 lines of
    it, any other row to exactly one, so the weight G[u, c] of S orthogonal
    to u and c is (sum_L A(L) - M) / p over those lines L. c passes iff
    G[u, c] is the weight of S on span(u, c), i.e. iff sum_L D(L) = M, and
    the sum is never less. The zero child passes c iff A(c) = mu(c). With
    D_min the least D on a nonzero vector of the prefix, a child with
    D(u) + p D_min > M has no passing leaf, and a pair with
    D(u) + D(c) + (p - 1) D_min > M fails; only the children left get leaf
    candidates, and only the pairs left the exact sum. A is built
    ~sp.BLOCK_ENTRIES entries at a time: over the prefix (as D) only for nonzero
    children, at its leaves only for the zero child.
    """

    def __init__(
        self, table: _VectorTable, chosen: np.ndarray, pivots: List[int], basis: np.ndarray, leaves: np.ndarray
    ):
        self.table, self.leaves = table, leaves
        sel = table.low_weight
        if len(pivots) and len(sel):
            sel = fm.reduce_rows(chosen, pivots, sel[table.orthogonal_to(sel, chosen)], table.p)
        keys = table.monic_keys(sel)
        keys, counts = np.unique(keys[keys != 0], return_counts=True)
        self.lines, self.weights = table.vectors[keys].astype(np.float32), counts.astype(np.float32)
        self.total = int(counts.sum())
        self.size = int(table.after[pivots[-1] + 1 if pivots else 0])
        # the pivots q_k, the map to products with b_k, and p^dim L_k, or 0
        # where chosen is nonzero on q_k and no leaf pivots there
        self.classes = table.first_nz[basis @ table.radix]
        self.dual = (basis @ table.form).T
        sizes = table.radix[2 * table.n - len(basis) :]  # p^(r-1), ..., p, 1
        self.class_sizes = np.where(chosen.any(axis=0)[self.classes], 0, sizes)

    def orthogonal_weight(self, idx: np.ndarray) -> np.ndarray:
        """A at each vector of idx, a chunk at a time; every chunk reuses the
        same two buffers, so none of them faults in fresh pages."""
        t, p = self.table, self.table.p
        weight = np.empty(len(idx), dtype=np.float32)
        step = sp.block_rows(max(len(self.lines), 2 * t.n))
        partner = _partner_rows(self.lines, p).T
        buffers = np.empty((2, min(step, len(idx)), len(self.lines)), dtype=np.float32)
        for start in range(0, len(idx), step):
            x = t.vectors[idx[start : start + step]]
            products, multiple = buffers[:, : len(x)]
            np.matmul(x, partner, out=products)
            np.rint(np.divide(products, p, out=multiple), out=multiple)
            # 1.0 where p divides the product: x is orthogonal to the line
            np.equal(products, np.multiply(multiple, p, out=multiple), out=products)
            weight[start : start + len(x)] = products @ self.weights  # exact: integers below 2^22
        return weight.astype(np.int64)

    def line_weight(self) -> np.ndarray:
        """mu over the prefix."""
        t = self.table
        mu, lines = np.zeros(self.size, dtype=np.int64), self.lines.astype(np.int64)
        for gamma in range(1, t.p):
            idx = gamma * lines % t.p @ t.radix
            inside = idx < self.size
            mu[idx[inside]] = self.weights[inside]
        return mu

    @cached_property
    def excess(self) -> Tuple[np.ndarray, int]:
        """D over the prefix, and D_min."""
        excess = self.orthogonal_weight(np.arange(self.size)) - self.table.p * self.line_weight()
        return excess, int(excess[1:].min(initial=self.total))

    def ends(self, kids: np.ndarray) -> np.ndarray:
        """How many leaves, from the first, pivot after each child."""
        return np.searchsorted(self.leaves, self.table.after[self.table.first_nz[kids] + 1])

    def blocks(self, kids: np.ndarray) -> List[slice]:
        """Consecutive blocks of kids, each as large as its intermediates allow."""
        ends = np.maximum(self.ends(kids), 2 * self.table.n)
        blocks, start = [], 0
        while start < len(kids):
            # a block of count kids holds count * max(widest prefix, 2n) entries
            widest = np.maximum.accumulate(ends[start : start + sp.BLOCK_ENTRIES])
            entries = widest * np.arange(1, len(widest) + 1)
            count = max(1, int(np.searchsorted(entries, sp.BLOCK_ENTRIES, side="right")))
            blocks.append(slice(start, start + count))
            start += count
        return blocks

    def leaf_counts(self, kids: np.ndarray) -> np.ndarray:
        """How many leaves sit under each child, in closed form."""
        t, sizes = self.table, self.class_sizes
        u = t.vectors[kids]
        products = u @ self.dual % t.p
        # free[j, k]: kids[j] pivots before classes[k] and is zero there
        free = (self.classes > t.first_nz[kids][:, None]) & (u[:, self.classes] == 0)
        # flat[j, k]: kids[j] is orthogonal to L_k, the basis rows after row k
        flat = np.cumsum(products[:, ::-1], axis=1)[:, ::-1] == products
        return (free * np.where(flat, (products == 0) * sizes, sizes // t.p)).sum(axis=1)

    def leaf_candidates(self, kids: np.ndarray) -> np.ndarray:
        """cand[j, c]: leaves[c] is a leaf under kids[j], over the leaves
        that pivot after some child."""
        t = self.table
        leaves = self.leaves[: self.ends(kids).max(initial=0)]
        u = t.vectors[kids]
        # free[j, i]: a leaf with pivot i may sit under kids[j] (u pivots before i and is zero there)
        free = (u == 0) & (np.arange(2 * t.n) > t.first_nz[kids][:, None])
        cand = np.empty((len(kids), len(leaves)), dtype=bool)
        step = sp.block_rows(max(len(kids), 2 * t.n))
        for start in range(0, len(leaves), step):
            cols = leaves[start : start + step]
            cand[:, start : start + len(cols)] = free[:, t.first_nz[cols]] & t.orthogonal(u, t.vectors[cols])
        return cand

    def survivors(self, kids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The leaves of kids that pass the distance filter, as (child
        position, leaf position) pairs ordered by child, then leaf."""
        t, p = self.table, self.table.p
        if not kids.any():  # the zero child alone, with every leaf under it, or no child
            leaves = self.leaves if len(kids) else self.leaves[:0]
            ok = self.orthogonal_weight(leaves) == self.line_weight()[leaves]
            return np.zeros(int(ok.sum()), dtype=np.int64), np.flatnonzero(ok)
        excess, least = self.excess
        # the bound on sum_L D(L) leaves room for D(c); a child with no room for D_min is retired
        room = self.total - (p - 1) * least - excess[kids]
        live = np.flatnonzero(room >= least)
        if not len(live):
            return live, live
        cand = self.leaf_candidates(kids[live])
        leaves = self.leaves[: cand.shape[1]]
        j, c = np.nonzero(cand & (excess[leaves] <= room[live, None]))
        j = live[j]
        line_sums = excess[kids[j]] + excess[leaves[c]]
        step = sp.block_rows(2 * t.n)
        for start in range(0, len(j), step):
            u = t.vectors[kids[j[start : start + step]]].astype(np.int64)
            v = t.vectors[leaves[c[start : start + step]]].astype(np.int64)
            for gamma in range(1, p):  # the lines of u + gamma c
                line_sums[start : start + step] += excess[(u + gamma * v) % p @ t.radix]
        keep = line_sums == self.total
        return j[keep], c[keep]


def _power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """Whether base ** exponent > cap, for base >= 2, in exact integers: the
    exponent stops at cap.bit_length(), where 2 ** it already passes cap."""
    return base ** min(exponent, cap.bit_length()) > cap


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
    # nodes counts every child and leaf reached; the first count past the
    # budget sets exhausted and ends the search
    nodes, exhausted = 0, False

    def validate(rows: List[np.ndarray]) -> Optional[StabilizerCode]:
        code = StabilizerCode(p, n, rows)
        if code.distance is None or code.distance < q.d_min:
            return None
        if q.purity_required and not code.is_pure:
            return None
        return code

    def last_levels(chosen: np.ndarray, pivots: List[int], basis: np.ndarray, kids: np.ndarray, leaves: np.ndarray):
        nonlocal nodes, exhausted
        group = _SiblingGroup(table, chosen, pivots, basis, leaves)
        for block in group.blocks(kids):
            block = kids[block]
            # each child costs a node (the zero row stands for none), then its leaves do
            spent = np.column_stack([block != 0, group.leaf_counts(block)]).ravel()
            total = nodes + np.cumsum(spent)
            # the first spend past the budget ends the search; children before it are checked
            stop = int(np.searchsorted(total, q.budget, side="right"))
            for j, c in zip(*group.survivors(block[: stop // 2])):
                head = list(chosen) + ([vectors[block[j]]] if block[j] else [])
                code = validate(head + [vectors[leaves[c]]])
                if code is not None:
                    nodes = int(total[2 * j + 1])
                    return tuple(sp.to_string(r) for r in code.stab.basis)
            if stop < len(total):
                nodes, exhausted = int(total[stop]), True
                return None
            nodes = int(total[-1])
        return None

    def dfs(chosen: np.ndarray, pivots: List[int], basis: np.ndarray) -> Optional[Tuple[str, ...]]:
        nonlocal nodes, exhausted
        idx = table.candidates(chosen, pivots)
        if len(pivots) == m - 1:  # m = 1: the root's leaves, under no child row
            return last_levels(chosen, pivots, basis, np.zeros(1, dtype=np.int64), idx)
        if len(pivots) == m - 2:
            return last_levels(chosen, pivots, basis, idx, idx)
        for i, below in zip(idx, table.narrowed(basis, idx)):
            nodes += 1
            if nodes > q.budget:
                exhausted = True
                return None
            witness = dfs(np.vstack([chosen, vectors[i]]), pivots + [int(first_nz[i])], below)
            if witness is not None or exhausted:
                return witness
        return None

    try:
        witness = dfs(np.zeros((0, 2 * n), dtype=np.int64), [], np.eye(2 * n, dtype=np.int64))
    finally:
        # dfs holds itself through its closure; unbinding it breaks that cycle,
        # so the vector table is freed now instead of at a later gc pass
        dfs = None
    if witness is not None:
        return SearchResult("exists", nodes, witness)
    if exhausted:
        return SearchResult("inconclusive", nodes)
    return SearchResult("not_exists", nodes)
