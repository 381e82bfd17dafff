"""Stabilizer codes: parameters, syndromes, logical classes, coset-leader decoding.

A code is a self-orthogonal subspace C of F_p^{2n}; it encodes k = n - dim C
qudits and has distance d = min symplectic weight over C^perp_s \\ C.
The decoder is exact: minimum symplectic weight outside the erased positions,
ties broken by the lexicographically smallest (a|b) tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from . import fieldmath as fm
from . import symplectic as sp


class CodeConstructionError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    """Raised when an exhaustive computation exceeds its configured cap."""


#: syndrome/coset tables are only built when the relevant space fits this cap
TABLE_CAP = 1 << 20
ENUM_CAP = 1 << 22


@dataclass(frozen=True)
class LogicalClass:
    """Canonical C-coset label of a residual error, or non-correctable."""

    representative: Optional[Tuple[int, ...]]  # None = residual outside C^perp_s

    @property
    def is_correctable(self) -> bool:
        return self.representative is not None

    @property
    def is_identity(self) -> bool:
        return self.representative is not None and not any(self.representative)


NON_CORRECTABLE = LogicalClass(None)


class StabilizerCode:
    """A validated stabilizer code with cached parameters and decoder tables."""

    def __init__(self, p: int, n: int, generators: Iterable[np.ndarray]):
        p = fm.check_modulus(p)
        stab = sp.SympSubspace.from_rows(p, n, list(generators))
        g = sp.gram(stab)
        bad = np.argwhere(g != 0)
        if bad.size:
            i, j = bad[0]
            raise CodeConstructionError(
                f"generators are not self-orthogonal: basis rows {i} and {j} have "
                f"symplectic product {int(g[i, j])} != 0"
            )
        self.p = p
        self.n = n
        self.stab = stab
        self.k = n - stab.dim
        self._erasure_cache: dict = {}

    @cached_property
    def dual(self) -> sp.SympSubspace:
        return sp.symp_dual(self.stab)

    @cached_property
    def _syndrome_matrix(self) -> np.ndarray:
        return sp.syndrome_matrix(self.stab.basis, self.p)

    @cached_property
    def _stab_pivots(self):
        r, pivots = fm.rref(self.stab.basis, self.p)
        return r[: len(pivots)], pivots

    @cached_property
    def _distance_and_purity(self) -> Tuple[Optional[int], Optional[bool]]:
        distance, min_nonzero = min_weight_outside(self.dual, self.stab)
        return distance, None if distance is None else distance == min_nonzero

    @cached_property
    def distance(self) -> Optional[int]:
        """Minimum weight over C^perp_s \\ C, or None when that set is empty."""
        return self._distance_and_purity[0]

    @cached_property
    def is_pure(self) -> Optional[bool]:
        return self._distance_and_purity[1]

    def syndrome(self, err: np.ndarray) -> Tuple[int, ...]:
        err = np.asarray(err, dtype=np.int64) % self.p
        if err.shape != (2 * self.n,):
            raise ValueError(f"error vector must have length {2 * self.n}")
        return tuple(int(x) for x in self._syndrome_matrix @ err % self.p)

    def syndromes_batch(self, errors: np.ndarray) -> np.ndarray:
        return errors % self.p @ self._syndrome_matrix.T % self.p

    @cached_property
    def _decode_table(self) -> np.ndarray:
        """Coset-leader table: syndrome index (mixed radix) -> leader vector."""
        p, n, m = self.p, self.n, self.stab.dim
        if fm.span_size(2 * n, p) > TABLE_CAP:
            raise FeasibilityError(
                f"syndrome table needs {p}^{2 * n} entries, over cap {TABLE_CAP}"
            )
        radix = self._syndrome_radix
        table = np.zeros((p**m, 2 * n), dtype=np.int64)
        best_w = np.full(p**m, 2 * n + 1, dtype=np.int64)
        full = np.eye(2 * n, dtype=np.int64)
        for batch in fm.iter_span_batches(full, p):
            w = sp.symp_weights(batch)
            syn = self.syndromes_batch(batch) @ radix
            # enumeration order is lex; sorting by (weight, lex index) and
            # taking first occurrences gives each syndrome's batch-local leader
            order = np.lexsort((np.arange(len(batch)), w))
            uniq, first = np.unique(syn[order], return_index=True)
            cand_idx = order[first]
            better = w[cand_idx] < best_w[uniq]
            table[uniq[better]] = batch[cand_idx[better]]
            best_w[uniq[better]] = w[cand_idx[better]]
        if np.any(best_w > 2 * n):
            raise AssertionError("coset-leader table left a reachable syndrome without a leader")
        return table

    @cached_property
    def _syndrome_radix(self) -> np.ndarray:
        m = self.stab.dim
        return self.p ** np.arange(m - 1, -1, -1, dtype=np.int64)

    def decode_table(self) -> np.ndarray:
        return self._decode_table

    def decode(self, syndrome: Tuple[int, ...], erased: FrozenSet[int] = frozenset()) -> np.ndarray:
        """Minimum-weight error estimate for a syndrome.

        Weight is counted only outside the erased positions; erased positions
        may carry arbitrary content. Ties go to the lexicographically smallest
        (a|b) tuple. Raises ValueError for an unreachable syndrome.
        """
        p, n = self.p, self.n
        syndrome = tuple(int(s) % p for s in syndrome)
        if len(syndrome) != self.stab.dim:
            raise ValueError(f"syndrome must have length {self.stab.dim}")
        erased = frozenset(int(i) for i in erased)
        if any(i < 0 or i >= n for i in erased):
            raise ValueError(f"erased positions out of range for n={n}")
        if not self.coset_size(erased):
            radix = self._syndrome_radix
            return self._decode_table[int(np.asarray(syndrome) @ radix)].copy()
        key = (erased, syndrome)
        cached = self._erasure_cache.get(key)
        if cached is not None:
            return cached.copy()
        leader = self._decode_by_coset(syndrome, erased)
        self._erasure_cache[key] = leader
        return leader.copy()

    def coset_size(self, erased: Iterable[int] = ()) -> int:
        """Vectors ``decode`` enumerates per syndrome for this erased set: 0 when
        the syndrome table answers (no erasure, p^(2n) <= TABLE_CAP), else p^dim(dual)."""
        if not erased and fm.span_size(2 * self.n, self.p) <= TABLE_CAP:
            return 0
        return fm.span_size(self.dual.dim, self.p)

    def decode_batch(self, syndromes: np.ndarray, erased: FrozenSet[int] = frozenset()) -> np.ndarray:
        """``decode`` of every syndrome row.

        On the table path (``coset_size`` 0) one index into the leader table
        answers every row; otherwise ``decode`` runs once per distinct syndrome,
        and the batch is refused before decoding when the distinct syndromes
        times ``coset_size`` exceed ENUM_CAP.
        """
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.int64)) % self.p
        if syndromes.shape[1] != self.stab.dim:
            raise ValueError(f"syndrome must have length {self.stab.dim}")
        # keys fit int64 whenever decode can answer: both of its paths cap p^dim(C) below 2^22
        keys = syndromes @ self._syndrome_radix
        size = self.coset_size(erased)
        if not size:
            return self._decode_table[keys]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        work = len(first) * size
        if work > ENUM_CAP:
            raise FeasibilityError(
                f"decoding {len(first)} syndromes enumerates {work} coset vectors, "
                f"over cap {ENUM_CAP}"
            )
        leaders = np.array([self.decode(syndromes[i], erased) for i in first], dtype=np.int64)
        return leaders.reshape(len(first), 2 * self.n)[inverse.reshape(-1)]

    def _decode_by_coset(self, syndrome, erased) -> np.ndarray:
        p, n = self.p, self.n
        x0 = fm.solve(self._syndrome_matrix, np.asarray(syndrome, dtype=np.int64), p)
        dual = self.dual
        if fm.span_size(dual.dim, p) > ENUM_CAP:
            raise FeasibilityError(
                f"coset enumeration needs {p}^{dual.dim} vectors, over cap {ENUM_CAP}"
            )
        live = np.asarray([i for i in range(n) if i not in erased], dtype=np.int64)
        best = None
        best_key = None
        for batch in fm.iter_span_batches(dual.basis, p):
            cand = (batch + x0) % p
            w = np.count_nonzero((cand[:, live] != 0) | (cand[:, n + live] != 0), axis=1)
            for idx in np.flatnonzero(w == w.min()):
                key = (int(w[idx]), tuple(int(x) for x in cand[idx]))
                if best_key is None or key < best_key:
                    best_key = key
                    best = cand[idx]
        if best is None:
            raise AssertionError("coset enumeration produced no candidate")
        return best

    def coset_representatives(self, rows: np.ndarray) -> np.ndarray:
        """Canonical C-coset representative of each row (the zero row for rows in C)."""
        basis, pivots = self._stab_pivots
        return fm.reduce_rows(basis, pivots, rows, self.p)

    def logical_class(self, residual: np.ndarray) -> LogicalClass:
        """Canonical C-coset label; non-correctable if residual is outside C^perp_s."""
        residual = np.asarray(residual, dtype=np.int64) % self.p
        if np.any(self._syndrome_matrix @ residual % self.p):
            return NON_CORRECTABLE
        rep = self.coset_representatives(residual[None, :])[0]
        return LogicalClass(tuple(int(x) for x in rep))

    def __repr__(self):
        return f"StabilizerCode(p={self.p}, n={self.n}, k={self.k})"


def min_weight_outside(
    outer: sp.SympSubspace, inner: sp.SympSubspace, cap: int = ENUM_CAP
) -> Tuple[Optional[int], Optional[int]]:
    """(min weight over span(outer) \\ span(inner), min nonzero weight over span(outer)).

    Both are None when span(outer) lies inside span(inner); otherwise the
    p^dim(outer) vectors of span(outer) are enumerated, refused above cap.
    """
    p = outer.p
    r, pivots = fm.rref(inner.basis, p)
    basis = r[: len(pivots)]
    if not np.any(fm.reduce_rows(basis, pivots, outer.basis, p)):
        return None, None
    if fm.span_size(outer.dim, p) > cap:
        raise FeasibilityError(
            f"minimum-weight enumeration needs {p}^{outer.dim} vectors, over cap {cap}"
        )
    # a basis row of outer lies outside inner, so both minima end below this start
    best_outside = best_nonzero = 2 * outer.n + 1
    for batch in fm.iter_span_batches(outer.basis, p):
        w = sp.symp_weights(batch)
        outside = np.any(fm.reduce_rows(basis, pivots, batch, p), axis=1)
        best_outside = int(w[outside].min(initial=best_outside))
        best_nonzero = int(w[w > 0].min(initial=best_nonzero))
    return best_outside, best_nonzero


def make_code(p: int, n: int, generators: Iterable[np.ndarray]) -> StabilizerCode:
    return StabilizerCode(p, n, generators)
