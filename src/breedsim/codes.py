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


#: decode_table() refuses when its p^(2n) coset vectors exceed this cap
TABLE_CAP = 1 << 20
ENUM_CAP = 1 << 22
#: entries of one (rows, coset vectors, columns) block of the coset enumeration
BLOCK_ENTRIES = 1 << 20


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
        # erased set -> (sorted syndrome keys, their leaders)
        self._leaders: dict = {}

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
    def _syndrome_radix(self) -> np.ndarray:
        m = self.stab.dim
        return self.p ** np.arange(m - 1, -1, -1, dtype=np.int64)

    @cached_property
    def _decode_table(self) -> np.ndarray:
        """Coset-leader table: syndrome index (mixed radix) -> leader vector."""
        p, n = self.p, self.n
        if fm.span_size(2 * n, p) > TABLE_CAP:
            raise FeasibilityError(
                f"decoder table enumerates {p}^{2 * n} vectors, over cap {TABLE_CAP}"
            )
        keys = np.arange(p**self.stab.dim, dtype=np.int64)
        return self.decode(keys[:, None] // self._syndrome_radix % p)

    def decode_table(self) -> np.ndarray:
        return self._decode_table

    def coset_size(self) -> int:
        """Vectors ``decode`` enumerates per syndrome it has not decoded before: p^dim(dual)."""
        return fm.span_size(self.dual.dim, self.p)

    def decode(self, syndromes, erased: Iterable[int] = frozenset()) -> np.ndarray:
        """Minimum-weight error estimate for one syndrome, or for each row of a
        (rows, dim C) batch.

        Weight is counted only outside the erased positions; erased positions
        may carry arbitrary content. Ties go to the lexicographically smallest
        (a|b) tuple. Leaders are cached per erased set; the syndromes of a call
        not decoded before are decoded together, and refused before
        enumerating when their count times ``coset_size()`` exceeds ENUM_CAP.
        """
        p, n, m = self.p, self.n, self.stab.dim
        syndromes = np.asarray(syndromes, dtype=np.int64) % p
        rows = np.atleast_2d(syndromes)
        if rows.ndim != 2 or rows.shape[1] != m:
            raise ValueError(f"syndrome must have length {m}")
        erased = frozenset(int(i) for i in erased)
        if any(i < 0 or i >= n for i in erased):
            raise ValueError(f"erased positions out of range for n={n}")
        # keys fit int64 whenever decode can answer: p^dim(C) <= coset_size() <= ENUM_CAP
        keys, inverse = np.unique(rows @ self._syndrome_radix, return_inverse=True)
        empty = (keys[:0], np.zeros((0, 2 * n), dtype=np.int64))
        known, leaders = self._leaders.get(erased, empty)
        new = np.setdiff1d(keys, known, assume_unique=True)
        if len(new):
            work = len(new) * self.coset_size()
            if work > ENUM_CAP:
                raise FeasibilityError(
                    f"decoding {len(new)} syndromes enumerates {work} coset vectors, "
                    f"over cap {ENUM_CAP}"
                )
            found = self._decode_by_coset(new[:, None] // self._syndrome_radix % p, erased)
            known, leaders = np.concatenate([known, new]), np.vstack([leaders, found])
            order = np.argsort(known)
            self._leaders[erased] = known, leaders = known[order], leaders[order]
        decoded = leaders[np.searchsorted(known, keys)][inverse.reshape(-1)]
        return decoded[0] if syndromes.ndim == 1 else decoded

    @cached_property
    def _coset_basis(self) -> Tuple[np.ndarray, np.ndarray]:
        """(RREF basis of the dual, lift L): s @ L has syndrome s and is zero on
        every pivot column of that basis."""
        p, m = self.p, self.stab.dim
        r, pivots = fm.rref(self.dual.basis, p)
        basis = r[: len(pivots)]
        unit = np.eye(m, dtype=np.int64)
        lift = np.array([fm.solve(self._syndrome_matrix, e, p) for e in unit], dtype=np.int64)
        # the dual is the syndrome kernel, so reducing against it keeps each syndrome
        return basis, fm.reduce_rows(basis, pivots, lift.reshape(m, 2 * self.n), p)

    def _decode_by_coset(self, syndromes: np.ndarray, erased: FrozenSet[int]) -> np.ndarray:
        """Leaders of a (rows, dim C) syndrome batch, enumerating the coset
        x0 + dual of every row together in blocks of about BLOCK_ENTRIES."""
        p, n = self.p, self.n
        basis, lift = self._coset_basis
        x0 = syndromes @ lift % p
        live = np.asarray([i for i in range(n) if i not in erased], dtype=np.int64)
        cols = np.concatenate([live, n + live])
        # x0 + v is nonzero at a column exactly where v differs from -x0
        target = (-x0[:, None, cols]) % p
        rows = len(x0)
        best_w = np.full(rows, n + 1)
        best_v = np.zeros_like(x0)
        # x0 is zero on every pivot column of the RREF basis, so x0 + v carries
        # v's coefficients there and agrees with every vector of the span that
        # shares its leading coefficients up to each pivot: the coefficient
        # order of iter_span_batches is lex order of x0 + v. So the first
        # minimum of argmin, replaced across batches only by a strictly smaller
        # weight, is the lex-smallest minimum-weight vector of the coset.
        batch_size = max(1, BLOCK_ENTRIES // (rows * 2 * n))
        for batch in fm.iter_span_batches(basis, p, batch_size):
            differs = batch[None, :, cols] != target
            w = np.count_nonzero(differs[..., : len(live)] | differs[..., len(live) :], axis=2)
            first = w.argmin(axis=1)
            w_first = w[np.arange(rows), first]
            better = w_first < best_w
            best_w[better] = w_first[better]
            best_v[better] = batch[first[better]]
        return (x0 + best_v) % p

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
