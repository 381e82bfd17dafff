"""Stabilizer codes: parameters, syndromes, logical classes, coset-leader decoding.

A code is a self-orthogonal subspace C of F_p^{2n}; it encodes k = n - dim C
qudits and has distance d = min symplectic weight over C^perp_s \\ C.

Distance, purity and decoding scan symplectic-weight classes w = 0, 1, 2, ...
(``symplectic.support_vectors``) and stop at the first class that settles the
answer, so their cost follows the few low weights that matter, not the size
of a span. The decoder is exact: minimum symplectic weight outside the erased
positions, ties broken by the lexicographically smallest (a|b) tuple. Each
scan counts the class vectors it would generate and raises FeasibilityError
before generating past ENUM_CAP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from . import fieldmath as fm
from . import symplectic as sp


class CodeConstructionError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    """Raised when an exhaustive computation exceeds its configured cap."""


#: most weight-class vectors one distance scan, or one erased set's decoder, generates
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
        # erased set -> (sorted syndrome keys, their leaders, next live weight,
        # class vectors generated so far)
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
        distance, min_nonzero = min_weight_outside(self.stab)
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
        p, m = self.p, self.stab.dim
        # every leader is one generated class vector, so more syndromes than
        # ENUM_CAP could never be decoded
        if p**m > ENUM_CAP:
            raise FeasibilityError(f"decoder table of {p}^{m} syndromes exceeds cap {ENUM_CAP}")
        keys = np.arange(p**m, dtype=np.int64)
        return self.decode(keys[:, None] // self._syndrome_radix % p)

    def decode_table(self) -> np.ndarray:
        return self._decode_table

    def decode(self, syndromes, erased: Iterable[int] = frozenset()) -> np.ndarray:
        """Minimum-weight error estimate for one syndrome, or for each row of a
        (rows, dim C) batch.

        Weight is counted only outside the erased positions; erased positions
        may carry arbitrary content. Ties go to the lexicographically smallest
        (a|b) tuple. Leaders are cached per erased set; a call with syndromes
        not decoded before extends that cache through ``_decode_by_coset``.
        Refuses a code whose p^dim(C) syndrome keys would overflow int64.
        """
        p, n, m = self.p, self.n, self.stab.dim
        syndromes = np.asarray(syndromes, dtype=np.int64) % p
        rows = np.atleast_2d(syndromes)
        if rows.ndim != 2 or rows.shape[1] != m:
            raise ValueError(f"syndrome must have length {m}")
        erased = frozenset(int(i) for i in erased)
        if any(i < 0 or i >= n for i in erased):
            raise ValueError(f"erased positions out of range for n={n}")
        if p**m >= 1 << 63:
            raise FeasibilityError(f"{p}^{m} syndromes overflow the int64 syndrome keys")
        keys, inverse = np.unique(rows @ self._syndrome_radix, return_inverse=True)
        entry = self._leaders.get(erased)
        if entry is None or not np.isin(keys, entry[0], assume_unique=True).all():
            entry = self._decode_by_coset(keys, erased)
        known, leaders = entry[:2]
        decoded = leaders[np.searchsorted(known, keys)][inverse.reshape(-1)]
        return decoded[0] if syndromes.ndim == 1 else decoded

    def _decode_by_coset(self, keys: np.ndarray, erased: FrozenSet[int]) -> tuple:
        """Extend the leader cache of one erased set until it holds every
        syndrome key in keys; returns its cache entry.

        Generates live-weight classes w = 0, 1, ...: w nonzero pairs off the
        erased set, every one of the p^(2e) contents on it, resuming after the
        last class generated for this erased set. A syndrome first met in
        class w has no vector of lower live weight, so the lex-smallest row of
        the class with that syndrome is its exact leader. Each class is taken
        in blocks and the per-syndrome minima are merged across blocks.
        Refused before generating a class that would take the vectors
        generated for this erased set past ENUM_CAP.
        """
        p, n = self.p, self.n
        empty = (keys[:0], np.zeros((0, 2 * n), dtype=np.int64), 0, 0)
        known, leaders, w, generated = self._leaders.get(erased, empty)
        free = sorted(erased)
        live = [i for i in range(n) if i not in erased]
        check = self._syndrome_matrix.T
        while not np.isin(keys, known, assume_unique=True).all():
            generated += comb(len(live), w) * (p * p - 1) ** w * p ** (2 * len(free))
            if generated > ENUM_CAP:
                raise FeasibilityError(
                    f"decoding with {len(free)} erased positions enumerates {generated} "
                    f"weight-class vectors through weight {w}, over cap {ENUM_CAP}"
                )
            supports = (
                head + tail
                for e in range(len(free) + 1)
                for head in itertools.combinations(free, e)
                for tail in itertools.combinations(live, w)
            )
            found = [
                _lex_first(block @ check % p @ self._syndrome_radix, block)
                for block in sp.support_vectors(n, p, supports)
            ]
            found_keys, found_rows = _lex_first(
                np.concatenate([k for k, _ in found]), np.vstack([r for _, r in found])
            )
            fresh = ~np.isin(found_keys, known, assume_unique=True)
            known = np.concatenate([known, found_keys[fresh]])
            leaders = np.vstack([leaders, found_rows[fresh]])
            order = np.argsort(known)
            known, leaders, w = known[order], leaders[order], w + 1
            self._leaders[erased] = known, leaders, w, generated
        return self._leaders[erased]

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


def _lex_first(keys: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted distinct keys, the lexicographically smallest row with each key)."""
    order = np.lexsort((*rows.T[::-1], keys))
    keys, rows = keys[order], rows[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], rows[first]


def min_weight_outside(
    sub: sp.SympSubspace, cap: int = ENUM_CAP
) -> Tuple[Optional[int], Optional[int]]:
    """(min weight over sub^perp_s \\ sub, min nonzero weight over sub^perp_s).

    Both are None when sub^perp_s lies inside sub. Otherwise weight classes
    w = 1, 2, ... are scanned up to the first one holding a vector of
    sub^perp_s (zero syndrome against sub) outside sub; refused before a
    class that would take the vectors generated past cap.
    """
    p, n = sub.p, sub.n
    # sub meets its dual in dim(sub) - rank(gram) dimensions, and the dual
    # (of dimension 2n - dim(sub)) lies inside sub iff it is that intersection
    if 2 * n - sub.dim == sub.dim - fm.rank(sp.gram(sub), p):
        return None, None
    r, pivots = fm.rref(sub.basis, p)
    basis = r[: len(pivots)]
    check = sp.syndrome_matrix(sub.basis, p).T
    min_nonzero, generated = None, 0
    for w in range(1, n + 1):
        generated += comb(n, w) * (p * p - 1) ** w
        if generated > cap:
            raise FeasibilityError(
                f"minimum-weight enumeration needs {generated} vectors through weight {w}, "
                f"over cap {cap}"
            )
        for block in sp.support_vectors(n, p, itertools.combinations(range(n), w)):
            dual = block[~np.any(block @ check % p, axis=1)]
            if len(dual):
                min_nonzero = min_nonzero or w
                if np.any(fm.reduce_rows(basis, pivots, dual, p)):
                    return w, min_nonzero
    raise AssertionError("the dual lies outside sub but has no vector of weight at most n")
