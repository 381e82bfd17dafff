"""Stabilizer codes: parameters, syndromes, logical classes, coset-leader decoding.

A code is a self-orthogonal subspace C of F_p^{2n}; it encodes k = n - dim C
qudits and has distance d = min symplectic weight over C^perp_s \\ C.

Distance, purity and decoding scan symplectic-weight classes w = 0, 1, 2, ...
(``symplectic.support_vectors``) and stop at the first class that settles the
answer, so their cost follows the few low weights that matter, not the size
of a span. The decoder is exact: minimum symplectic weight outside the erased
positions, ties broken by the lexicographically smallest (a|b) tuple. Its
leaders, for every erased set, sit in one cache keyed by (erased set,
syndrome), and each decode call builds what its rows lack in one pass. Each
scan counts the class vectors it would generate and raises FeasibilityError
before generating past ENUM_CAP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from . import fieldmath as fm
from . import symplectic as sp


class CodeConstructionError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    """Raised when an exhaustive computation exceeds its configured cap."""


#: most weight-class vectors one distance scan, or one erased set's decoder, generates
ENUM_CAP = 1 << 22

#: most entries (rows x 2n) one decoder build step generates for the erased
#: sets that share a weight class (a larger class takes a step of its own);
#: below sp.BLOCK_ENTRIES because steps of 2^18 or 2^20 entries raise the
#: erasure benchmark's peak RSS from about 41.5 to 45.5 MB, and 2^14 does
#: not lower it
BUILD_ENTRIES = 1 << 16


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
        # the decoder cache, sorted by (erased-set id, syndrome key): the two
        # keys as separate int64 columns, never packed into one, and the
        # leaders; per erased set, its id and (next live weight, class vectors
        # generated so far)
        self._cache_sets = np.empty(0, dtype=np.int64)
        self._cache_keys = np.empty(0, dtype=np.int64)
        self._leaders = np.empty((0, 2 * n), dtype=np.uint8)
        self._erased_ids: dict = {}
        self._erased_sets: list = []
        self._progress: list = []

    @cached_property
    def dual(self) -> sp.SympSubspace:
        return sp.symp_dual(self.stab)

    @cached_property
    def _syndrome_check(self) -> np.ndarray:
        """The transposed syndrome matrix as float64, for ``fm.mat_mod``."""
        return sp.syndrome_matrix(self.stab.basis, self.p).T.astype(np.float64)

    @cached_property
    def _coset_map(self) -> np.ndarray:
        """``fm.reduction_map`` of the stabilizer; its basis is RREF already,
        so each row's pivot is its first nonzero entry."""
        basis = self.stab.basis
        return fm.reduction_map(basis, np.argmax(basis != 0, axis=1), self.p)

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
        err = np.asarray(err)
        if err.shape != (2 * self.n,):
            raise ValueError(f"error vector must have length {2 * self.n}")
        return tuple(self.syndromes_batch(err[None, :])[0].tolist())

    def syndromes_batch(self, errors: np.ndarray) -> np.ndarray:
        """Syndrome of each error row (entries of any sign or size), as int64
        in [0, p). One exact float64 product (``fm.mat_mod``): each syndrome
        entry sums 2n terms of at most (p - 1)^2, far below 2^53."""
        return fm.mat_mod(errors, self._syndrome_check, self.p)

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

    def decode(self, syndromes, erased: Union[Iterable[int], np.ndarray] = frozenset()) -> np.ndarray:
        """Minimum-weight error estimate for one syndrome, or for each row of a
        (rows, dim C) batch.

        ``erased`` gives each row its erased set: a (rows, n) boolean mask, or
        positions that every row shares. Weight is counted only outside a
        row's erased positions, which may carry arbitrary content. Ties go to
        the lexicographically smallest (a|b) tuple. Leaders of every erased
        set sit in one cache keyed by (erased set, syndrome); a call with
        pairs not decoded before extends it through one ``_decode_by_coset``
        call. Refuses a code whose p^dim(C) syndrome keys would overflow int64.
        """
        p, n, m = self.p, self.n, self.stab.dim
        syndromes = fm.reduced(np.asarray(syndromes, dtype=np.int64), p)
        rows = np.atleast_2d(syndromes)
        if rows.ndim != 2 or rows.shape[1] != m:
            raise ValueError(f"syndrome must have length {m}")
        mask = erasure_mask(erased, n, syndromes.shape[:-1]).reshape(len(rows), n)
        if p**m >= 1 << 63:
            raise FeasibilityError(f"{p}^{m} syndromes overflow the int64 syndrome keys")
        sets, keys, inverse = self._pairs(mask, rows @ self._syndrome_radix)
        at, cached = _search(self._cache_sets, self._cache_keys, sets, keys)
        if not cached.all():
            self._decode_by_coset(sets[~cached], keys[~cached])
            at = _search(self._cache_sets, self._cache_keys, sets, keys)[0]
        decoded = self._leaders[at[inverse]].astype(np.int64)
        return decoded[0] if syndromes.ndim == 1 else decoded

    def _pairs(self, mask: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The distinct (erased-set id, syndrome key) pairs of the rows, sorted,
        as two arrays, and the index of each row's pair in them."""
        words = _radix_words(np.packbits(mask, axis=1), 256)
        order = np.lexsort(words)
        new_set = np.zeros(len(order), dtype=bool)
        new_set[:1] = True
        for word in words:
            word = word[order]
            new_set[1:] |= word[1:] != word[:-1]
        ids = np.array([self._erased_id(mask[r]) for r in order[new_set]], dtype=np.int64)
        sets = np.empty(len(order), dtype=np.int64)
        sets[order] = ids[np.cumsum(new_set) - 1]
        # by key, then stably by set: two argsorts, faster than one lexsort
        order = np.argsort(keys)
        order = order[np.argsort(sets[order], kind="stable")]
        sets, keys = sets[order], keys[order]
        new_pair = np.ones(len(order), dtype=bool)
        new_pair[1:] = (sets[1:] != sets[:-1]) | (keys[1:] != keys[:-1])
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(new_pair) - 1
        return sets[new_pair], keys[new_pair], inverse

    def _erased_id(self, row: np.ndarray) -> int:
        """Id of the erased set a mask row flags; a new set starts at live weight 0."""
        erased = tuple(np.flatnonzero(row).tolist())
        if erased not in self._erased_ids:
            self._erased_ids[erased] = len(self._erased_sets)
            self._erased_sets.append(erased)
            self._progress.append((0, 0))
        return self._erased_ids[erased]

    def _decode_by_coset(self, sets: np.ndarray, keys: np.ndarray) -> None:
        """Extend the leader cache until it holds every (erased-set id,
        syndrome key) pair of the sorted arrays sets, keys.

        Each round, every erased set still missing a syndrome gains its next
        live-weight class w: w nonzero pairs off the erased set, every one of
        the p^(2e) contents on it, resuming after the last class generated
        for that set. A syndrome first met in class w has no vector of lower
        live weight, so the lex-smallest row of the class with that syndrome
        is its exact leader. The sets that share (e, w) are built together,
        as many per step as fit BUILD_ENTRIES, per-pair minima are merged
        across the blocks of a step, and the round's new leaders join the
        cache in one merge. A set is refused before generating a class that
        would take the vectors generated for it past ENUM_CAP.
        """
        n = self.n
        q = self.p * self.p
        max_rows = max(1, BUILD_ENTRIES // (2 * n))
        while len(sets):
            classes: dict = {}
            for s in sets[np.flatnonzero(np.diff(sets, prepend=-1))].tolist():
                erased, (w, generated) = self._erased_sets[s], self._progress[s]
                size = comb(n - len(erased), w) * (q - 1) ** w * q ** len(erased)
                if generated + size > ENUM_CAP:
                    raise FeasibilityError(
                        f"decoding with {len(erased)} erased positions enumerates "
                        f"{generated + size} weight-class vectors through weight {w}, "
                        f"over cap {ENUM_CAP}"
                    )
                classes.setdefault((len(erased), w, size), []).append(s)
            steps = []
            for (e, w, size), group in sorted(classes.items()):
                per_step = max(1, max_rows // size)
                for start in range(0, len(group), per_step):
                    steps.append(self._build_class(group[start : start + per_step], e, w, size))
            # a set sits in one step, whose pairs are sorted, so a stable sort
            # by set sorts the round by (set, key)
            at, new_sets, new_keys, new_rows = (np.concatenate(part) for part in zip(*steps))
            order = np.argsort(new_sets, kind="stable")
            at, new_sets, new_keys, new_rows = at[order], new_sets[order], new_keys[order], new_rows[order]
            self._cache_sets = np.insert(self._cache_sets, at, new_sets)
            self._cache_keys = np.insert(self._cache_keys, at, new_keys)
            self._leaders = np.insert(self._leaders, at, new_rows, axis=0)
            missing = ~_search(new_sets, new_keys, sets, keys)[1]
            sets, keys = sets[missing], keys[missing]

    def _build_class(self, sets: list, e: int, w: int, size: int) -> Tuple[np.ndarray, ...]:
        """Generate live-weight class w of each erased set of size e in sets
        (size vectors each); returns the cache position, set, key and uint8
        leader of each pair the class leads and the cache lacks, sorted by
        (set, key)."""
        p, n = self.p, self.n
        supports = [
            erased + tail
            for erased in (self._erased_sets[s] for s in sets)
            for tail in itertools.combinations([i for i in range(n) if i not in erased], w)
        ]
        owners = np.asarray(sets, dtype=np.int64)
        found, done = None, 0
        for block in sp.support_vectors(n, p, supports, free=e):
            owner = owners[(done + np.arange(len(block))) // size]
            done += len(block)
            keys = fm.mat_mod(block, self._syndrome_check, p) @ self._syndrome_radix
            step = _lex_first(owner, keys, block.astype(np.uint8), p)
            if found is not None:
                step = _lex_first(*(np.concatenate(pair) for pair in zip(found, step)), p)
            found = step
        for s in sets:
            self._progress[s] = (w + 1, self._progress[s][1] + size)
        at, cached = _search(self._cache_sets, self._cache_keys, *found[:2])
        fresh = ~cached
        return at[fresh], found[0][fresh], found[1][fresh], found[2][fresh]

    def coset_representatives(self, rows: np.ndarray) -> np.ndarray:
        """Canonical C-coset representative of each row (entries of any sign
        or size; the zero row for rows in C). The stabilizer's RREF basis is
        the identity on its pivot columns, so a representative is zero there
        and rows @ K is all of it, for one map K cached per code: one exact
        float64 product (``fm.mat_mod``; each entry sums 2n terms of at most
        (p - 1)^2, far below 2^53)."""
        return fm.mat_mod(rows, self._coset_map, self.p)

    def logical_class(self, residual: np.ndarray) -> LogicalClass:
        """Canonical C-coset label; non-correctable if residual is outside C^perp_s."""
        residual = np.asarray(residual)[None, :]
        if self.syndromes_batch(residual).any():
            return NON_CORRECTABLE
        return LogicalClass(tuple(self.coset_representatives(residual)[0].tolist()))

    def __repr__(self):
        return f"StabilizerCode(p={self.p}, n={self.n}, k={self.k})"


def erasure_mask(erased: Union[Iterable[int], np.ndarray], n: int, rows: Tuple[int, ...]) -> np.ndarray:
    """The erased positions as a boolean mask of shape rows + (n,). ``erased``
    is such a mask, or positions (each in range(n)) that every row shares."""
    if isinstance(erased, np.ndarray) and erased.dtype == bool:
        if erased.shape != rows + (n,):
            raise ValueError(f"erasure mask must have shape {rows + (n,)}")
        return erased
    positions = sorted({int(i) for i in erased})
    if any(i < 0 or i >= n for i in positions):
        raise ValueError(f"erased positions out of range for n={n}")
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return np.broadcast_to(mask, rows + (n,))


def _search(sets: np.ndarray, keys: np.ndarray, at_sets: np.ndarray, at_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per (set, key) pair of the sorted arrays at_sets, at_keys: its position
    in the (set, key)-sorted columns sets, keys, and whether it is there.

    Two int64 searches: the slice of each set in sets, then the keys within it.
    """
    starts = np.flatnonzero(np.diff(at_sets, prepend=-1))
    bounds = zip(
        starts.tolist(),
        np.append(starts[1:], len(at_sets)).tolist(),
        np.searchsorted(sets, at_sets[starts]).tolist(),
        np.searchsorted(sets, at_sets[starts], side="right").tolist(),
    )
    at = np.empty(len(at_sets), dtype=np.intp)
    for start, stop, lo, hi in bounds:
        at[start:stop] = lo + np.searchsorted(keys[lo:hi], at_keys[start:stop])
    there = at < len(sets)
    hit = at[there]
    there[there] = (sets[hit] == at_sets[there]) & (keys[hit] == at_keys[there])
    return at, there


def _radix_words(digits: np.ndarray, base: int) -> list:
    """Each row of base-``base`` digits as int64 numbers of at most 62 bits,
    the first for the leading columns: sorting by them sorts the rows
    lexicographically."""
    width = max(1, 62 // base.bit_length())
    return [
        digits[:, i : i + width] @ base ** np.arange(min(width, digits.shape[1] - i) - 1, -1, -1, dtype=np.int64)
        for i in range(0, digits.shape[1], width)
    ]


def _lex_first(sets: np.ndarray, keys: np.ndarray, rows: np.ndarray, p: int) -> Tuple[np.ndarray, ...]:
    """(distinct (set, key) pairs in sorted order as two arrays, the
    lexicographically smallest row with each pair)."""
    order = np.lexsort((*_radix_words(rows, p)[::-1], keys, sets))
    sets, keys, rows = sets[order], keys[order], rows[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (sets[1:] != sets[:-1])
    return sets[first], keys[first], rows[first]


def min_weight_outside(sub: sp.SympSubspace) -> Tuple[Optional[int], Optional[int]]:
    """(min weight over sub^perp_s \\ sub, min nonzero weight over sub^perp_s).

    Both are None when sub^perp_s lies inside sub. Otherwise weight classes
    w = 1, 2, ... are scanned up to the first one holding a vector of
    sub^perp_s (zero syndrome against sub) outside sub; refused before a
    class that would take the vectors generated past ENUM_CAP.
    """
    p, n = sub.p, sub.n
    # sub meets its dual in dim(sub) - rank(gram) dimensions, and the dual
    # (of dimension 2n - dim(sub)) lies inside sub iff it is that intersection
    if 2 * n - sub.dim == sub.dim - fm.rank(sp.gram(sub), p):
        return None, None
    r, pivots = fm.rref(sub.basis, p)
    reduction = fm.reduction_map(r[: len(pivots)], pivots, p)
    check = sp.syndrome_matrix(sub.basis, p).T.astype(np.float64)
    min_nonzero, generated = None, 0
    for w in range(1, n + 1):
        generated += comb(n, w) * (p * p - 1) ** w
        if generated > ENUM_CAP:
            raise FeasibilityError(
                f"minimum-weight enumeration needs {generated} vectors through weight {w}, "
                f"over cap {ENUM_CAP}"
            )
        for block in sp.support_vectors(n, p, itertools.combinations(range(n), w)):
            dual = block[~np.any(fm.mat_mod(block, check, p), axis=1)]
            if len(dual):
                min_nonzero = min_nonzero or w
                if np.any(fm.mat_mod(dual, reduction, p)):
                    return w, min_nonzero
    raise AssertionError("the dual lies outside sub but has no vector of weight at most n")
