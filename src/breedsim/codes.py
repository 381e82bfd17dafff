"""Stabilizer codes: parameters, syndromes, logical classes, coset-leader decoding.

A code is a self-orthogonal subspace C of F_p^{2n}; it encodes k = n - dim C
qudits and has distance d = min symplectic weight over C^perp_s \\ C.

Distance, purity and decoding scan symplectic-weight classes w = 0, 1, 2, ...
(``symplectic.support_vectors``) and stop at the first class that settles the
answer, so their cost follows the few low weights that matter, not the size
of a span. The decoder is exact: minimum symplectic weight outside the erased
positions, ties broken by the lexicographically smallest (a|b) tuple. It
builds each weight class once per code, over all n positions, sorted by
(syndrome key, lex rank). The leader of erased set E and syndrome s is y + z:
y one of the p^(2e) contents on E, z the lex-smallest row of the lowest class
with the key of s - syn(y) that misses E. With nothing erased that is the
first row with the key of s in the lowest class that holds it, read off the
sorted classes by one search per class. A decode call answers the
(erased set, syndrome) pairs its rows lack on the empty set that way, joins
the others against the classes at once, and keeps every leader in one cache
sorted by pair. Each scan counts the class vectors it would generate, and
the decoder the contents of a call's largest erased set
(``check_decoder_work``), and raises FeasibilityError before generating past
ENUM_CAP.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import FrozenSet, Iterable, Optional, Tuple, Union

import numpy as np

from . import fieldmath as fm
from . import symplectic as sp


class CodeConstructionError(ValueError):
    pass


class FeasibilityError(RuntimeError):
    """Raised when an exhaustive computation exceeds its configured cap."""


#: most weight-class vectors one distance scan, or the decoder of one code,
#: generates; also the most contents one erased set may take, the most
#: vectors the search's table holds and the most terms the exact oracle sums
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
        # the decoder: the live-weight classes built so far; the leader
        # cache, sorted by (erased set, syndrome) pair key
        self._classes: list = []
        self._cache_keys = self._pair_keys(np.zeros((0, n), dtype=bool), np.zeros((0, stab.dim), dtype=np.int64))
        self._leaders = np.empty((0, 2 * n), dtype=np.uint8)

    @cached_property
    def dual(self) -> sp.SympSubspace:
        return sp.symp_dual(self.stab)

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
        return fm.mat_mod(errors, self.stab.syndrome_map, self.p)

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
        set sit in one cache sorted by (erased set, syndrome). A call extends
        it by the pairs it asks for that were not decoded before: those of the
        empty set are read off the weight classes (``_unerased_leaders``), and
        the others are joined by one ``_decode_by_coset`` call, which counts
        and refuses the largest erased set before any class is built. Refuses
        a code whose p^dim(C) syndrome keys would overflow int64.
        """
        p, n, m = self.p, self.n, self.stab.dim
        syndromes = fm.reduced(np.asarray(syndromes, dtype=np.int64), p)
        rows = np.atleast_2d(syndromes)
        if rows.ndim != 2 or rows.shape[1] != m:
            raise ValueError(f"syndrome must have length {m}")
        mask = erasure_mask(erased, n, syndromes.shape[:-1]).reshape(len(rows), n)
        if p**m >= 1 << 63:
            raise FeasibilityError(f"{p}^{m} syndromes overflow the int64 syndrome keys")
        keys = self._pair_keys(mask, rows)
        at, cached = _find(self._cache_keys, keys)
        if not cached.all():
            # the distinct missing pairs, in key order
            new = np.flatnonzero(~cached)
            new = new[np.argsort(keys[new], kind="stable")]
            new = new[_firsts(keys[new])]
            on_set = mask[new].any(axis=1)
            words = np.empty((len(new), self._lex_words.shape[1]), dtype=np.int64)
            # the joins go first: a call with an erased set over the cap
            # refuses before any class is built
            if on_set.any():
                joined = new[on_set]
                words[on_set] = self._decode_by_coset(keys[joined], mask[joined], rows[joined])
            words[~on_set] = self._unerased_leaders(rows[new[~on_set]] @ self._syndrome_radix)
            # each digit sits in its lex-rank word at its place value
            place = self._lex_words.max(axis=1)
            leaders = (words[:, self._lex_words.argmax(axis=1)] // place % p).astype(np.uint8)
            at = np.searchsorted(self._cache_keys, keys[new])
            self._cache_keys = np.insert(self._cache_keys, at, keys[new])
            self._leaders = np.insert(self._leaders, at, leaders, axis=0)
            at = _find(self._cache_keys, keys)[0]
        decoded = self._leaders[at].astype(np.int64)
        return decoded[0] if syndromes.ndim == 1 else decoded

    @cached_property
    def _mask_words(self) -> np.ndarray:
        """``_word_matrix`` of erasure masks: mask @ it packs each erased set into int64 words."""
        return _word_matrix(self.n, 2)

    @cached_property
    def _lex_words(self) -> np.ndarray:
        """``_word_matrix`` of (a|b) vectors: rows @ it are their lex-rank words."""
        return _word_matrix(2 * self.n, self.p)

    @cached_property
    def _pair_span(self) -> Optional[int]:
        """p^dim(C) when every (erased set, syndrome) pair packs exactly into
        one int64, set word * p^dim(C) + syndrome key; else None."""
        words = self._mask_words
        span = self.p**self.stab.dim
        return span if words.shape[1] == 1 and (int(words.sum()) + 1) * span <= 1 << 63 else None

    def _pair_keys(self, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The (erased set, syndrome) pair of each mask row and syndrome row as
        one sortable key, in (erased set, syndrome) order: one int64 when the
        pairs pack exactly (``_pair_span``), else a void of the mask words and
        the syndrome key, so that no pair is packed into an int64 that could
        overflow."""
        words = mask @ self._mask_words
        keys = rows @ self._syndrome_radix
        if self._pair_span:
            return words[:, 0] * self._pair_span + keys
        cols = np.ascontiguousarray(np.column_stack([words, keys]), dtype=">i8")
        return cols.view(f"V{8 * cols.shape[1]}")[:, 0]

    def _weight_class(self, w: int) -> Tuple[np.ndarray, ...]:
        """Class w: the vectors with exactly w nonzero pairs, over all n
        positions, as (syndrome keys, lex-rank words, support mask words),
        sorted by (key, lex rank). Built once per code, after the classes
        below it; refused before generating a class that would take the
        vectors generated for the code past ENUM_CAP."""
        p, n = self.p, self.n
        while len(self._classes) <= w:
            v = len(self._classes)
            check_decoder_work(n, p, v, 0)
            parts = [
                (
                    fm.mat_mod(block, self.stab.syndrome_map, p) @ self._syndrome_radix,
                    block @ self._lex_words,
                    ((block[:, :n] != 0) | (block[:, n:] != 0)) @ self._mask_words,
                )
                for block in sp.support_vectors(n, p, itertools.combinations(range(n), v))
            ]
            keys, words, bits = (np.concatenate(part) for part in zip(*parts))
            order = np.lexsort((*words.T[::-1], keys))
            self._classes.append((keys[order], words[order], bits[order]))
        return self._classes[w]

    def _unerased_leaders(self, targets: np.ndarray) -> np.ndarray:
        """Lex-rank words of the leader of each syndrome key on the empty
        erased set: the first row with that key in the lowest class that
        holds it. Classes are sorted by (key, lex rank), so that is one search
        per class, w = 0, 1, ..., until every key is found."""
        words = np.empty((len(targets), self._lex_words.shape[1]), dtype=np.int64)
        pending = np.arange(len(targets))
        w = 0
        while len(pending):
            class_keys, class_words, _ = self._weight_class(w)
            at, found = _find(class_keys, targets[pending])
            words[pending[found]] = class_words[at[found]]
            pending = pending[~found]
            w += 1
        return words

    def _decode_by_coset(self, keys: np.ndarray, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Lex-rank words of the leader of each (erased set, syndrome) pair:
        sorted distinct pair keys of non-empty erased sets, with their mask
        rows and syndrome rows.

        The pairs are led by erased-set size e, in groups of whole erased sets
        whose p^(2e) contents fit one block (``sp.block_rows``; a larger set
        alone). The largest set's p^(2e) contents are counted before any set
        is joined, and refused above ENUM_CAP.
        """
        words = np.empty((len(keys), self._lex_words.shape[1]), dtype=np.int64)
        sizes = np.count_nonzero(mask, axis=1)
        check_decoder_work(self.n, self.p, 0, int(sizes.max()))
        for e in sorted(set(sizes.tolist())):
            contents = (self.p * self.p) ** e
            pending = np.flatnonzero(sizes == e)
            starts = np.flatnonzero(_firsts(mask[pending]))
            per_group = sp.block_rows(2 * self.n * contents)
            for part in np.split(pending, starts[per_group::per_group]):
                words[part] = self._join(keys[part], mask[part], rows[part], e)
        return words

    def _join(self, keys: np.ndarray, mask: np.ndarray, rows: np.ndarray, e: int) -> np.ndarray:
        """Lex-rank words of the leader of each (erased set, syndrome) pair:
        sorted distinct pair keys, with their mask rows and syndrome rows;
        every set has e positions.

        A leader is y + z: y one of the p^(2e) contents on the erased set E,
        z of minimum weight w off E. Content c of a set is the base-p digits
        of c on its a and b columns, so contents are numbered in lex order,
        and the first with a syndrome is the only one that can lead with it,
        whatever z joins it. At w = 0 (z = 0) a pair's leader is that content
        for s, found by one lookup. At each w >= 1, each pair still open
        joins those contents y against class w on the key of s - syn(y),
        drops the class rows that touch E, and keeps the lex-smallest y + z.
        y and z have disjoint digits, so their lex-rank words add. Contents
        and candidates are taken about ``sp.block_rows(2n)`` at a time.
        """
        p, n, radix, chunk = self.p, self.n, self._syndrome_radix, sp.block_rows(2 * self.n)
        new_set = _firsts(mask)
        set_of = np.cumsum(new_set) - 1
        sets = mask[new_set]
        supports = np.nonzero(sets)[1].reshape(len(sets), e)
        columns = np.concatenate([supports, n + supports], axis=1)
        powers = p ** np.arange(2 * e - 1, -1, -1)
        # the first content of each (set, syndrome key), sorted by (set, key):
        # contents go in number order, so a key keeps its earliest content
        lead_set = lead_key = lead_content = np.empty(0, dtype=np.int64)
        step = sp.block_rows(2 * n * len(sets))
        for start in range(0, (p * p) ** e, step):
            content = np.arange(start, min(start + step, (p * p) ** e))
            found_keys = fm.mat_mod(content[:, None] // powers % p, self.stab.syndrome_map[columns], p) @ radix
            owner = np.concatenate([lead_set, np.repeat(np.arange(len(sets)), len(content))])
            key = np.concatenate([lead_key, found_keys.ravel()])
            content = np.concatenate([lead_content, np.tile(content, len(sets))])
            order = np.lexsort((key, owner))
            order = order[_firsts(np.column_stack([owner[order], key[order]]))]
            lead_set, lead_key, lead_content = owner[order], key[order], content[order]
        lead_syn = lead_key[:, None] // radix % p
        lead_words = np.einsum("ij,ijk->ik", lead_content[:, None] // powers % p, self._lex_words[columns[lead_set]])
        best = np.empty((len(mask), self._lex_words.shape[1]), dtype=np.int64)
        # w = 0 (class 0 is the zero vector): one lookup of each pair among
        # the leads, whose pair keys are sorted too
        self._weight_class(0)
        at, found = _find(self._pair_keys(sets[lead_set], lead_syn), keys)
        best[found] = lead_words[at[found]]
        # w >= 1: candidates (open pair, each lead of its set), in pieces of
        # the open pairs whose candidates start in one chunk
        open_pairs = np.flatnonzero(~found)
        start = np.searchsorted(lead_set, set_of[open_pairs])
        count = np.searchsorted(lead_set, set_of[open_pairs], side="right") - start
        first = np.cumsum(count) - count
        mask_bits = mask @ self._mask_words
        for piece in np.split(np.arange(len(open_pairs)), np.flatnonzero(np.diff(first // chunk)) + 1):
            pair = np.repeat(open_pairs[piece], count[piece])
            offset = start[piece] - np.cumsum(count[piece]) + count[piece]
            content = np.arange(len(pair)) + np.repeat(offset, count[piece])
            rest = rows[pair] - lead_syn[content]
            rest[rest < 0] += p
            targets = rest @ radix
            erased_bits = mask_bits[pair]
            w = 1
            while len(pair):
                class_keys, class_words, class_bits = self._weight_class(w)
                z = _first_clear(
                    np.searchsorted(class_keys, targets),
                    np.searchsorted(class_keys, targets, side="right"),
                    erased_bits,
                    class_bits,
                    chunk,
                )
                hit = np.flatnonzero(z >= 0)
                owner, total = pair[hit], lead_words[content[hit]] + class_words[z[hit]]
                order = np.lexsort((*total.T[::-1], owner))
                order = order[_firsts(owner[order])]
                best[owner[order]] = total[order]
                found[owner] = True
                still = ~found[pair]
                pair, content, targets, erased_bits = pair[still], content[still], targets[still], erased_bits[still]
                w += 1
        return best

    def coset_representatives(self, rows: np.ndarray) -> np.ndarray:
        """Canonical C-coset representative of each row (entries of any sign
        or size; the zero row for rows in C). The stabilizer's RREF basis is
        the identity on its pivot columns, so a representative is zero there
        and rows @ K is all of it, for the map K the stabilizer caches
        (``coset_map``): one exact float64 product (``fm.mat_mod``; each
        entry sums 2n terms of at most (p - 1)^2, far below 2^53)."""
        return fm.mat_mod(rows, self.stab.coset_map, self.p)

    def logical_class(self, residual: np.ndarray) -> LogicalClass:
        """Canonical C-coset label; non-correctable if residual is outside C^perp_s."""
        residual = np.asarray(residual)[None, :]
        if self.syndromes_batch(residual).any():
            return NON_CORRECTABLE
        return LogicalClass(tuple(self.coset_representatives(residual)[0].tolist()))

    def __repr__(self):
        return f"StabilizerCode(p={self.p}, n={self.n}, k={self.k})"


def check_decoder_work(n: int, p: int, weight: int, erased: int) -> None:
    """Refuse (FeasibilityError) work on a length-n code over F_p that needs
    its weight classes 0..weight, sum over v of C(n, v) (p^2 - 1)^v vectors,
    or an erased set of ``erased`` positions, p^(2 erased) contents, when
    either count passes ENUM_CAP. Distance scans and the decoder both count
    through it."""
    classes = sum(comb(n, v) * (p * p - 1) ** v for v in range(weight + 1))
    if classes > ENUM_CAP:
        raise FeasibilityError(
            f"enumeration needs {classes} weight-class vectors through weight {weight}, "
            f"over cap {ENUM_CAP}"
        )
    if (p * p) ** erased > ENUM_CAP:
        raise FeasibilityError(
            f"a set of {erased} erased positions enumerates {(p * p) ** erased} weight-class "
            f"vectors on them, over cap {ENUM_CAP}"
        )


def erasure_mask(erased: Union[Iterable[int], np.ndarray], n: int, rows: Tuple[int, ...]) -> np.ndarray:
    """The erased positions as a boolean mask of shape rows + (n,). ``erased``
    is such a mask, or positions (each in range(n)) that every row shares."""
    if isinstance(erased, np.ndarray) and (erased.dtype == bool or erased.ndim != 1):
        if erased.dtype != bool or erased.shape != rows + (n,):
            raise ValueError(f"erasure mask must be a boolean array of shape {rows + (n,)}")
        return erased
    positions = sorted(erased_positions(erased))
    if any(i < 0 or i >= n for i in positions):
        raise ValueError(f"erased positions out of range for n={n}")
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return np.broadcast_to(mask, rows + (n,))


def erased_positions(erased: Iterable[int]) -> FrozenSet[int]:
    """The erased positions as a set of ints. Each must be a Python or numpy
    integer: ValueError for any other, so that 1.7 is not read as 1 and True
    (a Python int) is not read as position 1."""
    positions = list(erased)
    try:
        if not any(isinstance(i, bool) for i in positions):
            return frozenset(map(operator.index, positions))
    except TypeError:
        pass
    raise ValueError(f"erased positions must be integers, got {positions!r}")


def _word_matrix(length: int, base: int) -> np.ndarray:
    """(length, words) int64 matrix W: for rows of base-``base`` digits,
    rows @ W packs each row into int64 words of at most 62 bits, the leading
    digits most significant, so sorting by the words sorts the rows
    lexicographically. Rows with disjoint nonzero digits add word by word."""
    width = max(1, 62 // base.bit_length())
    j = np.arange(length)
    matrix = np.zeros((length, -(-length // width)), dtype=np.int64)
    matrix[j, j // width] = base ** (width - 1 - j % width)
    return matrix


def _find(table: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each key's position in the sorted table, and whether it is there."""
    at = np.searchsorted(table, keys)
    there = at < len(table)
    there[there] = table[at[there]] == keys[there]
    return at, there


def _firsts(a: np.ndarray) -> np.ndarray:
    """For sorted rows (or values) a, whether each starts a run of equal ones."""
    first = np.ones(len(a), dtype=bool)
    differs = a[1:] != a[:-1]
    first[1:] = differs if differs.ndim == 1 else differs.any(axis=1)
    return first


def _first_clear(lo: np.ndarray, hi: np.ndarray, erased: np.ndarray, bits: np.ndarray, chunk: int) -> np.ndarray:
    """Per candidate i, the first row r in [lo[i], hi[i]) whose support words
    bits[r] miss the candidate's erased words erased[i], or -1. The ranges are
    scanned concatenated, ``chunk`` rows at a time."""
    found = np.full(len(lo), -1, dtype=np.int64)
    ends = np.cumsum(hi - lo)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, chunk):
        at = np.arange(start, min(start + chunk, total))
        owner = np.searchsorted(ends, at, side="right")
        row = hi[owner] - (ends[owner] - at)
        clear = ~(bits[row] & erased[owner]).any(axis=1)
        owner, row = owner[clear], row[clear]
        first = _firsts(owner)
        owner, row = owner[first], row[first]
        fresh = found[owner] < 0
        found[owner[fresh]] = row[fresh]
    return found


def min_weight_outside(sub: sp.SympSubspace) -> Tuple[Optional[int], Optional[int]]:
    """(min weight over sub^perp_s \\ sub, min nonzero weight over sub^perp_s).

    Both are None when sub^perp_s lies inside sub. Otherwise weight classes
    w = 1, 2, ... are scanned up to the first one holding a vector of
    sub^perp_s (zero syndrome against sub) outside sub; refused before a
    class that would take the vectors generated past ENUM_CAP, counted as
    the decoder counts them (``check_decoder_work``).
    """
    p, n = sub.p, sub.n
    # sub meets its dual in dim(sub) - rank(gram) dimensions, and the dual
    # (of dimension 2n - dim(sub)) lies inside sub iff it is that intersection
    if 2 * n - sub.dim == sub.dim - fm.rank(sp.gram(sub), p):
        return None, None
    min_nonzero = None
    for w in range(1, n + 1):
        check_decoder_work(n, p, w, 0)
        for block in sp.support_vectors(n, p, itertools.combinations(range(n), w)):
            dual = block[~np.any(fm.mat_mod(block, sub.syndrome_map, p), axis=1)]
            if len(dual):
                min_nonzero = min_nonzero or w
                if np.any(fm.mat_mod(dual, sub.coset_map, p)):
                    return w, min_nonzero
    raise AssertionError("the dual lies outside sub but has no vector of weight at most n")
