"""Symplectic geometry of F_p^{2n}.

Vectors are numpy arrays of length 2n laid out as (a|b): the first n entries
are the X-part, the last n the Z-part. Position indices are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from . import fieldmath as fm

#: entries (rows x 2n) of one block that ``support_vectors`` yields; the engine's
#: kernel blocks and oracle chunks, the decoder's join chunks and the search's
#: leaf-filter intermediates hold to the same bound, read at call time
BLOCK_ENTRIES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of ``width`` entries that one block of BLOCK_ENTRIES holds, one at least."""
    return max(1, BLOCK_ENTRIES // width)


def from_string(text: str, p: int) -> np.ndarray:
    """Parse 'adigits|bdigits' into a symplectic vector."""
    left, sep, right = text.partition("|")
    if not sep or len(left) != len(right):
        raise ValueError(f"malformed symplectic vector {text!r}")
    digits = [int(ch) for ch in left + right]
    if any(d >= p for d in digits):
        raise ValueError(f"digit out of range for F_{p} in {text!r}")
    return np.asarray(digits, dtype=np.int64)


def to_string(v: np.ndarray) -> str:
    n = len(v) // 2
    return "".join(str(int(x)) for x in v[:n]) + "|" + "".join(str(int(x)) for x in v[n:])


def symp_product(u: np.ndarray, v: np.ndarray, p: int) -> int:
    """Symplectic inner product <a_u, b_v> - <b_u, a_v> mod p."""
    if np.shape(u) != np.shape(v):
        raise ValueError("symplectic product of vectors with different lengths")
    return int(pairwise_products(u, v, p)[0, 0])


def pairwise_products(rows: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    """Matrix of symplectic products: out[i, j] = <rows[i], cols[j]>_s."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    cols = np.atleast_2d(np.asarray(cols, dtype=np.int64))
    n = rows.shape[1] // 2
    return (rows[:, :n] @ cols[:, n:].T - rows[:, n:] @ cols[:, :n].T) % p


def symp_weight(v: np.ndarray) -> int:
    """Number of positions i with (a_i, b_i) != (0, 0): an int for one
    vector, else ``symp_weights`` of the rows."""
    w = symp_weights(v)
    return int(w[0]) if w.shape == (1,) else w


def symp_weights(mat: np.ndarray) -> np.ndarray:
    """Row-wise symplectic weights of a matrix of symplectic vectors."""
    mat = np.atleast_2d(np.asarray(mat))
    n = mat.shape[1] // 2
    return np.count_nonzero((mat[:, :n] != 0) | (mat[:, n:] != 0), axis=1)


def support_vectors(n: int, p: int, supports: Iterable[Sequence[int]]) -> Iterator[np.ndarray]:
    """Every vector of F_p^{2n} whose nonzero pairs (a_i, b_i) are exactly one
    of the given supports, in blocks of at most BLOCK_ENTRIES entries.

    Rows follow the supports in the order given, then the contents in product
    order over the nonzero (a, b) values in lex order, a support's first
    listed position being the most significant. A support of size s gives
    (p^2 - 1)^s rows; a block never mixes supports of different sizes.
    """
    q = p * p
    max_rows = block_rows(2 * n)
    for size, group in itertools.groupby(supports, len):
        group = list(group)
        pos = np.array(group, dtype=np.int64).reshape(len(group), size)
        # row r holds support r // place[0]; its content digits are the rest
        # of r in base q - 1, and a position's values start at 1, so (a, b)
        # are the base-p digits of digit + 1
        place = np.array([(q - 1) ** (size - j) for j in range(size + 1)], dtype=np.int64)
        total = len(pos) * int(place[0])
        for start in range(0, total, max_rows):
            r = np.arange(start, min(start + max_rows, total), dtype=np.int64)
            values = r[:, None] // place[1:]
            values %= q - 1
            values += 1
            cols = pos[r // place[0]]
            at = np.arange(len(r))[:, None]
            block = np.zeros((len(r), 2 * n), dtype=np.int64)
            block[at, cols] = values // p
            block[at, n + cols] = values % p
            yield block


def star(v: np.ndarray, p: int) -> np.ndarray:
    """The map (a|b) -> (a|-b)."""
    v = np.asarray(v, dtype=np.int64)
    n = v.shape[-1] // 2
    out = v.copy()
    out[..., n:] = (-out[..., n:]) % p
    return out


@dataclass(frozen=True, eq=False)
class SympSubspace:
    """An F_p-linear subspace of F_p^{2n}, stored as an RREF basis: each
    row's first nonzero entry is its pivot."""

    p: int
    n: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.basis.setflags(write=False)

    @classmethod
    def from_rows(cls, p: int, n: int, rows: Iterable[np.ndarray]) -> "SympSubspace":
        p = fm.check_modulus(p)
        rows = list(rows)
        if not rows:
            basis = np.zeros((0, 2 * n), dtype=np.int64)
        else:
            mat = fm.as_field_matrix(np.vstack(rows), p)
            if mat.shape[1] != 2 * n:
                raise ValueError(f"expected vectors of length {2 * n}, got {mat.shape[1]}")
            basis = fm.row_basis(mat, p)
        return cls(p, n, basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def syndrome_map(self) -> np.ndarray:
        """The transposed ``syndrome_matrix`` as float64: ``fm.mat_mod(x,
        syndrome_map, p)`` gives each row's products with the basis."""
        return syndrome_matrix(self.basis, self.p).T.astype(np.float64)

    @cached_property
    def coset_map(self) -> np.ndarray:
        """``fm.reduction_map`` of the basis: ``fm.mat_mod(x, coset_map, p)``
        gives each row's canonical coset representative."""
        return fm.reduction_map(self.basis, np.argmax(self.basis != 0, axis=1), self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SympSubspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.p, self.n, self.basis.tobytes()))


def star_subspace(s: SympSubspace) -> SympSubspace:
    return SympSubspace.from_rows(s.p, s.n, star(s.basis.copy(), s.p))


def gram(s: SympSubspace) -> np.ndarray:
    """Gram matrix of pairwise symplectic products over the stored basis."""
    return pairwise_products(s.basis, s.basis, s.p)


def is_self_orthogonal(s: SympSubspace) -> bool:
    return not np.any(gram(s))


def symp_dual(s: SympSubspace) -> SympSubspace:
    """The symplectic dual {v : <v, x>_s = 0 for all x in S}."""
    w = syndrome_matrix(s.basis, s.p)
    # fm.kernel's basis is a row_basis, so RREF as the class requires
    return SympSubspace(s.p, s.n, fm.kernel(w, s.p))


def syndrome_matrix(basis: np.ndarray, p: int) -> np.ndarray:
    """Matrix W with W v = (<h_i, v>_s)_i for the given basis rows h_i."""
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    n = basis.shape[1] // 2
    return np.hstack([(-basis[:, n:]) % p, basis[:, :n]])


def puncture(s: SympSubspace, positions: Iterable[int]) -> SympSubspace:
    """Delete the given 0-based positions from both the X- and Z-parts."""
    positions = set(int(i) for i in positions)
    if any(i < 0 or i >= s.n for i in positions):
        raise ValueError(f"puncture positions out of range for n={s.n}: {sorted(positions)}")
    keep = [i for i in range(s.n) if i not in positions]
    cols = keep + [s.n + i for i in keep]
    return SympSubspace.from_rows(s.p, len(keep), s.basis[:, cols].copy())


def symp_extend(d: SympSubspace) -> Tuple[SympSubspace, int]:
    """Append coordinates to make D self-orthogonal.

    Runs symplectic Gram-Schmidt on the basis to split it into hyperbolic
    pairs plus a radical: each round takes the first nonzero entry (i, j) of
    the rows' ``pairwise_products`` matrix as a pair, scales row j so that
    the pair's product is 1 and clears both from the other rows. Each pair
    gets one fresh position that cancels the pair's product. Returns
    (C_ext, c) with C_ext self-orthogonal on n + c positions, dim C_ext =
    dim D, and puncturing the appended positions giving back D.
    c = rank(gram(D)) / 2, the minimum possible. Proved once, not per call, by
    tests/test_symplectic.py::test_extend_is_a_minimal_self_orthogonal_lift.
    """
    p, n = d.p, d.n
    vecs, pairs = d.basis, []
    g = gram(d)
    # the first hit in row order has i < j: g is alternating, so a hit (i, j)
    # with j < i would put (j, i) in an earlier row
    while len(hits := np.argwhere(g)):
        i, j = hits[0]
        scale = fm.inv_mod(g[i, j], p)
        u, v = vecs[i], vecs[j] * scale % p
        rest = np.delete(np.arange(len(vecs)), [i, j])
        # w -> w + <w,u> v - <w,v> u kills the products with the pair
        vecs = (vecs[rest] + g[rest, i, None] * v - (g[rest, j, None] * scale % p) * u) % p
        pairs += [u, v]
        g = pairwise_products(vecs, vecs, p)
    c = len(pairs) // 2
    nn = n + c
    lifted = np.vstack([*pairs, vecs])
    rows = np.zeros((len(lifted), 2 * nn), dtype=np.int64)
    rows[:, :n], rows[:, nn : nn + n] = lifted[:, :n], lifted[:, n:]
    # X on the fresh position for u, Z^{-1} for v: the new product -1
    # cancels the pair's product +1
    rows[np.arange(0, 2 * c, 2), np.arange(n, nn)] = 1
    rows[np.arange(1, 2 * c, 2), np.arange(nn + n, 2 * nn)] = p - 1
    return SympSubspace.from_rows(p, nn, rows), c
