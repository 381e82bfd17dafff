"""Exact dense linear algebra over prime fields F_p, built on numpy integer arrays.

All matrices are 2-D ``int64`` arrays with entries reduced into ``[0, p)``.
Row spaces are canonicalized by reduced row echelon form (RREF); two
subspaces are equal iff their RREF bases are equal arrays.

Products on the hot paths go through ``mat_mod``: one float64 (BLAS) product
and a floor-based mod of its small output. The rule that keeps it exact: every
operand entry lies in (-p, p) (rows with an entry outside are reduced first),
so every partial sum is an integer of magnitude at most inner (p - 1)^2, which
must stay below 2^53, where float64 is exact.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

MAX_MODULUS = 251


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def check_modulus(p: int) -> int:
    """Validate a field modulus: a prime with 2 <= p <= 251."""
    p = int(p)
    if p < 2 or p > MAX_MODULUS or not is_prime(p):
        raise ValueError(f"field modulus must be a prime in [2, {MAX_MODULUS}], got {p}")
    return p


def inv_mod(x: int, p: int) -> int:
    """Multiplicative inverse of x mod p."""
    x = int(x) % p
    if x == 0:
        raise ZeroDivisionError("inverse of 0 in F_p")
    return pow(x, p - 2, p)


def as_field_matrix(rows, p: int) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries reduced mod p."""
    m = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    return m % p


def rref(m: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_columns). Zero rows are moved to the bottom but kept,
    so R has the same shape as m.
    """
    a = as_field_matrix(m, p).copy()
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * inv_mod(a[r, c], p)) % p
        for i in range(nrows):
            if i != r and a[i, c] != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def row_basis(m: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of the row space (zero rows dropped)."""
    r, pivots = rref(m, p)
    return r[: len(pivots)].copy()


def rank(m: np.ndarray, p: int) -> int:
    return len(rref(m, p)[1])


def kernel(m: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows, RREF-canonical) of the right null space {x : m x = 0}.

    One vector per free (non-pivot) column f of the RREF r: 1 at f and
    -r[i, f] at the i-th pivot column, then canonicalized by ``row_basis``.
    """
    a = as_field_matrix(m, p)
    r, pivots = rref(a, p)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivots] = False
    basis = np.eye(a.shape[1], dtype=np.int64)[free]
    basis[:, pivots] = (-r[: len(pivots)][:, free].T) % p
    return row_basis(basis, p)


def reduced(a, p: int, signed: bool = False) -> np.ndarray:
    """a with every entry in [0, p), or in (-p, p) when signed: a itself when
    it already is, else a % p as int64 (an int64 % costs far more than the
    range check)."""
    a = np.asarray(a)
    if a.size and (a.min() < (1 - p if signed else 0) or a.max() >= p):
        return a.astype(np.int64) % p
    return a


def mat_mod(a, b, p: int) -> np.ndarray:
    """a @ b mod p as int64 entries in [0, p), through one float64 product.

    b is a fixed map with entries in (-p, p); a may hold any integers and is
    reduced only when one of them lies outside (-p, p) (``reduced``). Exact:
    every partial sum is then an integer of magnitude at most
    inner (p - 1)^2, below 2^53 for any inner length under 1.4e11 when
    p <= 251; float64 holds such integers exactly in any summation order,
    and for such an x the correctly rounded x / p never crosses the next
    integer, so x - floor(x / p) p is its exact residue. Pass b as float64
    to skip its conversion.
    """
    prod = np.matmul(reduced(a, p, signed=True), b, dtype=np.float64)
    prod -= np.floor(prod / p) * p
    return prod.astype(np.int64)


def reduction_map(basis: np.ndarray, pivots: List[int], p: int) -> np.ndarray:
    """K with mat_mod(x, K, p) the reduction of each row x against an RREF
    basis: its canonical coset representative.

    The basis is a unit vector on each pivot column, so x - x[pivots] @ basis
    clears every pivot at once; that is x @ K for K the identity minus the
    basis rows placed at their pivots, so K is zero on the pivot columns.
    float64, ready for ``mat_mod``.
    """
    k = np.eye(np.shape(basis)[1])
    k[pivots] -= basis
    return k % p


def reduce_rows(basis: np.ndarray, pivots: List[int], rows: np.ndarray, p: int) -> np.ndarray:
    """Reduce each row against an RREF basis; row i becomes its canonical coset representative."""
    return mat_mod(rows, reduction_map(basis, pivots, p), p)


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """One particular solution x of a x = b over F_p (free variables set to 0).

    Raises ValueError if the system is inconsistent.
    """
    a = as_field_matrix(a, p)
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    aug = np.hstack([a, b.reshape(-1, 1)])
    r, pivots = rref(aug, p)
    ncols = a.shape[1]
    if ncols in pivots:
        raise ValueError("linear system has no solution over F_p")
    x = np.zeros(ncols, dtype=np.int64)
    for row_i, c in enumerate(pivots):
        x[c] = r[row_i, ncols]
    return x


def iter_span_batches(basis: np.ndarray, p: int, batch_size: int):
    """Yield all p^dim vectors in the row span of basis, batch_size rows at a time.

    Vectors are enumerated in mixed-radix coefficient order (first basis row
    is the most significant digit), which is deterministic and total.
    """
    basis = np.asarray(basis, dtype=np.int64)
    dim = basis.shape[0]
    total = p**dim
    if dim == 0:
        yield np.zeros((1, basis.shape[1]), dtype=np.int64)
        return
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, batch_size):
        idx = np.arange(start, min(start + batch_size, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % p
        yield digits @ basis % p
