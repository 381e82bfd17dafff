"""From subspaces and pure stabilizer codes to executable breeding protocols.

A breeding protocol borrows c perfect preshared pairs (ebits), runs a
stabilizer measurement over n noisy + c perfect pairs, and nets k - c
distilled pairs. Hashing is the c = 0 special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from . import fieldmath as fm
from . import symplectic as sp
from .codes import StabilizerCode, min_weight_outside


@dataclass(frozen=True)
class EaqeccParams:
    """[[n, gross_k, d; c]]_p bookkeeping: n noisy pairs in, gross_k out, c consumed."""

    p: int
    n: int
    gross_k: int
    c: int
    d: Optional[int]

    @property
    def net_yield(self) -> int:
        return self.gross_k - self.c


@dataclass(frozen=True)
class BreedingProtocolSpec:
    """An extended stabilizer code plus the designated ebit positions."""

    extended_code: StabilizerCode
    ebit_positions: FrozenSet[int]
    params: EaqeccParams

    def __post_init__(self):
        total = self.extended_code.n
        if not all(0 <= i < total for i in self.ebit_positions):
            raise ValueError("ebit positions out of range")
        if self.params.n + len(self.ebit_positions) != total:
            raise ValueError("noisy + ebit position counts do not cover the extended code")
        if self.params.gross_k != self.extended_code.k:
            raise ValueError("gross yield must equal the extended code's k")

    @property
    def noisy_positions(self) -> tuple:
        return tuple(i for i in range(self.extended_code.n) if i not in self.ebit_positions)


def ebit_count(d: sp.SympSubspace) -> int:
    """Preshared pairs needed to repair D's self-orthogonality: rank(gram)/2."""
    r = fm.rank(sp.gram(d), d.p)
    if r % 2:
        raise AssertionError(f"alternating Gram matrix with odd rank {r}")
    return r // 2


def eaqecc_distance(d: sp.SympSubspace) -> Optional[int]:
    """Exhaustive min symplectic weight over D^perp_s \\ D; None if empty."""
    return min_weight_outside(d)[0]


def convert_pure(code: StabilizerCode, punctured: Iterable[int]) -> BreedingProtocolSpec:
    """Turn a pure [[n, k, d]] code into a breeding protocol with c = |punctured| ebits.

    The punctured positions hold the preshared perfect pairs; the rest carry
    the noisy pairs. Requires |punctured| < d, so that ``ebit_count`` of the
    punctured code is |punctured| (proved in tests/test_breeding.py::TestEbitFormula).
    """
    punctured = frozenset(int(i) for i in punctured)
    if any(i < 0 or i >= code.n for i in punctured):
        raise ValueError(f"punctured positions out of range for n={code.n}")
    if code.distance is None:
        raise ValueError("code has undefined distance (C^perp_s = C); cannot convert")
    if not code.is_pure:
        raise ValueError("breeding conversion requires a pure stabilizer code")
    c = len(punctured)
    if c >= code.distance:
        raise ValueError(
            f"cannot puncture {c} positions: need c < d = {code.distance}"
        )
    params = EaqeccParams(p=code.p, n=code.n - c, gross_k=code.k, c=c, d=code.distance)
    return BreedingProtocolSpec(extended_code=code, ebit_positions=punctured, params=params)


def build_from_subspace(d: sp.SympSubspace) -> BreedingProtocolSpec:
    """Extend an arbitrary subspace D into a breeding protocol.

    The c appended positions become the ebit positions; the protocol's
    distance is recomputed from D.
    """
    ext, c = sp.symp_extend(d)
    code = StabilizerCode(d.p, ext.n, ext.basis)
    ebits = frozenset(range(d.n, ext.n))
    params = EaqeccParams(p=d.p, n=d.n, gross_k=code.k, c=c, d=eaqecc_distance(d))
    return BreedingProtocolSpec(extended_code=code, ebit_positions=ebits, params=params)
