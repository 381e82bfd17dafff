"""File-backed catalog of explicit stabilizer codes, plus the hashing-vs-breeding report.

Catalog format (line oriented, UTF-8, '#' comments, blank-line separated):

    code <name> p=<p> n=<n> k=<k> d=<d> pure=<0|1>
    <a-digits>|<b-digits>          (n - k generator lines)

Claimed parameters are recomputed at load; any mismatch is a hard error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import List, Sequence

from . import symplectic as sp
from .breeding import convert_pure
from .codes import StabilizerCode


class CatalogError(ValueError):
    pass


_HEADER = re.compile(
    r"^code\s+(?P<name>\S+)\s+p=(?P<p>\d+)\s+n=(?P<n>\d+)\s+k=(?P<k>\d+)"
    r"\s+d=(?P<d>\d+)\s+pure=(?P<pure>[01])$"
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    code: StabilizerCode
    d: int
    pure: bool

    @property
    def generator_strings(self) -> List[str]:
        return [sp.to_string(row) for row in self.code.stab.basis]


def _blocks(text: str, source: str):
    """The entries of a catalog text, parsed but not yet validated, in order:
    one (name, p, n, k, d, pure, generator rows) per header."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i].split("#", 1)[0].rstrip()
        if not raw.strip():
            i += 1
            continue
        m = _HEADER.match(raw.strip())
        if not m:
            raise CatalogError(f"{source}:{i + 1}: expected a 'code' header, got {raw!r}")
        name = m["name"]
        p, n, k, d = (int(m[g]) for g in ("p", "n", "k", "d"))
        pure = m["pure"] == "1"
        i += 1
        rows = []
        while i < len(lines):
            gen_raw = lines[i].split("#", 1)[0].strip()
            if not gen_raw or gen_raw.startswith("code "):
                break
            i += 1
            try:
                rows.append(sp.from_string(gen_raw, p))
            except ValueError as exc:
                raise CatalogError(f"{source}:{i}: entry {name!r}: {exc}") from exc
            if len(rows[-1]) != 2 * n:
                raise CatalogError(
                    f"{source}:{i}: entry {name!r}: generator has {len(rows[-1]) // 2} "
                    f"positions, expected {n}"
                )
        yield name, p, n, k, d, pure, rows


def _entry(source: str, name: str, p: int, n: int, k: int, d: int, pure: bool, rows) -> CatalogEntry:
    """Build one parsed entry's code and check its claimed k, d and purity."""
    if len(rows) != n - k:
        raise CatalogError(
            f"{source}: entry {name!r} claims k={k} but ships {len(rows)} generator "
            f"lines (expected {n - k})"
        )
    try:
        code = StabilizerCode(p, n, rows)
    except ValueError as exc:  # CodeConstructionError, or a modulus that is not a prime
        raise CatalogError(f"{source}: entry {name!r}: {exc}") from exc
    if code.k != k:
        raise CatalogError(
            f"{source}: entry {name!r} claims k={k} but recomputed k={code.k}"
        )
    if code.distance != d:
        raise CatalogError(
            f"{source}: entry {name!r} claims d={d} but recomputed d={code.distance}"
        )
    if bool(code.is_pure) != pure:
        raise CatalogError(
            f"{source}: entry {name!r} claims pure={int(pure)} but recomputed "
            f"pure={int(bool(code.is_pure))}"
        )
    return CatalogEntry(name, code, d, pure)


def load_catalog(text: str, source: str = "<catalog>") -> List[CatalogEntry]:
    return [_entry(source, *block) for block in _blocks(text, source)]


def load_catalog_file(path: str) -> List[CatalogEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path}: {exc.strerror}") from None
    return load_catalog(text, source=path)


def _builtin_text() -> str:
    return resources.files("breedsim").joinpath("data/codes.txt").read_text("utf-8")


def builtin_catalog() -> List[CatalogEntry]:
    return load_catalog(_builtin_text(), source="builtin")


def builtin_names() -> List[str]:
    """The builtin entry names, in catalog order; no entry is validated."""
    return [block[0] for block in _blocks(_builtin_text(), "builtin")]


def builtin_entry(name: str) -> CatalogEntry:
    """The first builtin entry of that name; only it is built and validated."""
    blocks = list(_blocks(_builtin_text(), "builtin"))
    for block in blocks:
        if block[0] == name:
            return _entry("builtin", *block)
    known = ", ".join(block[0] for block in blocks)
    raise CatalogError(f"no catalog entry named {name!r} (known: {known})")


def find_entry(entries: Sequence[CatalogEntry], name: str) -> CatalogEntry:
    for entry in entries:
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in entries)
    raise CatalogError(f"no catalog entry named {name!r} (known: {known})")


@dataclass(frozen=True)
class ReportRow:
    kind: str  # "hashing" | "breeding"
    name: str
    noisy_pairs: int
    preshared: int
    gross: int
    net: int
    d: int
    dominant: bool = False


def compare_report(entries: Sequence[CatalogEntry]) -> List[ReportRow]:
    """Hashing and breeding rows for every catalog code and admissible puncturing.

    Breeding rows puncture the last c positions for c = 1 .. d-1, and only a
    pure code gets them: conversion needs purity, a hashing row only d. A
    breeding row is flagged dominant when no hashing row with the same
    noisy-pair count and at-least-as-strong guarantee achieves at least its
    net yield.
    """
    hashing = [(entry.code.n, entry.d, entry.code.k) for entry in entries]
    rows: List[ReportRow] = []
    for entry in entries:
        code = entry.code
        rows.append(ReportRow("hashing", entry.name, code.n, 0, code.k, code.k, entry.d))
        for c in range(1, entry.d) if entry.pure else ():
            params = convert_pure(code, range(code.n - c, code.n)).params
            dominated = any(
                n == params.n and d >= entry.d and net >= params.net_yield for n, d, net in hashing
            )
            rows.append(
                ReportRow(
                    "breeding",
                    entry.name,
                    params.n,
                    c,
                    params.gross_k,
                    params.net_yield,
                    entry.d,
                    not dominated,
                )
            )
    return rows
