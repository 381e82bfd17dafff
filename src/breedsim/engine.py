"""Execution of distillation protocols in the symplectic Pauli-frame model.

Only the relative error between Alice's and Bob's halves is physical for
Bell-diagonal states, so a trial is: sample an error on the noisy pairs,
compute the combined syndrome against the extended code, decode (with
erasure knowledge), and ask whether the residual lies in the stabilizer.

``run_protocol`` is the one kernel for that step. It takes one error vector
or a batch of rows, each row with its own erased set (or one set for all);
guarantee verification and Monte Carlo simulation run their rows through it,
one call per block of rows. Verification joins the patterns of every (e, t)
into those blocks. Monte Carlo sends only the trials that carry an error or
an erasure: a trial with neither decodes to the zero leader and is a success
that every post-selection mode keeps, so it is counted without a row.

The exact oracle builds no error row: one ``decode`` call gives the leader of
every (erased subset, syndrome) pair, it sums the channel over each leader's
coset of the stabilizer, and it builds each syndrome's probability one noisy
pair at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, sqrt
from typing import FrozenSet, Optional, Tuple, Union

import numpy as np

from . import codes
from . import symplectic as sp
from .breeding import BreedingProtocolSpec
from .codes import FeasibilityError, LogicalClass, erased_positions, erasure_mask

#: trials per deterministic chunk; fixed so worker count cannot change results
CHUNK = 10_000


def _rows_nonzero(block: np.ndarray) -> np.ndarray:
    """Per-row flag of a 2-D block: does the row hold a nonzero entry? An OR
    of the columns, as numpy's any() along a short row is several times slower."""
    flags = np.zeros(len(block), dtype=bool)
    for column in block.T:
        np.logical_or(flags, column, out=flags)
    return flags


@dataclass(frozen=True)
class ErrorPattern:
    """A symplectic error (one 2n-vector, or a batch of rows) plus what is erased:
    one set of positions for every row, or a boolean mask with one row of n
    flags per error row."""

    error: np.ndarray
    erased: Union[FrozenSet[int], np.ndarray] = frozenset()

    def __post_init__(self):
        # a view, so the caller's own array stays writable
        object.__setattr__(self, "error", np.asarray(self.error, dtype=np.int64).view())
        self.error.setflags(write=False)
        if isinstance(self.erased, np.ndarray) and (self.erased.dtype == bool or self.erased.ndim != 1):
            if self.erased.dtype != bool:
                shape = self.error.shape[:-1] + (self.error.shape[-1] // 2,)
                raise ValueError(f"erased must be positions or a boolean mask of shape {shape}")
            object.__setattr__(self, "erased", self.erased.view())
            self.erased.setflags(write=False)
        else:
            object.__setattr__(self, "erased", erased_positions(self.erased))


@dataclass(frozen=True)
class Channel:
    """I.i.d. per-noisy-pair noise: depolarizing rate plus optional erasure rate.

    A depolarized pair gets one of the p^2 - 1 nontrivial symplectic values
    uniformly; an erased pair gets a uniformly random value (identity included)
    and its position is flagged to the decoder.
    """

    p: int
    depolarizing: float
    erasure: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.depolarizing <= 1.0 and 0.0 <= self.erasure <= 1.0):
            raise ValueError("channel rates must lie in [0, 1]")


@dataclass(frozen=True)
class PostSelect:
    """Step-7 discard policy: none, nonzero-syndrome, or decoded-weight threshold."""

    mode: str = "none"
    threshold: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "nonzero", "weight"):
            raise ValueError(f"unknown post-selection mode {self.mode!r}")
        if self.threshold < 0:
            raise ValueError(f"post-selection threshold must be at least 0, got {self.threshold}")

    @classmethod
    def parse(cls, text: str) -> "PostSelect":
        if text in ("none", "nonzero"):
            return cls(text)
        if text.startswith("weight:"):
            return cls("weight", int(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse post-selection policy {text!r}")

    def discards(self, syndromes: np.ndarray, decoded: np.ndarray) -> np.ndarray:
        """Per-row discard flags for syndrome rows and their decoded error rows."""
        if self.mode == "nonzero":
            return _rows_nonzero(syndromes)
        if self.mode == "weight":
            return sp.symp_weights(decoded) > self.threshold
        return np.zeros(len(syndromes), dtype=bool)


KEEP_ALL = PostSelect("none")


@dataclass(frozen=True)
class ProtocolOutcome:
    """Result of ``run_protocol``; for a batch every field is an array over rows
    and ``logical`` holds each residual's canonical C-coset representative."""

    combined_syndrome: Tuple[int, ...]
    decoded: np.ndarray
    logical: LogicalClass
    success: bool
    discarded: bool


@dataclass(frozen=True)
class GuaranteeCertificate:
    passed: bool
    patterns: int
    distance: int
    counterexample: Optional[ErrorPattern] = None


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    discards: int
    successes: int
    gross_k: int
    net_yield: int
    seed: int

    @property
    def kept(self) -> int:
        return self.trials - self.discards

    @property
    def fidelity_estimate(self) -> float:
        return self.successes / self.kept if self.kept else 0.0

    @property
    def ci_halfwidth(self) -> float:
        """95% binomial confidence half-width for the fidelity estimate."""
        if not self.kept:
            return 0.0
        f = self.fidelity_estimate
        return 1.96 * sqrt(f * (1.0 - f) / self.kept)


@dataclass(frozen=True)
class ExactFidelity:
    fidelity: float
    acceptance: float = 1.0


def _check_pattern(spec: BreedingProtocolSpec, pattern: ErrorPattern) -> np.ndarray:
    """Check pattern against spec; returns its erasure mask as (rows, n)."""
    n = spec.extended_code.n
    err = pattern.error
    if err.ndim not in (1, 2) or err.shape[-1] != 2 * n:
        raise ValueError(f"error vector must have length {2 * n}")
    mask = erasure_mask(pattern.erased, n, err.shape[:-1]).reshape(-1, n)
    if not spec.ebit_positions:
        return mask
    ebits = np.array(sorted(spec.ebit_positions), dtype=np.int64)
    # per ebit: whether any row is nonzero in its a or its b column
    columns = err.reshape(-1, 2 * n)[:, np.concatenate([ebits, n + ebits])]
    carries = columns.any(axis=0).reshape(2, -1).any(axis=0)
    erased = mask[:, ebits].any(axis=0)
    bad = np.flatnonzero(carries | erased)
    if len(bad):
        # the first bad ebit reports its error before its erasure
        i = int(ebits[bad[0]])
        if carries[bad[0]]:
            raise ValueError(f"preshared pair at position {i} cannot carry an error")
        raise ValueError(f"preshared pair at position {i} cannot be erased")
    return mask


def run_protocol(
    spec: BreedingProtocolSpec,
    pattern: ErrorPattern,
    postselect: PostSelect = KEEP_ALL,
) -> ProtocolOutcome:
    """Protocol execution against one error vector or a batch of error rows,
    each row decoded with its own erased set (``pattern.erased``)."""
    mask = _check_pattern(spec, pattern)
    code = spec.extended_code
    errors = np.atleast_2d(pattern.error)
    syn = code.syndromes_batch(errors)
    decoded = code.decode(syn, mask)
    # decoded has the syndrome of errors, so every residual lies in C^perp_s
    logical = code.coset_representatives(errors - decoded)
    success = ~_rows_nonzero(logical)
    discarded = postselect.discards(syn, decoded)
    if pattern.error.ndim == 2:
        return ProtocolOutcome(syn, decoded, logical, success, discarded)
    return ProtocolOutcome(
        tuple(int(x) for x in syn[0]),
        decoded[0],
        LogicalClass(tuple(int(x) for x in logical[0])),
        bool(success[0]),
        bool(discarded[0]),
    )


def _guarantee_rows(p: int, n: int, noisy: Tuple[int, ...], weights: dict):
    """The patterns of ``verify_guarantee`` as blocks of (error rows, erasure
    mask rows), in the order (e, t, erased set, error support, contents)."""
    q = p * p
    m = len(noisy)
    for e, ts in weights.items():
        erased_sets = list(itertools.combinations(noisy, e))
        masks = np.zeros((len(erased_sets), n), dtype=bool)
        for j, erased in enumerate(erased_sets):
            masks[j, list(erased)] = True
        for t in ts:
            supports = (
                erased + err
                for erased in erased_sets
                for err in itertools.combinations([i for i in noisy if i not in erased], t)
            )
            per_set = comb(m - e, t) * (q - 1) ** (e + t)
            done = 0
            for rows in sp.support_vectors(n, p, supports):
                owner = (done + np.arange(len(rows))) // per_set
                done += len(rows)
                yield rows, masks[owner]


def _regroup(blocks, size: int):
    """The rows of a stream of (error rows, mask rows) blocks, in order, as
    blocks of exactly ``size`` rows (the last may be shorter)."""
    held, count = [], 0
    for rows, masks in blocks:
        while len(rows):
            take = min(size - count, len(rows))
            held.append((rows[:take], masks[:take]))
            rows, masks, count = rows[take:], masks[take:], count + take
            if count == size:
                yield tuple(np.concatenate(part) for part in zip(*held))
                held, count = [], 0
    if held:
        yield tuple(np.concatenate(part) for part in zip(*held))


def verify_guarantee(
    spec: BreedingProtocolSpec, max_patterns: int = 1_000_000
) -> GuaranteeCertificate:
    """Exhaustively check success for every pattern with 2t + e < d.

    Enumerates every erased subset of noisy positions of size e with every
    nonzero content on the erased pairs, times every weight-t error on the
    remaining noisy positions. Refuses before enumerating when the pattern
    count exceeds max_patterns, or when the decoder would pass ENUM_CAP
    (``codes.check_decoder_work``): a pattern's leader has live weight at most
    its t, so the decoder builds the weight classes through the largest t,
    and the largest erased set carries the most contents.
    """
    d = spec.params.d
    if d is None:
        raise FeasibilityError("protocol distance is undefined; nothing to guarantee")
    code = spec.extended_code
    noisy = spec.noisy_positions
    q = code.p**2
    m, n = len(noisy), code.n
    # error weights t with 2t + e < d per erased-set size e; at most m pairs can
    # be erased, and at most m - e of the rest can carry an error
    weights = {e: range(min((d - e - 1) // 2, m - e) + 1) for e in range(min(d, m + 1))}
    total = sum(comb(m, e) * comb(m - e, t) * (q - 1) ** (e + t) for e, ts in weights.items() for t in ts)
    if total > max_patterns:
        raise FeasibilityError(f"guarantee verification needs {total} patterns, over cap {max_patterns}")
    if weights:
        # t is largest with nothing erased
        codes.check_decoder_work(n, code.p, weights[0][-1], max(weights))

    # a kernel call takes the next max_rows patterns, across (e, t)
    max_rows = sp.block_rows(2 * n)
    patterns = 0
    for rows, masks in _regroup(_guarantee_rows(code.p, n, noisy, weights), max_rows):
        failed = np.flatnonzero(~run_protocol(spec, ErrorPattern(rows, masks)).success)
        if len(failed):
            first = int(failed[0])
            counterexample = ErrorPattern(rows[first].copy(), np.flatnonzero(masks[first]))
            return GuaranteeCertificate(False, patterns + first + 1, d, counterexample)
        patterns += len(rows)
    return GuaranteeCertificate(True, patterns, d)


def _sample_chunk(
    spec: BreedingProtocolSpec,
    channel: Channel,
    seed: int,
    start: int,
    stop: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the live trials of trials [start, stop) of one chunk: those with
    an error or an erasure on some noisy pair.

    Returns (rows, errors, erased): the ascending offsets of the live trials
    within the range, their error rows and their erasure flags, one per noisy
    pair. Every other trial carries no error and no erasure.

    ``start`` is a multiple of CHUNK and the range lies inside that chunk. The
    chunk draws all of its randomness from np.random.default_rng((seed,
    start // CHUNK)) as one row-major array of uniforms, m per trial (2m with
    erasure), and trial start + i reads only row i. So the partition of
    trials into workers cannot affect the sample, and a shorter run's live
    trials are the longer run's live trials at offsets below its count, with
    equal rows.

    A uniform u below the depolarizing rate gives the nontrivial value
    1 + floor(u / rate * (q - 1)), q = p^2, since u / rate is uniform on [0, 1)
    given u < rate; an erasure uniform v below the erasure rate flags the pair
    and gives it the value floor(v / erasure * q). No bounded-integer draw is
    used: those consume a variable number of bits and would break the prefix.
    """
    if start % CHUNK or not start <= stop <= start + CHUNK:
        raise ValueError(f"trials [{start}, {stop}) do not lie inside one chunk of {CHUNK}")
    p = channel.p
    q = p * p
    n_total = spec.extended_code.n
    noisy = np.asarray(spec.noisy_positions, dtype=np.int64)
    m = len(noisy)
    rate, er = channel.depolarizing, channel.erasure
    rng = np.random.default_rng((seed, start // CHUNK))
    uniforms = rng.random((stop - start, 2 * m if er > 0.0 else m))
    # one comparison per uniform with its column's rate, kept for the live rows
    flags = uniforms < (np.repeat([rate, er], m) if er > 0.0 else rate)
    rows = np.flatnonzero(_rows_nonzero(flags))
    # the dense uniforms are freed before the live rows are built
    uniforms, flags = uniforms.take(rows, axis=0), flags.take(rows, axis=0)
    u, hit = uniforms[:, :m], flags[:, :m]
    values = np.zeros((len(rows), m), dtype=np.int64)
    # min(u, rate) is u on a flagged pair and keeps u / rate at most 1 on the
    # others, so that no quotient overflows or casts out of range
    if rate > 0.0:
        values = hit * (1 + np.minimum((np.minimum(u, rate) / rate * (q - 1)).astype(np.int64), q - 2))
    erased = np.zeros((len(rows), m), dtype=bool)
    if er > 0.0:
        v, erased = uniforms[:, m:], flags[:, m:]
        values = np.where(erased, np.minimum((np.minimum(v, er) / er * q).astype(np.int64), q - 1), values)
    errors = np.zeros((len(rows), 2 * n_total), dtype=np.int64)
    errors[:, noisy], errors[:, n_total + noisy] = np.divmod(values, p)
    return rows, errors, erased


def _simulate_chunk(args) -> Tuple[int, int]:
    """(kept successes, discards) over trials [start, stop) of one chunk.

    A trial with no error and no erasure has syndrome 0, which decodes to the
    zero leader, so its residual 0 lies in C and every post-selection mode
    keeps it: it is counted as a kept success without a kernel call."""
    spec, channel, seed, start, stop, postselect = args
    rows, errors, erased = _sample_chunk(spec, channel, seed, start, stop)
    clean = stop - start - len(rows)
    if not len(rows):
        return clean, 0
    mask = np.zeros((len(rows), spec.extended_code.n), dtype=bool)
    mask[:, list(spec.noisy_positions)] = erased
    outcome = run_protocol(spec, ErrorPattern(errors, mask), postselect)
    successes = int(np.sum(outcome.success & ~outcome.discarded))
    return clean + successes, int(np.sum(outcome.discarded))


def simulate(
    spec: BreedingProtocolSpec,
    channel: Channel,
    trials: int,
    seed: int = 0,
    postselect: PostSelect = KEEP_ALL,
    workers: int = 1,
) -> SimulationReport:
    """Monte Carlo fidelity/yield estimate; deterministic in (channel, trials, seed)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if channel.p != spec.extended_code.p:
        raise ValueError("channel field size does not match the code")
    chunks = [
        (spec, channel, seed, start, min(start + CHUNK, trials), postselect)
        for start in range(0, trials, CHUNK)
    ]
    if workers > 1 and len(chunks) > 1:
        # imported here: loading it pulls in multiprocessing, which a
        # one-worker run would pay for at every start
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all of its workers up front, needed or not
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_simulate_chunk, chunks))
    else:
        results = [_simulate_chunk(c) for c in chunks]
    successes = sum(r[0] for r in results)
    discards = sum(r[1] for r in results)
    return SimulationReport(
        trials, discards, successes, spec.params.gross_k, spec.params.net_yield, seed
    )


def exact_fidelity(
    spec: BreedingProtocolSpec,
    channel: Channel,
    postselect: PostSelect = KEEP_ALL,
) -> ExactFidelity:
    """Exact success probability (and acceptance) from coset leaders and
    stabilizer elements; no error row is built.

    Per erased subset E of the noisy pairs of nonzero probability (2^m of
    them when 0 < erasure < 1, else one), one ``decode`` call over every
    (E, s) pair gives the leader l of each of the p^l syndromes s
    (l = dim C). An error with syndrome s succeeds iff it lies in l + C, so
    the success mass of (E, s) sums the channel over l + x for the p^l
    stabilizer elements x = uG: zero unless l + x is zero on the ebits, else
    q^-|E| (r / (q - 1))^w (1 - r)^(L - w), w its weight on the L = m - |E|
    live noisy pairs. Acceptance sums P(s | E) over the kept pairs, built one
    noisy pair at a time, each shifting the syndrome by that of its own
    value. Both are sums of nonnegative terms, so a small acceptance keeps
    its relative precision. Refuses before decoding when the p^(2l)
    (leader, stabilizer) terms times the subsets, or the contents the
    decoder joins over them (the sum over subsets E of p^(2|E|)), exceed
    ``codes.ENUM_CAP``, or when the channel's field is not the code's.
    """
    code = spec.extended_code
    p, n, dim = code.p, code.n, code.stab.dim
    if channel.p != p:
        raise ValueError("channel field size does not match the code")
    noisy = np.asarray(spec.noisy_positions, dtype=np.int64)
    m, q = len(noisy), p * p
    rate, er = channel.depolarizing, channel.erasure
    sizes = [e for e in range(m + 1) if er**e * (1.0 - er) ** (m - e) != 0.0]
    count = sum(comb(m, e) for e in sizes)
    contents = sum(comb(m, e) * q**e for e in sizes)
    if max(p ** (2 * dim) * count, contents) > codes.ENUM_CAP:
        raise FeasibilityError(
            f"exact sum needs {p}^{2 * dim} leader-stabilizer terms times {count} erased subsets "
            f"and {contents} decoder contents over them, over cap {codes.ENUM_CAP}"
        )
    erased = np.zeros((count, n), dtype=bool)
    for j, subset in enumerate(s for e in sizes for s in itertools.combinations(noisy, e)):
        erased[j, list(subset)] = True
    is_noisy = np.isin(np.arange(n), noisy)
    live = is_noisy & ~erased
    size = np.count_nonzero(erased, axis=1)[:, None]
    subset_prob = er**size * (1.0 - er) ** (m - size)
    # prob[j, w]: subset j and one error of weight w on its m - |E| live
    # pairs; no entry past m - |E| is read
    w = np.arange(m + 1)
    prob = subset_prob / q**size * (rate / (q - 1)) ** w * (1.0 - rate) ** np.maximum(m - size - w, 0)
    # F_p^dim in key order: the syndromes, and the coefficients of the stabilizer elements
    radix = p ** np.arange(dim - 1, -1, -1)
    syndromes = np.arange(p**dim)[:, None] // radix % p
    stab = syndromes @ code.stab.basis % p
    owner = np.repeat(np.arange(count), len(syndromes))
    pairs = np.tile(syndromes, (count, 1))
    leaders = code.decode(pairs, erased[owner])
    kept = ~postselect.discards(pairs, leaders)
    # l + x is zero at a position iff x's (a, b) there is -l's, each coded as a p + b
    minus = -leaders % p
    stab_values, minus_values = stab[:, :n] * p + stab[:, n:], minus[:, :n] * p + minus[:, n:]
    good = np.empty(len(leaders))
    step = sp.block_rows(len(stab) * n)
    for start in range(0, len(leaders), step):
        at = slice(start, start + step)
        differs = stab_values != minus_values[at, None]
        weight = np.count_nonzero(differs & live[owner[at], None], axis=2)
        clean = ~differs[:, :, ~is_noisy].any(axis=2)
        good[at] = (prob[owner[at, None], weight] * clean).sum(axis=1)
    total_good = float(good[kept].sum())
    if postselect.mode == "none":
        return ExactFidelity(total_good)
    # P(s | E), one noisy pair at a time: each pair's value, drawn on its own,
    # adds its syndrome, one of the distinct shifts t; s takes mass from s - t
    values = np.arange(q)
    given = np.zeros((count, len(syndromes)))
    given[:, 0] = 1.0
    for i in noisy:
        unit = np.zeros((q, 2 * n), dtype=np.int64)
        unit[:, i], unit[:, n + i] = values // p, values % p
        shifts, image = np.unique(code.syndromes_batch(unit) @ radix, return_inverse=True)
        live_mass = np.bincount(image, np.where(values == 0, 1.0 - rate, rate / (q - 1)))
        mass = np.where(erased[:, i, None], np.bincount(image) / q, live_mass)
        source = (syndromes - shifts[:, None, None] // radix % p) % p @ radix
        given = np.einsum("jt,jts->js", mass, given[:, source])
    total_accept = float((subset_prob * given).ravel()[kept].sum())
    return ExactFidelity(total_good / total_accept if total_accept else 0.0, total_accept)
