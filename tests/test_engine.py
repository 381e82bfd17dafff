import itertools
import os
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import breedsim
from breedsim import codes, engine
from breedsim import symplectic as sp
from breedsim.breeding import BreedingProtocolSpec, EaqeccParams, convert_pure
from breedsim.codes import FeasibilityError, StabilizerCode
from breedsim.engine import (
    CHUNK,
    Channel,
    ErrorPattern,
    PostSelect,
    _sample_chunk,
    _simulate_chunk,
    exact_fidelity,
    run_protocol,
    simulate,
    verify_guarantee,
)
from test_kernel import extended_codes, postselects


def v(text, p=2):
    return sp.from_string(text, p)


@pytest.fixture(scope="module")
def breeding_spec():
    code = StabilizerCode(2, 6, [v("111111|000000"), v("000000|111111")])
    return convert_pure(code, {5})


def five_qubit_copies(copies):
    """Disjoint copies of the five-qubit code: [[5c, c, 3]]."""
    block = ["10010|01100", "01001|00110", "10100|00011", "01010|10001"]
    n = 5 * copies
    rows = []
    for copy in range(copies):
        for g in block:
            vec = v(g)
            row = np.zeros(2 * n, dtype=np.int64)
            row[5 * copy : 5 * copy + 5] = vec[:5]
            row[n + 5 * copy : n + 5 * copy + 5] = vec[5:]
            rows.append(row)
    return StabilizerCode(2, n, rows)


@pytest.fixture(scope="module")
def five_qubit_x3():
    """[[15,3,3]]: 2^12 syndromes, a dual of 2^18 vectors."""
    return five_qubit_copies(3)


def test_decode_with_erasures_over_cap_refused(five_qubit_x3):
    # 12 erased positions: the weight-0 class alone holds 4^12 > 2^22 vectors
    with pytest.raises(FeasibilityError, match="weight-class vectors"):
        five_qubit_x3.decode(np.zeros(12, dtype=np.int64), erased=range(12))


@pytest.fixture(scope="module")
def qutrit_spec():
    code = StabilizerCode(
        3, 5, [v(g, 3) for g in ("10020|01200", "01002|00120", "20100|00012", "02010|20001")]
    )
    return convert_pure(code, {4})


@pytest.fixture(scope="module")
def hashing_spec():
    code = StabilizerCode(
        2,
        5,
        [v("10010|01100"), v("01001|00110"), v("10100|00011"), v("01010|10001")],
    )
    return convert_pure(code, set())


def dense(rows, errors, erased, count, spec):
    """A sample of ``_sample_chunk`` as per-trial arrays over its count
    trials: the live rows at their offsets, no error and no erasure elsewhere."""
    full = np.zeros((count, 2 * spec.extended_code.n), dtype=np.int64)
    flags = np.zeros((count, len(spec.noisy_positions)), dtype=bool)
    full[rows], flags[rows] = errors, erased
    return full, flags


class TestRunProtocol:
    def test_zero_error_succeeds(self, breeding_spec):
        out = run_protocol(breeding_spec, ErrorPattern(np.zeros(12, dtype=np.int64)))
        assert out.success
        assert out.combined_syndrome == (0, 0)
        assert breeding_spec.params.net_yield == 3

    def test_erased_single_error_corrected(self, breeding_spec):
        out = run_protocol(
            breeding_spec, ErrorPattern(v("100000|000000"), frozenset({0}))
        )
        assert out.success

    def test_weight_two_error_fails(self, breeding_spec):
        out = run_protocol(breeding_spec, ErrorPattern(v("110000|000000")))
        assert not out.success

    def test_error_on_ebit_position_rejected(self, breeding_spec):
        with pytest.raises(ValueError, match="preshared"):
            run_protocol(breeding_spec, ErrorPattern(v("000001|000000")))

    def test_erasure_mask_is_checked(self, breeding_spec):
        errors = np.zeros((3, 12), dtype=np.int64)
        mask = np.zeros((3, 6), dtype=bool)
        mask[1, 5] = True
        with pytest.raises(ValueError, match="cannot be erased"):
            run_protocol(breeding_spec, ErrorPattern(errors, mask))
        with pytest.raises(ValueError, match="shape"):
            run_protocol(breeding_spec, ErrorPattern(errors, np.zeros((2, 6), dtype=bool)))
        mask[1, 5], mask[2, 0] = False, True
        out = run_protocol(breeding_spec, ErrorPattern(errors, mask))
        assert out.success.all()
        for outside in (6, -1):
            with pytest.raises(ValueError, match="out of range"):
                run_protocol(breeding_spec, ErrorPattern(errors, frozenset({outside})))

    def test_non_boolean_mask_refused(self, breeding_spec):
        errors = np.zeros((3, 12), dtype=np.int64)
        with pytest.raises(ValueError, match=r"boolean mask of shape \(3, 6\)"):
            ErrorPattern(errors, np.zeros((3, 6), dtype=np.int64))
        # a 1-D integer array still lists positions that every row shares
        pattern = ErrorPattern(errors, np.array([0, 2]))
        assert pattern.erased == frozenset({0, 2})
        assert run_protocol(breeding_spec, pattern).success.all()

    def test_fractional_positions_refused(self):
        # 1.7 and 0.2 must not be read as positions 1 and 0
        errors = np.zeros((2, 12), dtype=np.int64)
        for erased in (np.array([1.7, 0.2]), [1.7], (3.0,)):
            with pytest.raises(ValueError, match="must be integers"):
                ErrorPattern(errors, erased)
        for erased in ([0, 2], (np.int64(0), np.uint16(2)), np.array([2, 0], dtype=np.int8)):
            assert ErrorPattern(errors, erased).erased == frozenset({0, 2})

    def test_python_bools_refused(self):
        # True is an int: [True, True] must not be read as position 1
        errors = np.zeros(10, dtype=np.int64)
        for erased in ([True, True], [True, False, False, False, False]):
            with pytest.raises(ValueError, match="must be integers"):
                ErrorPattern(errors, erased)
        # a 1-D boolean array of the same flags stays a mask
        mask = np.array([True, False, False, False, False])
        assert ErrorPattern(errors, mask).erased.tolist() == mask.tolist()

    def test_pattern_leaves_the_callers_arrays_writable(self):
        error, mask = np.zeros(4, dtype=np.int64), np.zeros(2, dtype=bool)
        pattern = ErrorPattern(error, mask)
        error[0], mask[0] = 1, True
        assert not pattern.error.flags.writeable and not pattern.erased.flags.writeable
        # a view, not a copy: the pattern shares the caller's memory
        assert pattern.error.base is error and pattern.error[0] == 1

    def test_erasure_on_ebit_position_rejected(self, breeding_spec):
        with pytest.raises(ValueError, match="preshared"):
            run_protocol(
                breeding_spec, ErrorPattern(np.zeros(12, dtype=np.int64), frozenset({5}))
            )

    def test_first_bad_ebit_reports_error_before_erasure(self):
        code = five_qubit_copies(1)
        params = EaqeccParams(p=2, n=1, gross_k=1, c=4, d=3)
        spec = BreedingProtocolSpec(code, frozenset({1, 2, 3, 4}), params)
        errors = np.zeros((2, 10), dtype=np.int64)
        errors[1, 5 + 3] = 1
        with pytest.raises(ValueError, match="position 3 cannot carry an error"):
            run_protocol(spec, ErrorPattern(errors, frozenset({3})))
        with pytest.raises(ValueError, match="position 2 cannot be erased"):
            run_protocol(spec, ErrorPattern(errors, frozenset({0, 2})))


class TestVerifyGuarantee:
    def test_worked_example_sixteen_patterns(self, breeding_spec):
        cert = verify_guarantee(breeding_spec)
        assert cert.passed
        assert cert.patterns == 16

    def test_five_qubit_hashing(self, hashing_spec):
        cert = verify_guarantee(hashing_spec)
        assert cert.passed
        # identity + 15 singles + 15 single erasures + 90 double erasures
        assert cert.patterns == 121

    def test_undefined_distance_refused(self):
        code = StabilizerCode(2, 1, [v("1|0")])
        from breedsim.breeding import BreedingProtocolSpec, EaqeccParams

        bad = BreedingProtocolSpec(
            code, frozenset(), EaqeccParams(p=2, n=1, gross_k=0, c=0, d=None)
        )
        with pytest.raises(FeasibilityError):
            verify_guarantee(bad)

    def test_budget_refusal(self, hashing_spec):
        with pytest.raises(FeasibilityError):
            verify_guarantee(hashing_spec, max_patterns=10)

    @pytest.mark.parametrize(
        "p, generators, ebits, claimed, patterns, error, erased",
        [
            # values recorded from the per-pattern enumeration this kernel replaced
            (2, ["10010|01100", "01001|00110", "10100|00011", "01010|10001"], (), 4,
             33, "01000|10000", [0]),
            (2, ["10010|01100", "01001|00110", "10100|00011", "01010|10001"], (4,), 4,
             27, "01000|10000", [0]),
            (3, ["10020|01200", "01002|00120", "20100|00012", "02010|20001"], (4,), 4,
             68, "01000|10000", [0]),
            (2, ["111111|000000", "000000|111111"], (5,), 3, 2, "000000|100000", []),
            # c = 0 fits the cap once it counts (erased set, syndrome) pairs; values
            # cross-checked against one run_protocol call per row in enumeration order
            (3, ["10020|01200", "01002|00120", "20100|00012", "02010|20001"], (), 4,
             84, "01000|10000", [0]),
            # d above the 2 noisy pairs plus one; values recorded once erased sets stop at m
            (2, ["1111|0000", "0000|1111"], (2, 3), 4, 2, "0000|1000", []),
        ],
    )
    def test_overstated_distance_counterexample(
        self, p, generators, ebits, claimed, patterns, error, erased
    ):
        code = StabilizerCode(p, len(generators[0]) // 2, [v(g, p) for g in generators])
        params = EaqeccParams(p=p, n=code.n - len(ebits), gross_k=code.k, c=len(ebits), d=claimed)
        cert = verify_guarantee(BreedingProtocolSpec(code, frozenset(ebits), params))
        assert not cert.passed
        assert cert.patterns == patterns
        assert sp.to_string(cert.counterexample.error) == error
        assert sorted(cert.counterexample.erased) == erased

    def test_claimed_distance_beyond_noisy_pairs(self):
        # one noisy pair: every erased set and error weight that fits on it passes
        code = five_qubit_copies(1)
        for d in (4, 6):
            params = EaqeccParams(p=2, n=1, gross_k=1, c=4, d=d)
            cert = verify_guarantee(BreedingProtocolSpec(code, frozenset({1, 2, 3, 4}), params))
            assert cert.passed and cert.patterns == 7  # 1 + 3 errors + 3 erased values

    def test_punctured_five_qubit_x3_passes(self, five_qubit_x3):
        # 2t + e < 3 on 14 noisy pairs: 1 + 14*3 (t=1) + 14*3 (e=1) + C(14,2)*9 (e=2)
        cert = verify_guarantee(convert_pure(five_qubit_x3, {14}))
        assert cert.passed and cert.patterns == 904

    def test_weight_classes_over_cap_refused(self, five_qubit_x3):
        # a claimed d = 13 takes erased sets of size 12, each decoded from 4^12 > 2^22
        # contents; the pattern cap is raised so that only the decoder's counts refuse
        params = EaqeccParams(p=2, n=15, gross_k=3, c=0, d=13)
        spec = BreedingProtocolSpec(five_qubit_x3, frozenset(), params)
        with pytest.raises(FeasibilityError, match="weight-class vectors"):
            verify_guarantee(spec, max_patterns=10**12)

    def test_work_check_counts_what_the_decoder_generates(self, kernel_calls, monkeypatch):
        # d = 3, c = 0: classes 0 and 1 hold 1 + 5 * 3 = 16 vectors, and an
        # erased pair carries 4^2 = 16 contents; the spec is built first, since
        # its distance scan would refuse at a cap of 16
        spec = convert_pure(five_qubit_copies(1), set())
        monkeypatch.setattr(codes, "ENUM_CAP", 15)
        with pytest.raises(FeasibilityError, match="16 weight-class vectors through weight 1, over cap 15"):
            verify_guarantee(spec)
        assert kernel_calls == []
        monkeypatch.setattr(codes, "ENUM_CAP", 16)
        assert verify_guarantee(spec).passed

    def test_work_check_on_five_qubit_x3_at_claimed_distance_six(self, monkeypatch):
        # [[15,3,3]], c = 0, d = 6: t <= 2 and e <= 5, so the decoder builds
        # 1 + 15 * 3 + 105 * 9 = 991 class vectors and at most 4^5 contents
        # per erased set (the 1 372 420 patterns themselves are not run)
        monkeypatch.setattr(codes, "ENUM_CAP", 1024)
        codes.check_decoder_work(15, 2, 2, 5)
        monkeypatch.setattr(codes, "ENUM_CAP", 1023)
        with pytest.raises(FeasibilityError, match="5 erased positions enumerates 1024 weight-class"):
            codes.check_decoder_work(15, 2, 2, 5)
        monkeypatch.setattr(codes, "ENUM_CAP", 990)
        with pytest.raises(FeasibilityError, match="991 weight-class vectors through weight 2"):
            codes.check_decoder_work(15, 2, 2, 5)

    def test_all_catalog_conversions(self):
        from breedsim.catalog import builtin_catalog

        for entry in builtin_catalog():
            for c in range(entry.d):
                spec = convert_pure(entry.code, set(range(entry.code.n - c, entry.code.n)))
                assert verify_guarantee(spec).passed


class TestSimulate:
    def test_rate_zero_is_perfect(self, breeding_spec):
        report = simulate(breeding_spec, Channel(2, 0.0), 500, seed=1)
        assert report.fidelity_estimate == 1.0
        assert report.discards == 0

    def test_deterministic(self, breeding_spec):
        a = simulate(breeding_spec, Channel(2, 0.1), 3000, seed=42)
        b = simulate(breeding_spec, Channel(2, 0.1), 3000, seed=42)
        assert a == b

    def test_workers_do_not_change_results(self, breeding_spec):
        serial = simulate(breeding_spec, Channel(2, 0.1), 25_000, seed=3, workers=1)
        parallel = simulate(breeding_spec, Channel(2, 0.1), 25_000, seed=3, workers=2)
        assert serial == parallel

    def test_pool_starts_no_more_workers_than_chunks(self, breeding_spec, monkeypatch):
        # a stand-in pool that maps in-process: no real process is started
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        serial = simulate(breeding_spec, Channel(2, 0.1), 2 * CHUNK, seed=5)
        assert simulate(breeding_spec, Channel(2, 0.1), 2 * CHUNK, seed=5, workers=500) == serial
        assert simulate(breeding_spec, Channel(2, 0.1), 3 * CHUNK, seed=5, workers=2).trials == 3 * CHUNK
        assert sizes == [2, 2]

    def test_import_loads_no_process_pool(self):
        # the pool is imported only by a run with more than one worker
        code = (
            "import sys, breedsim, breedsim.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(breedsim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_invalid_trials(self, breeding_spec):
        with pytest.raises(ValueError):
            simulate(breeding_spec, Channel(2, 0.1), 0)

    def test_postselect_nonzero_discards(self, breeding_spec):
        report = simulate(
            breeding_spec, Channel(2, 0.3), 4000, seed=0, postselect=PostSelect("nonzero")
        )
        assert report.discards > 0
        # conditioning on the trivial syndrome can only help
        plain = simulate(breeding_spec, Channel(2, 0.3), 4000, seed=0)
        assert report.fidelity_estimate >= plain.fidelity_estimate

    def test_five_qubit_x3_hashing_runs(self, five_qubit_x3):
        # 2^12 syndromes, each leader found by weight 3
        spec = convert_pure(five_qubit_x3, set())
        report = simulate(spec, Channel(2, 0.1), 200, seed=0)
        assert report.trials == 200 and report.discards == 0
        assert 0 < report.successes < 200

    @pytest.mark.parametrize("erasure", [0.0, 0.1])
    def test_worker_counts_agree_on_partial_chunk(self, breeding_spec, erasure):
        trials = 2 * CHUNK + 1234
        ch = Channel(2, 0.1, erasure=erasure)
        reports = [simulate(breeding_spec, ch, trials, seed=8, workers=w) for w in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]

    def test_erasure_channel_runs(self, breeding_spec):
        report = simulate(breeding_spec, Channel(2, 0.0, erasure=0.2), 400, seed=5)
        # single erasures are always corrected (d = 2); with >= 2 erasures the
        # trial may fail, so fidelity is at least P(<= 1 erasure) ~ 0.74
        assert 0.7 < report.fidelity_estimate <= 1.0

    @pytest.mark.parametrize("policy", ["none", "nonzero", "weight:1"])
    @pytest.mark.parametrize("which", ["breeding", "qutrit"])
    def test_chunk_matches_one_call_per_erased_set(self, breeding_spec, qutrit_spec, which, policy):
        spec = breeding_spec if which == "breeding" else qutrit_spec
        p = spec.extended_code.p
        post = PostSelect.parse(policy)
        args = (spec, Channel(p, 0.2, erasure=0.3), 6, CHUNK, CHUNK + 3000, post)
        # reference: the trials grouped by erased set, one kernel call per group
        errors, erased = dense(*_sample_chunk(*args[:5]), 3000, spec)
        noisy = np.asarray(spec.noisy_positions)
        successes = discards = 0
        groups = {frozenset(noisy[row].tolist()) for row in erased}
        assert len(groups) > 4
        for group in groups:
            rows = np.array([frozenset(noisy[row].tolist()) == group for row in erased])
            out = run_protocol(spec, ErrorPattern(errors[rows], group), post)
            successes += int(np.sum(out.success & ~out.discarded))
            discards += int(np.sum(out.discarded))
        assert _simulate_chunk(args) == (successes, discards)


class TestSampleChunk:
    @pytest.mark.parametrize("erasure", [0.0, 0.2])
    @pytest.mark.parametrize("start", [0, CHUNK])
    def test_shorter_run_is_prefix(self, breeding_spec, erasure, start):
        ch = Channel(2, 0.3, erasure=erasure)
        short_err, short_er = dense(*_sample_chunk(breeding_spec, ch, 4, start, start + 700), 700, breeding_spec)
        long_err, long_er = dense(*_sample_chunk(breeding_spec, ch, 4, start, start + CHUNK), CHUNK, breeding_spec)
        assert np.array_equal(short_err, long_err[:700])
        assert np.array_equal(short_er, long_er[:700])

    def test_chunks_are_keyed_by_index(self, breeding_spec):
        ch = Channel(2, 0.3)
        first, _ = dense(*_sample_chunk(breeding_spec, ch, 4, 0, 500), 500, breeding_spec)
        second, _ = dense(*_sample_chunk(breeding_spec, ch, 4, CHUNK, CHUNK + 500), 500, breeding_spec)
        assert not np.array_equal(first, second)
        with pytest.raises(ValueError, match="chunk"):
            _sample_chunk(breeding_spec, ch, 4, 5, 10)
        with pytest.raises(ValueError, match="chunk"):
            _sample_chunk(breeding_spec, ch, 4, 0, CHUNK + 1)

    @pytest.mark.parametrize("erasure", [0.0, 0.2])
    @pytest.mark.parametrize("p", [2, 3])
    def test_frequencies_match_channel(self, breeding_spec, qutrit_spec, p, erasure):
        spec = breeding_spec if p == 2 else qutrit_spec
        q, rate = p * p, 0.3
        noisy = np.asarray(spec.noisy_positions)
        n = spec.extended_code.n
        values, flags = [], []
        ch = Channel(p, rate, erasure)
        for start in range(0, 3 * CHUNK, CHUNK):
            errors, erased = dense(*_sample_chunk(spec, ch, 21, start, start + CHUNK), CHUNK, spec)
            values.append((errors[:, noisy] * p + errors[:, n + noisy]).ravel())
            flags.append(erased.ravel())
        values, flags = np.concatenate(values), np.concatenate(flags)
        total = len(values)
        for gone in (False, True):
            for value in range(q):
                if gone:
                    want = erasure / q
                else:
                    want = (1 - erasure) * ((1 - rate) if value == 0 else rate / (q - 1))
                got = np.count_nonzero((values == value) & (flags == gone)) / total
                sigma = np.sqrt(want * (1 - want) / total)
                assert abs(got - want) <= 5 * sigma, (gone, value, got, want)


def dense_sample(spec, channel, seed, start, stop):
    """Every trial's error row and erasure flags, sampled from the chunk's
    uniforms as a dense array over all of its trials."""
    p = channel.p
    q = p * p
    n_total = spec.extended_code.n
    noisy = np.asarray(spec.noisy_positions, dtype=np.int64)
    m = len(noisy)
    count = stop - start
    rate, er = channel.depolarizing, channel.erasure
    rng = np.random.default_rng((seed, start // CHUNK))
    uniforms = rng.random((count, 2 * m if er > 0.0 else m))
    u = uniforms[:, :m]
    hit = u < rate
    values = np.zeros((count, m), dtype=np.int64)
    values[hit] = 1 + np.minimum((u[hit] / rate * (q - 1)).astype(np.int64), q - 2)
    erased = np.zeros((count, m), dtype=bool)
    if er > 0.0:
        v = uniforms[:, m:]
        erased = v < er
        values[erased] = np.minimum((v[erased] / er * q).astype(np.int64), q - 1)
    errors = np.zeros((count, 2 * n_total), dtype=np.int64)
    errors[:, noisy] = values // p
    errors[:, n_total + noisy] = values % p
    return errors, erased


def every_trial_chunk(spec, channel, seed, start, stop, postselect):
    """(kept successes, discards) with every trial of the range sent through run_protocol."""
    errors, erased = dense_sample(spec, channel, seed, start, stop)
    mask = np.zeros((len(errors), spec.extended_code.n), dtype=bool)
    mask[:, list(spec.noisy_positions)] = erased
    outcome = run_protocol(spec, ErrorPattern(errors, mask), postselect)
    return int(np.sum(outcome.success & ~outcome.discarded)), int(np.sum(outcome.discarded))


#: per field: a pure [[5,1,3]]_p code (the five-qubit code's shifts of X Z Z^-1 X^-1)
FIVE_CODES = {
    p: StabilizerCode(p, 5, [v(g.replace("9", str(p - 1)), p) for g in ("10090|01900", "01009|00190", "90100|00019", "09010|90001")])
    for p in (2, 3, 5)
}


@st.composite
def live_trial_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    # over F_5 at least two pairs are preshared: five erased pairs would need 25^5 leaders
    spec = convert_pure(FIVE_CODES[p], draw(st.sampled_from([{0, 2}] if p == 5 else [set(), {4}, {0, 2}])))
    rate = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    channel = Channel(p, rate, draw(st.sampled_from([0.0, 0.3])))
    start = CHUNK * draw(st.integers(0, 2))
    stop = start + draw(st.sampled_from([0, 1, CHUNK]) | st.integers(0, 1500))
    return spec, channel, draw(st.integers(0, 2**32)), start, stop


class TestLiveTrials:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(live_trial_cases())
    def test_live_sample_expands_to_the_dense_sample(self, case):
        spec, channel, seed, start, stop = case
        rows, errors, erased = _sample_chunk(spec, channel, seed, start, stop)
        assert errors.dtype == np.int64 and erased.dtype == bool
        want_errors, want_erased = dense_sample(spec, channel, seed, start, stop)
        got_errors, got_erased = dense(rows, errors, erased, stop - start, spec)
        assert np.array_equal(got_errors, want_errors)
        assert np.array_equal(got_erased, want_erased)
        # the live trials, ascending, are exactly those with an error or an
        # erasure (an erased pair may carry the identity)
        live = want_errors.any(axis=1) | want_erased.any(axis=1)
        assert rows.tolist() == np.flatnonzero(live).tolist()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(live_trial_cases())
    # no depolarizing hit but erased pairs; every pair hit; a rate so small
    # that a uniform above it, divided by it, would overflow
    @example((convert_pure(FIVE_CODES[2], {4}), Channel(2, 0.0, 0.3), 5, 0, CHUNK))
    @example((convert_pure(FIVE_CODES[3], set()), Channel(3, 1.0), 5, CHUNK, 2 * CHUNK))
    @example((convert_pure(FIVE_CODES[5], {0, 2}), Channel(5, 1.0, 0.3), 5, 0, 1500))
    @example((convert_pure(FIVE_CODES[5], {0, 2}), Channel(5, 5e-324, 0.3), 5, 0, CHUNK))
    def test_sampler_raises_no_warning(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, errors, erased = _sample_chunk(*case)
        assert len(rows) == len(errors) == len(erased)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(live_trial_cases(), st.sampled_from(["none", "nonzero", "weight:0", "weight:1"]))
    def test_chunk_matches_every_trial_through_the_kernel(self, case, policy):
        spec, channel, seed, start, stop = case
        post = PostSelect.parse(policy)
        want = every_trial_chunk(spec, channel, seed, start, stop, post)
        assert _simulate_chunk((spec, channel, seed, start, stop, post)) == want

    @pytest.mark.parametrize("erasure", [0.0, 0.2])
    def test_shorter_run_has_the_longer_runs_live_prefix(self, breeding_spec, erasure):
        ch = Channel(2, 0.05, erasure=erasure)
        short = _sample_chunk(breeding_spec, ch, 4, CHUNK, CHUNK + 700)
        long = _sample_chunk(breeding_spec, ch, 4, CHUNK, 2 * CHUNK)
        below = long[0] < 700
        assert 0 < below.sum() < len(long[0])
        for got, want in zip(short, long):
            assert np.array_equal(got, want[below])

    def test_clean_chunk_makes_no_kernel_call(self, breeding_spec, kernel_calls):
        assert _simulate_chunk((breeding_spec, Channel(2, 0.0), 3, 0, 4000, PostSelect("nonzero"))) == (4000, 0)
        assert simulate(breeding_spec, Channel(2, 0.0), CHUNK + 5, seed=1).successes == CHUNK + 5
        assert kernel_calls == []
        # at a sparse rate only the live trials reach the kernel, in one call per chunk
        rows, _, _ = _sample_chunk(breeding_spec, Channel(2, 0.01), 3, 0, 4000)
        _simulate_chunk((breeding_spec, Channel(2, 0.01), 3, 0, 4000, PostSelect("nonzero")))
        assert kernel_calls == [len(rows)] and 0 < len(rows) < 400

    @pytest.mark.parametrize(
        "which, rate, erasure, policy, discards, successes",
        [
            # recorded with every trial sent through the kernel
            ("breeding", 0.01, 0.0, "nonzero", 537, 10695),
            ("breeding", 0.1, 0.0, "none", 0, 6581),
            ("breeding", 0.01, 0.02, "nonzero", 1315, 9903),
            ("breeding", 0.1, 0.1, "nonzero", 6057, 4530),
            ("qutrit", 0.01, 0.0, "weight:1", 1, 11230),
            ("qutrit", 0.1, 0.0, "weight:1", 388, 10614),
            ("qutrit", 0.01, 0.02, "nonzero", 1213, 10021),
            ("qutrit", 0.1, 0.1, "weight:1", 1404, 9488),
        ],
    )
    def test_pinned_reports_across_a_chunk_boundary(
        self, breeding_spec, qutrit_spec, which, rate, erasure, policy, discards, successes
    ):
        spec = breeding_spec if which == "breeding" else qutrit_spec
        channel = Channel(spec.extended_code.p, rate, erasure)
        report = simulate(spec, channel, CHUNK + 1234, seed=17, postselect=PostSelect.parse(policy))
        assert (report.trials, report.discards, report.successes) == (CHUNK + 1234, discards, successes)

    def test_negative_seed_refused_up_front(self, breeding_spec, kernel_calls):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            simulate(breeding_spec, Channel(2, 0.1), 10, seed=-1)
        assert kernel_calls == []


class TestExactFidelity:
    def test_rate_zero(self, breeding_spec):
        assert exact_fidelity(breeding_spec, Channel(2, 0.0)).fidelity == 1.0

    def test_agrees_with_simulation(self, breeding_spec):
        for rate in (0.05, 0.1):
            exact = exact_fidelity(breeding_spec, Channel(2, rate)).fidelity
            report = simulate(breeding_spec, Channel(2, rate), 20_000, seed=9)
            sigma = max(np.sqrt(exact * (1 - exact) / report.trials), 1e-9)
            assert abs(report.fidelity_estimate - exact) < 3 * sigma

    def test_monotone_in_rate(self, breeding_spec):
        rates = np.linspace(0.0, 0.75, 16)
        values = [exact_fidelity(breeding_spec, Channel(2, r)).fidelity for r in rates]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_postselect_returns_acceptance(self, breeding_spec):
        res = exact_fidelity(
            breeding_spec, Channel(2, 0.2), postselect=PostSelect("nonzero")
        )
        assert 0.0 < res.acceptance < 1.0
        assert res.fidelity >= exact_fidelity(breeding_spec, Channel(2, 0.2)).fidelity

    def test_erasure_agrees_with_simulation(self, breeding_spec):
        ch = Channel(2, 0.05, erasure=0.1)
        exact = exact_fidelity(breeding_spec, ch).fidelity
        report = simulate(breeding_spec, ch, 4000, seed=13)
        sigma = np.sqrt(exact * (1 - exact) / report.trials)
        assert abs(report.fidelity_estimate - exact) < 4 * sigma

    def test_erasure_agrees_with_simulation_qutrit(self, qutrit_spec):
        ch = Channel(3, 0.05, erasure=0.1)
        exact = exact_fidelity(qutrit_spec, ch).fidelity
        report = simulate(qutrit_spec, ch, 4000, seed=13)
        sigma = np.sqrt(exact * (1 - exact) / report.trials)
        assert abs(report.fidelity_estimate - exact) < 4 * sigma

    def test_channel_over_another_field_refused(self, breeding_spec):
        # a qutrit channel on a qubit protocol; simulate refuses it the same way
        with pytest.raises(ValueError, match="channel field size does not match the code"):
            exact_fidelity(breeding_spec, Channel(3, 0.1))
        with pytest.raises(ValueError, match="channel field size does not match the code"):
            simulate(breeding_spec, Channel(3, 0.1), 10)

    def test_erased_subsets_count_against_cap(self):
        # q^m = 4^10 rows fit the cap, but times 2^10 erased subsets they do not
        spec = convert_pure(five_qubit_copies(2), set())
        with pytest.raises(FeasibilityError, match="erased subsets"):
            exact_fidelity(spec, Channel(2, 0.1, erasure=0.1))

    @pytest.mark.parametrize("policy", ["none", "nonzero", "weight:0"])
    def test_erasure_sum_matches_per_row_reference(self, policy):
        code = StabilizerCode(2, 4, [v("1111|0000"), v("0000|1111")])
        spec = convert_pure(code, {3})
        post = PostSelect.parse(policy)
        rate, er, m = 0.15, 0.2, 3
        good = accept = 0.0
        for values in itertools.product(range(4), repeat=m):
            err = np.zeros(8, dtype=np.int64)
            for pos, val in enumerate(values):
                err[pos], err[4 + pos] = divmod(val, 2)
            for erased in itertools.product((False, True), repeat=m):
                prob = 1.0
                for val, gone in zip(values, erased):
                    prob *= er / 4 if gone else (1 - er) * (rate / 3 if val else 1 - rate)
                erased_set = frozenset(i for i in range(m) if erased[i])
                syn = code.syndrome(err)
                decoded = code.decode(syn, erased_set)
                weight = sp.symp_weight(decoded)
                if {"none": False, "nonzero": any(syn), "weight": weight > 0}[post.mode]:
                    continue
                accept += prob
                if code.logical_class((err - decoded) % 2).is_identity:
                    good += prob
        res = exact_fidelity(spec, Channel(2, rate, erasure=er), postselect=post)
        # the kernel sums probabilities in another order than this loop
        want = good if post.mode == "none" else good / accept
        assert abs(res.fidelity - want) < 1e-12
        if post.mode != "none":
            assert abs(res.acceptance - accept) < 1e-12


STEANE = [
    "0001111|0000000", "0110011|0000000", "1010101|0000000",
    "0000000|0001111", "0000000|0110011", "0000000|1010101",
]


@pytest.fixture
def decode_calls(monkeypatch):
    """The row count of every StabilizerCode.decode call."""
    calls = []
    decode = StabilizerCode.decode

    def counted(self, syndromes, erased=frozenset()):
        calls.append(len(np.atleast_2d(syndromes)))
        return decode(self, syndromes, erased)

    monkeypatch.setattr(StabilizerCode, "decode", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The row count of every run_protocol call the engine makes."""
    calls = []

    def counted(spec, pattern, *args):
        calls.append(len(np.atleast_2d(pattern.error)))
        return run_protocol(spec, pattern, *args)

    monkeypatch.setattr(engine, "run_protocol", counted)
    return calls


def exact_reference(spec, channel, postselect):
    """exact_fidelity as one run_protocol call per erased subset, summed in
    the same subset order."""
    code = spec.extended_code
    p, n = code.p, code.n
    noisy = list(spec.noisy_positions)
    m, q = len(noisy), p * p
    rate, er = channel.depolarizing, channel.erasure
    digits = np.array(list(itertools.product(range(q), repeat=m)), dtype=np.int64)
    errors = np.zeros((len(digits), 2 * n), dtype=np.int64)
    errors[:, noisy] = digits // p
    errors[:, [n + i for i in noisy]] = digits % p
    depol = np.where(digits == 0, 1.0 - rate, rate / (q - 1))
    good = accept = 0.0
    for e in range(m + 1):
        subset_prob = er**e * (1.0 - er) ** (m - e)
        if subset_prob == 0.0:
            continue
        for local in itertools.combinations(range(m), e):
            live = np.ones(m, dtype=bool)
            live[list(local)] = False
            prob = depol[:, live].prod(axis=1) * (1.0 / q) ** e * subset_prob
            erased = frozenset(noisy[j] for j in local)
            outcome = run_protocol(spec, ErrorPattern(errors, erased), postselect)
            kept = ~outcome.discarded
            accept += float(prob[kept].sum())
            good += float(prob[outcome.success & kept].sum())
    if postselect.mode == "none":
        return good, 1.0
    return (good / accept if accept else 0.0), accept


class TestKernelCalls:
    def test_verify_is_one_call(self, breeding_spec, kernel_calls):
        steane = StabilizerCode(2, 7, [v(g) for g in STEANE])
        assert verify_guarantee(convert_pure(steane, set())).passed
        assert verify_guarantee(breeding_spec).passed
        assert len(kernel_calls) == 2

    def test_exact_fidelity_is_one_call(self, kernel_calls, decode_calls):
        spec = convert_pure(five_qubit_copies(1), {4})
        exact_fidelity(spec, Channel(2, 0.1, 0.1), PostSelect.parse("nonzero"))
        # no error row reaches the kernel; one decode call takes the 2^4
        # syndromes of each of the 2^4 erased subsets
        assert kernel_calls == []
        assert decode_calls == [2**4 * 2**4]

    def test_erasure_free_simulation_makes_no_join(self, decode_calls, monkeypatch):
        # Steane with no ebit at four rates: four decode calls, each meeting
        # syndromes the calls before it did not, all on the empty erased set,
        # so every leader is read off the weight classes with no join
        joins = []
        join = StabilizerCode._join

        def join_spy(self, keys, mask, rows, e):
            joins.append(e)
            return join(self, keys, mask, rows, e)

        monkeypatch.setattr(StabilizerCode, "_join", join_spy)
        steane = StabilizerCode(2, 7, [v(g) for g in STEANE])
        spec = convert_pure(steane, set())
        for rate in (0.005, 0.01, 0.1, 0.2):
            simulate(spec, Channel(2, rate), 5000, seed=77)
        assert len(decode_calls) == 4
        assert joins == []

    @pytest.mark.parametrize("block_rows", [1, 7, 32])
    @pytest.mark.parametrize(
        "p, generators, ebits, claimed",
        [
            (2, ["10010|01100", "01001|00110", "10100|00011", "01010|10001"], (), 3),
            (2, ["10010|01100", "01001|00110", "10100|00011", "01010|10001"], (), 4),
            (3, ["10020|01200", "01002|00120", "20100|00012", "02010|20001"], (4,), 4),
            (2, ["111111|000000", "000000|111111"], (5,), 2),
        ],
    )
    def test_verify_blocks_split_at_the_bound(
        self, p, generators, ebits, claimed, block_rows, kernel_calls, monkeypatch
    ):
        def spec():
            code = StabilizerCode(p, len(generators[0]) // 2, [v(g, p) for g in generators])
            params = EaqeccParams(p=p, n=code.n - len(ebits), gross_k=code.k, c=len(ebits), d=claimed)
            return BreedingProtocolSpec(code, frozenset(ebits), params)

        want = verify_guarantee(spec())
        kernel_calls.clear()
        n = len(generators[0]) // 2
        monkeypatch.setattr(sp, "BLOCK_ENTRIES", 2 * n * block_rows)
        got = verify_guarantee(spec())
        assert (got.passed, got.patterns) == (want.passed, want.patterns)
        if not want.passed:
            assert np.array_equal(got.counterexample.error, want.counterexample.error)
            assert got.counterexample.erased == want.counterexample.erased
        # every call but the last is full; the last holds the counterexample or the rest
        assert all(rows == block_rows for rows in kernel_calls[:-1])
        assert len(kernel_calls) == -(-got.patterns // block_rows)

    @pytest.mark.parametrize("policy", ["none", "nonzero", "weight:1"])
    @pytest.mark.parametrize("block", ["three_subsets", "under_one_subset", "seven_rows"])
    @pytest.mark.parametrize("which", ["breeding", "qutrit"])
    def test_exact_fidelity_small_blocks(self, breeding_spec, qutrit_spec, which, block, policy, monkeypatch):
        # blocks of 2n times these rows: the success sum takes 2 block_rows / p^dim(C)
        # (subset, syndrome) pairs per chunk, one at least
        spec = {"breeding": breeding_spec, "qutrit": qutrit_spec}[which]
        p, n, m = spec.extended_code.p, spec.extended_code.n, len(spec.noisy_positions)
        channel = Channel(p, 0.15, erasure=0.2)
        post = PostSelect.parse(policy)
        size = p ** (2 * m)
        block_rows = {"three_subsets": 3 * size, "under_one_subset": size - 1, "seven_rows": 7}[block]
        monkeypatch.setattr(sp, "BLOCK_ENTRIES", 2 * n * block_rows)
        got = exact_fidelity(spec, channel, postselect=post)
        fidelity, acceptance = exact_reference(spec, channel, post)
        assert abs(got.fidelity - fidelity) <= 1e-12
        assert abs(got.acceptance - acceptance) <= 1e-12

    @pytest.mark.parametrize("erasure", [0.0, 1.0])
    @pytest.mark.parametrize("block", ["under_one_subset", "seven_rows"])
    @pytest.mark.parametrize("which", ["breeding", "qutrit"])
    def test_exact_fidelity_one_subset_in_small_blocks(
        self, breeding_spec, qutrit_spec, which, block, erasure, monkeypatch
    ):
        # with erasure 0 or 1 a single erased subset carries every pair
        spec = {"breeding": breeding_spec, "qutrit": qutrit_spec}[which]
        p, n, m = spec.extended_code.p, spec.extended_code.n, len(spec.noisy_positions)
        channel = Channel(p, 0.15, erasure=erasure)
        post = PostSelect.parse("nonzero")
        size = p ** (2 * m)
        block_rows = {"under_one_subset": size - 1, "seven_rows": 7}[block]
        monkeypatch.setattr(sp, "BLOCK_ENTRIES", 2 * n * block_rows)
        got = exact_fidelity(spec, channel, postselect=post)
        fidelity, acceptance = exact_reference(spec, channel, post)
        assert abs(got.fidelity - fidelity) <= 1e-12
        assert abs(got.acceptance - acceptance) <= 1e-12

    @pytest.mark.parametrize("erasure", [0.0, 0.2])
    def test_exact_fidelity_reads_the_cap_at_call_time(self, erasure, kernel_calls, decode_calls, monkeypatch):
        # p^(2 dim C) leader-stabilizer terms per erased subset: exactly the
        # terms needed pass; one fewer is refused before any decode call. The
        # largest subset's 4^4 contents stay under both caps
        spec = convert_pure(five_qubit_copies(1), {4})
        m, dim = len(spec.noisy_positions), spec.extended_code.stab.dim
        terms = 2 ** (2 * dim) * (2**m if erasure else 1)
        channel = Channel(2, 0.15, erasure=erasure)
        monkeypatch.setattr(codes, "ENUM_CAP", terms - 1)
        with pytest.raises(FeasibilityError, match=f"over cap {terms - 1}"):
            exact_fidelity(spec, channel)
        assert decode_calls == [] and kernel_calls == []
        monkeypatch.setattr(codes, "ENUM_CAP", terms)
        got = exact_fidelity(spec, channel)
        assert decode_calls == [2**dim * (2**m if erasure else 1)]
        assert abs(got.fidelity - exact_reference(spec, channel, PostSelect.parse("none"))[0]) <= 1e-12

    def test_exact_fidelity_refuses_the_largest_erased_subset_before_joining(self, decode_calls, monkeypatch):
        # erasure 1: one subset of all 5 noisy pairs, with 4^5 contents; erasure
        # 0.2: all 2^5 subsets, sum C(5, e) 4^e = 5^5 contents. The oracle
        # refuses them before any decode call, so nothing is joined; the
        # 2^(2 dim C) = 16 terms per subset fit the cap. Exactly the contents pass
        for erasure, contents in [(1.0, 4**5), (0.2, 5**5)]:
            spec = convert_pure(StabilizerCode(2, 6, [v("111111|000000"), v("000000|111111")]), {5})
            channel = Channel(2, 0.1, erasure=erasure)
            monkeypatch.setattr(codes, "ENUM_CAP", contents - 1)
            with pytest.raises(FeasibilityError, match=f"{contents} decoder contents over them, over cap {contents - 1}"):
                exact_fidelity(spec, channel)
            assert decode_calls == [] and spec.extended_code._classes == []
            monkeypatch.setattr(codes, "ENUM_CAP", contents)
            got = exact_fidelity(spec, channel)
            assert abs(got.fidelity - exact_reference(spec, channel, PostSelect.parse("none"))[0]) <= 1e-12
            decode_calls.clear()

    def test_exact_fidelity_counts_the_contents_of_every_erased_subset(self, decode_calls):
        # [[12,10,2]] with one ebit: 2^11 erased subsets of the 11 noisy pairs
        # carry sum C(11, e) 4^e = 5^11 contents, over the default cap, though
        # their 16 * 2^11 leader-stabilizer terms are not
        spec = convert_pure(StabilizerCode(2, 12, [v("1" * 12 + "|" + "0" * 12), v("0" * 12 + "|" + "1" * 12)]), {11})
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match=f"{5**11} decoder contents"):
            exact_fidelity(spec, Channel(2, 0.01, erasure=0.1))
        assert time.perf_counter() - start < 1.0
        assert decode_calls == []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(extended_codes(), st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0), st.booleans(), st.data())
def test_exact_fidelity_matches_the_full_space_sum(case, erasure, rate, one_pair, data):
    # noisy pairs first, then the c ebits symp_extend appended; a chunk of
    # the success sum holds one (subset, syndrome) pair, or the default many
    code, n, c = case
    params = EaqeccParams(p=code.p, n=n, gross_k=code.k, c=c, d=None)
    spec = BreedingProtocolSpec(code, frozenset(range(n, code.n)), params)
    channel = Channel(code.p, rate, erasure)
    post = PostSelect.parse(data.draw(postselects(code.n)))
    entries = code.p**code.stab.dim * code.n if one_pair else sp.BLOCK_ENTRIES
    with mock.patch.object(sp, "BLOCK_ENTRIES", entries):
        got = exact_fidelity(spec, channel, post)
    fidelity, acceptance = exact_reference(spec, channel, post)
    assert abs(got.fidelity - fidelity) <= 1e-12
    assert abs(got.acceptance - acceptance) <= 1e-12


def test_postselect_parsing():
    assert PostSelect.parse("none").mode == "none"
    assert PostSelect.parse("nonzero").mode == "nonzero"
    weight = PostSelect.parse("weight:2")
    assert weight.mode == "weight" and weight.threshold == 2
    with pytest.raises(ValueError):
        PostSelect.parse("sometimes")


def test_nonzero_discards_every_row_with_a_syndrome():
    # the discard flags are np.any along each row, for any row width
    rng = np.random.default_rng(5)
    for shape in [(0, 3), (7, 0), (50, 1), (200, 4), (31, 40)]:
        syndromes = rng.integers(0, 3, shape) * (rng.random(shape) < 0.2)
        got = PostSelect("nonzero").discards(syndromes, syndromes)
        assert got.dtype == bool and np.array_equal(got, np.any(syndromes, axis=1))


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(2, 1.5)
    with pytest.raises(ValueError):
        Channel(2, 0.1, erasure=-0.2)
