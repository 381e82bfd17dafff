import inspect
import itertools
from unittest import mock

import numpy as np
import pytest

from breedsim import codes, engine, search
from breedsim import fieldmath as fm
from breedsim import symplectic as sp
from breedsim.codes import CodeConstructionError, FeasibilityError, StabilizerCode, min_weight_outside


def v(text, p=2):
    return sp.from_string(text, p)


@pytest.fixture(scope="module")
def rep642():
    return StabilizerCode(2, 6, [v("111111|000000"), v("000000|111111")])


@pytest.fixture(scope="module")
def five_qubit():
    return StabilizerCode(
        2,
        5,
        [v("10010|01100"), v("01001|00110"), v("10100|00011"), v("01010|10001")],
    )


def test_make_code_parameters(rep642):
    assert rep642.k == 4
    assert rep642.stab.dim == 2


def test_make_code_single_generator():
    code = StabilizerCode(2, 1, [v("1|0")])
    assert code.k == 0


def test_make_code_rejects_anticommuting_pair():
    with pytest.raises(CodeConstructionError, match="symplectic product"):
        StabilizerCode(2, 1, [v("1|0"), v("0|1")])


def test_distance_of_repetition_pair(rep642):
    assert rep642.distance == 2
    assert rep642.is_pure is True


def test_distance_undefined_when_dual_equals_code():
    code = StabilizerCode(2, 1, [v("1|0")])
    assert code.distance is None
    assert code.is_pure is None


def test_five_qubit_distance(five_qubit):
    assert five_qubit.k == 1
    assert five_qubit.distance == 3
    assert five_qubit.is_pure is True



def test_min_weight_outside_reads_the_cap_at_call_time(rep642, monkeypatch):
    # d = 2 needs the weight-0, -1 and -2 classes of six qubits, counted as
    # the decoder counts them: 1 + 6*3 + 15*9 = 154 vectors
    monkeypatch.setattr(codes, "ENUM_CAP", 154)
    assert min_weight_outside(rep642.stab) == (2, 2)
    monkeypatch.setattr(codes, "ENUM_CAP", 153)
    with pytest.raises(FeasibilityError, match="154 weight-class vectors through weight 2, over cap 153"):
        min_weight_outside(rep642.stab)


def test_min_weight_outside_reduces_with_the_subspace_maps(rep642):
    # the basis is RREF already: the scan's one rref call is the Gram rank's
    sub = sp.SympSubspace.from_rows(2, 6, rep642.stab.basis)
    with mock.patch.object(fm, "rref", wraps=fm.rref) as rref:
        assert min_weight_outside(sub) == (2, 2)
    assert rref.call_count == 1


def size_defaults(module):
    """Every integer parameter default of at least 1024 in the functions,
    methods and dataclasses defined in module, as owner.parameter."""
    found = set()
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            fn = getattr(member, "__func__", member)  # static and class methods
            if not inspect.isfunction(fn):
                continue
            for param in inspect.signature(fn).parameters.values():
                value = param.default
                if isinstance(value, int) and not isinstance(value, bool) and value >= 1024:
                    found.add(f"{name}.{param.name}")
    return found


def test_size_knobs_are_the_listed_ones():
    # every module-level integer constant and every large integer parameter
    # default of the numeric modules; a new cap or block size must be added
    # here on purpose
    modules = (fm, sp, codes, engine, search)
    knobs = {
        name
        for module in modules
        for name, value in vars(module).items()
        if name.isupper() and isinstance(value, int)
    }
    assert knobs == {"MAX_MODULUS", "BLOCK_ENTRIES", "ENUM_CAP", "CHUNK", "FEASIBILITY_CAP"}
    defaults = set().union(*map(size_defaults, modules))
    assert defaults == {"verify_guarantee.max_patterns", "SearchQuery.budget"}


class TestSyndrome:
    def test_zero_error(self, rep642):
        assert rep642.syndrome(np.zeros(12, dtype=np.int64)) == (0, 0)

    def test_single_x_error(self, rep642):
        # ordered basis (X^6, Z^6): X1 commutes with X^6, anticommutes with Z^6
        assert rep642.syndrome(v("100000|000000")) == (0, 1)

    def test_stabilizer_has_zero_syndrome(self, rep642):
        for row in rep642.stab.basis:
            assert rep642.syndrome(row) == (0, 0)

    def test_linearity(self, five_qubit):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e1, e2 = rng.integers(0, 2, size=(2, 10))
            s1 = np.asarray(five_qubit.syndrome(e1))
            s2 = np.asarray(five_qubit.syndrome(e2))
            s12 = np.asarray(five_qubit.syndrome((e1 + e2) % 2))
            assert np.array_equal(s12, (s1 + s2) % 2)

    def test_size_mismatch(self, rep642):
        with pytest.raises(ValueError):
            rep642.syndrome(np.zeros(10, dtype=np.int64))


class TestDecode:
    def test_zero_syndrome_gives_zero(self, rep642):
        assert not np.any(rep642.decode((0, 0)))

    def test_erasure_resolves_on_erased_support(self, rep642):
        # among X1, Z1, Y1 only X1 has syndrome (0, 1)
        got = rep642.decode((0, 1), erased=frozenset({0}))
        assert np.array_equal(got, v("100000|000000"))

    def test_five_qubit_coset_leader(self, five_qubit):
        err = v("01000|00000")
        got = five_qubit.decode(five_qubit.syndrome(err))
        assert np.array_equal(got, err)

    def test_bad_syndrome_length(self):
        code = StabilizerCode(2, 2, [v("10|00"), v("01|00")])
        with pytest.raises(ValueError):
            code.decode((1,))

    def test_non_boolean_mask_refused(self, five_qubit):
        syndromes = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]])
        with pytest.raises(ValueError, match=r"boolean array of shape \(3, 5\)"):
            five_qubit.decode(syndromes, np.zeros((3, 5), dtype=np.int64))
        # a 1-D integer array still lists positions that every row shares
        got = five_qubit.decode(syndromes, np.array([0, 2]))
        assert np.array_equal(got, five_qubit.decode(syndromes, frozenset({0, 2})))

    def test_fractional_positions_refused(self, five_qubit):
        # 1.7 must not be read as position 1
        for erased in ([1.7], np.array([1.7, 0.2]), [2.0]):
            with pytest.raises(ValueError, match="must be integers"):
                five_qubit.decode((0, 0, 0, 0), erased)
        # Python and numpy integers of any width are positions
        want = five_qubit.decode((1, 0, 1, 0), frozenset({0, 2}))
        for erased in ([0, 2], [np.int64(0), np.uint8(2)], np.array([0, 2], dtype=np.int32)):
            assert np.array_equal(five_qubit.decode((1, 0, 1, 0), erased), want)

    def test_python_bools_refused(self, five_qubit):
        # True is an int: [True, False, ...] must not be read as positions 1 and 0
        for erased in ([True, False, False, False, False], [True], (False, 2)):
            with pytest.raises(ValueError, match="must be integers"):
                five_qubit.decode((0, 1, 0, 0), erased)
        # a 1-D boolean array of the same flags stays a mask
        mask = np.array([True, False, False, False, False])
        want = five_qubit.decode((0, 1, 0, 0), frozenset({0}))
        assert np.array_equal(five_qubit.decode((0, 1, 0, 0), mask), want)

    def test_syndrome_keys_beyond_int64_refused(self):
        # 251^8 syndromes overflow int64 keys although a weight-1 decode is under the cap
        code = StabilizerCode(251, 9, np.hstack([np.zeros((8, 9)), np.eye(8, 9)]).astype(np.int64))
        with pytest.raises(FeasibilityError, match="int64"):
            code.decode((1,) + (0,) * 7)

    def test_optimality_against_enumeration(self, rep642):
        # every returned leader has minimal weight in its syndrome class
        best = {}
        for vec in np.array(list(itertools.product((0, 1), repeat=12))):
            s = rep642.syndrome(vec)
            w = sp.symp_weight(vec)
            if s not in best or w < best[s]:
                best[s] = w
        for s, w in best.items():
            assert sp.symp_weight(rep642.decode(s)) == w


class TestLogicalClass:
    def test_stabilizer_is_identity(self, rep642):
        assert rep642.logical_class(v("111111|000000")).is_identity

    def test_dual_non_stabilizer(self, rep642):
        lc = rep642.logical_class(v("110000|000000"))
        assert lc.is_correctable and not lc.is_identity

    def test_non_correctable(self, rep642):
        lc = rep642.logical_class(v("100000|000000"))
        assert not lc.is_correctable

    def test_canonical_within_coset(self, five_qubit):
        rng = np.random.default_rng(1)
        logical = None
        basis, pivots = fm.rref(five_qubit.stab.basis, 2)
        for vec in np.vstack(list(fm.iter_span_batches(five_qubit.dual.basis, 2, batch_size=64))):
            if fm.reduce_rows(basis, pivots, vec[None, :], 2).any():
                logical = vec
                break
        for _ in range(10):
            coeffs = rng.integers(0, 2, size=4)
            shifted = (logical + coeffs @ five_qubit.stab.basis) % 2
            assert five_qubit.logical_class(shifted) == five_qubit.logical_class(logical)


class TestCorrectionGuarantees:
    def test_error_round_trip(self, five_qubit):
        # all errors below half distance decode to the identity class, d=3
        for pos in range(5):
            for a in range(2):
                for b in range(2):
                    if (a, b) == (0, 0):
                        continue
                    err = np.zeros(10, dtype=np.int64)
                    err[pos], err[5 + pos] = a, b
                    decoded = five_qubit.decode(five_qubit.syndrome(err))
                    assert five_qubit.logical_class((err - decoded) % 2).is_identity

    def test_erasure_guarantee(self, five_qubit):
        # any e <= d-1 = 2 erasures with arbitrary content on them
        import itertools

        for erased in itertools.combinations(range(5), 2):
            for c1 in range(4):
                for c2 in range(4):
                    err = np.zeros(10, dtype=np.int64)
                    err[erased[0]], err[5 + erased[0]] = divmod(c1, 2)
                    err[erased[1]], err[5 + erased[1]] = divmod(c2, 2)
                    decoded = five_qubit.decode(five_qubit.syndrome(err), frozenset(erased))
                    assert five_qubit.logical_class((err - decoded) % 2).is_identity

    def test_mixed_guarantee(self, five_qubit):
        # t=1 error plus e=0 erasure is covered above; here 2t+e<3 with t=0,e=1
        # and a weight-1 error elsewhere must fail only when 2t+e >= d
        for erased in range(5):
            for content in range(1, 4):
                err = np.zeros(10, dtype=np.int64)
                err[erased], err[5 + erased] = divmod(content, 2)
                decoded = five_qubit.decode(five_qubit.syndrome(err), frozenset({erased}))
                assert five_qubit.logical_class((err - decoded) % 2).is_identity
