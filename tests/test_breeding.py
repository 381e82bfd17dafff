import itertools
from pathlib import Path

import numpy as np
import pytest

from breedsim import catalog, codes
from breedsim import symplectic as sp
from breedsim.breeding import (
    build_from_subspace,
    convert_pure,
    eaqecc_distance,
    ebit_count,
)
from breedsim.codes import FeasibilityError, StabilizerCode


def v(text, p=2):
    return sp.from_string(text, p)


@pytest.fixture(scope="module")
def rep642():
    return StabilizerCode(2, 6, [v("111111|000000"), v("000000|111111")])


@pytest.fixture(scope="module")
def punctured_pair(rep642):
    return sp.puncture(rep642.stab, {5})


class TestEbitCount:
    def test_self_orthogonal_is_zero(self, rep642):
        assert ebit_count(rep642.stab) == 0

    def test_hyperbolic_pair(self):
        d = sp.SympSubspace.from_rows(2, 1, [v("1|0"), v("0|1")])
        assert ebit_count(d) == 1
        _, c = sp.symp_extend(d)
        assert c == 1

    def test_punctured_pair(self, punctured_pair):
        # the worked [[6,4,2]] example: one preshared pair
        assert ebit_count(punctured_pair) == 1

    def test_zero_iff_self_orthogonal(self):
        rng = np.random.default_rng(0)
        for p in (2, 3):
            for _ in range(50):
                d = sp.SympSubspace.from_rows(p, 3, rng.integers(0, p, size=(2, 6)))
                assert (ebit_count(d) == 0) == sp.is_self_orthogonal(d)


PERFBENCH_CODES = Path(__file__).parent.parent / "perfbench" / "codes"


def five_qudit_code():
    """[[5,1,3]]_5 from the cyclic shifts of X Z Z^-1 X^-1 I."""
    x, z = np.array([1, 0, 0, 4, 0]), np.array([0, 1, 4, 0, 0])
    return StabilizerCode(5, 5, [np.concatenate([np.roll(x, s), np.roll(z, s)]) for s in range(4)])


def ebit_formula_sets(code):
    """Check that puncturing a pure code at each P with |P| < d needs |P|
    ebits, rank(gram)/2, as convert_pure's c says; returns the sets checked."""
    sets = 0
    for size in range(code.distance):
        for punctured in itertools.combinations(range(code.n), size):
            assert ebit_count(sp.puncture(code.stab, punctured)) == size, punctured
            assert convert_pure(code, punctured).params.c == size
            sets += 1
    return sets


class TestEbitFormula:
    """convert_pure takes c = |P| on trust; these prove it equals the
    optimal-entanglement count rank(gram)/2 of the punctured subspace."""

    def test_catalog_codes(self):
        entries = catalog.builtin_catalog()
        for path in sorted(PERFBENCH_CODES.glob("*.txt")):
            entries += catalog.load_catalog_file(str(path))
        pure = [entry.code for entry in entries if entry.code.is_pure]
        assert {code.p for code in pure} == {2, 3}
        assert sum(map(ebit_formula_sets, pure)) == 250

    def test_five_qudit_code(self):
        code = five_qudit_code()
        assert (code.k, code.distance, code.is_pure) == (1, 3, True)
        assert ebit_formula_sets(code) == 1 + 5 + 10


class TestEaqeccDistance:
    def test_punctured_pair(self, punctured_pair):
        assert eaqecc_distance(punctured_pair) == 2

    def test_trivial_subspace(self):
        d = sp.SympSubspace.from_rows(2, 1, [])
        assert eaqecc_distance(d) == 1

    def test_full_space_undefined(self):
        d = sp.SympSubspace.from_rows(2, 1, np.eye(2, dtype=np.int64))
        assert eaqecc_distance(d) is None

    def test_weight_classes_over_max_size_refused(self, punctured_pair, monkeypatch):
        # d = 2 needs the weight-0, -1 and -2 classes: 1 + 5*3 + 10*9 = 106 vectors
        monkeypatch.setattr(codes, "ENUM_CAP", 106)
        assert eaqecc_distance(punctured_pair) == 2
        monkeypatch.setattr(codes, "ENUM_CAP", 105)
        with pytest.raises(FeasibilityError, match="through weight 2"):
            eaqecc_distance(punctured_pair)


class TestConvertPure:
    def test_worked_example(self, rep642):
        spec = convert_pure(rep642, {5})
        assert spec.params.n == 5
        assert spec.params.gross_k == 4
        assert spec.params.c == 1
        assert spec.params.d == 2
        assert spec.params.net_yield == 3
        assert spec.ebit_positions == frozenset({5})
        assert spec.noisy_positions == (0, 1, 2, 3, 4)

    def test_empty_puncture_degenerates_to_hashing(self, rep642):
        spec = convert_pure(rep642, set())
        assert spec.params.c == 0
        assert spec.params.net_yield == rep642.k

    def test_rejects_puncture_at_distance(self, rep642):
        with pytest.raises(ValueError, match="c < d"):
            convert_pure(rep642, {0, 1})

    def test_rejects_impure_code(self):
        # nine-qubit repetition-of-repetitions code: weight-2 stabilizers
        # sit below the distance, so it is impure
        zs = ["110000000", "011000000", "000110000", "000011000", "000000110", "000000011"]
        rows = [v("000000000|" + z) for z in zs]
        rows += [v("111111000|000000000"), v("000111111|000000000")]
        code = StabilizerCode(2, 9, rows)
        assert code.k == 1 and code.distance == 3 and code.is_pure is False
        with pytest.raises(ValueError, match="pure"):
            convert_pure(code, {0})

    def test_net_yield_bookkeeping(self, rep642):
        for pos in range(6):
            spec = convert_pure(rep642, {pos})
            assert spec.params.net_yield == rep642.k - 1


class TestBuildFromSubspace:
    def test_self_orthogonal_matches_hashing(self, rep642):
        spec = build_from_subspace(rep642.stab)
        assert spec.params.c == 0
        assert spec.extended_code.stab == rep642.stab

    def test_hyperbolic_pair(self):
        d = sp.SympSubspace.from_rows(2, 1, [v("1|0"), v("0|1")])
        spec = build_from_subspace(d)
        assert spec.extended_code.n == 2
        assert spec.params.c == 1
        # gross yield is the extended code's k: n + c - dim D = 0 here
        assert spec.params.gross_k == 0

    def test_matches_convert_pure_parameters(self, rep642, punctured_pair):
        via_subspace = build_from_subspace(punctured_pair)
        via_puncture = convert_pure(rep642, {5})
        a, b = via_subspace.params, via_puncture.params
        assert (a.n, a.gross_k, a.c, a.d) == (b.n, b.gross_k, b.c, b.d)

    def test_round_trip_dimensions(self, rep642):
        sub = sp.puncture(rep642.stab, {5})
        spec = build_from_subspace(sub)
        ext = spec.extended_code.stab
        assert (ext.n, ext.dim) == (rep642.stab.n, rep642.stab.dim)
        assert sp.puncture(ext, spec.ebit_positions) == sub
