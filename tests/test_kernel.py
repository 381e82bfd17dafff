"""The batched protocol kernel against the per-vector decode path it replaced.

Codes are random self-orthogonal extensions (``symp_extend``) of random
subspaces over p in {2, 3, 5}, small enough that the syndrome table fits.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from breedsim import symplectic as sp
from breedsim.breeding import BreedingProtocolSpec, EaqeccParams
from breedsim.codes import StabilizerCode
from breedsim.engine import ErrorPattern, PostSelect, run_protocol

#: largest subspace length per field, so that p^(2(n + c)) stays at most 2^14
MAX_N = {2: 5, 3: 3, 5: 2}

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def protocols(draw):
    """A breeding spec built from a random subspace, plus random error rows and an erased set."""
    p = draw(st.sampled_from(sorted(MAX_N)))
    n = draw(st.integers(1, MAX_N[p]))
    dim = draw(st.integers(1, n))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=dim * 2 * n, max_size=dim * 2 * n))
    d = sp.SympSubspace.from_rows(p, n, np.asarray(entries, dtype=np.int64).reshape(dim, 2 * n))
    assume(d.dim >= 1)
    ext, c = sp.symp_extend(d)
    code = StabilizerCode(p, ext.n, ext.basis)
    spec = BreedingProtocolSpec(
        code, frozenset(range(n, ext.n)), EaqeccParams(p=p, n=n, gross_k=code.k, c=c, d=None)
    )
    rows = draw(st.integers(1, 12))
    noisy = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * 2 * n, max_size=rows * 2 * n)
    )
    errors = np.zeros((rows, 2 * ext.n), dtype=np.int64)
    errors[:, list(range(n)) + list(range(ext.n, ext.n + n))] = np.reshape(noisy, (rows, 2 * n))
    erased = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return spec, errors, erased


def postselects(n_total):
    return st.sampled_from(["none", "nonzero"] + [f"weight:{t}" for t in range(n_total + 1)])


@SETTINGS
@given(protocols())
def test_decode_batch_matches_decode(case):
    spec, errors, erased = case
    code = spec.extended_code
    syndromes = code.syndromes_batch(errors)
    batch = code.decode_batch(syndromes, erased)
    for syn, leader in zip(syndromes, batch):
        assert np.array_equal(leader, code.decode(tuple(syn), erased))


@SETTINGS
@given(protocols(), st.data())
def test_batched_run_protocol_matches_single_vectors(case, data):
    spec, errors, erased = case
    code = spec.extended_code
    policy = PostSelect.parse(data.draw(postselects(code.n)))
    out = run_protocol(spec, ErrorPattern(errors, erased), policy)
    assert out.logical.shape == errors.shape
    for r, err in enumerate(errors):
        one = run_protocol(spec, ErrorPattern(err, erased), policy)
        assert tuple(int(s) for s in out.combined_syndrome[r]) == one.combined_syndrome
        assert np.array_equal(out.decoded[r], one.decoded)
        assert tuple(int(x) for x in out.logical[r]) == one.logical.representative
        assert bool(out.success[r]) == one.success
        assert bool(out.discarded[r]) == one.discarded
        # reference: the scalar syndrome -> decode -> logical-class path
        syn = code.syndrome(err)
        decoded = code.decode(syn, erased)
        logical = code.logical_class((err - decoded) % code.p)
        assert one.combined_syndrome == syn
        assert np.array_equal(one.decoded, decoded)
        assert one.logical == logical and one.success == logical.is_identity
        weight = sp.symp_weight(decoded)
        expected = {"none": False, "nonzero": any(syn), "weight": weight > policy.threshold}
        assert one.discarded == expected[policy.mode]
