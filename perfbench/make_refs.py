"""Regenerates refs.json, the stored references every benchmark output is checked against.

    python3 perfbench/make_refs.py        # from the root of a checkout, about a minute

- Jobs whose output is deterministic and seed-free (analyze, compare, search,
  verify, decode tables) store their summary as the program gives it; the
  search verdicts and node counts, and the analyze parameters, are the known
  certificates the workloads are built around.
- Exact fidelities for the depolarizing channel come from
  ``engine.exact_fidelity``, which sums the channel over every error vector.
- Exact fidelities with erasure come from ``engine.exact_fidelity`` where its
  per-row loop is fast enough, and otherwise from ``erasure_fidelity`` below,
  the same sum taken one erased set at a time over all error rows at once;
  the two agree to 1e-12 wherever both run, which is asserted.
- five_qubit_x2 is the direct sum of two five_qubit codes on an i.i.d.
  channel. Minimum weight is additive over the blocks and the lex tie-break
  orders block 1 before block 2 within the X part and within the Z part, so
  the decoder acts blockwise and the fidelity is F(five_qubit)^2. The identity
  is asserted against ``engine.exact_fidelity`` on the depolarizing channel,
  where the oracle is batched.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from breedsim import breeding, engine  # noqa: E402
from breedsim import fieldmath as fm  # noqa: E402

#: protocols whose exact erasure sum goes through engine.exact_fidelity's row loop
ORACLE_EXACT = ("five_qubit/c0", "five_qubit/c1", "six_four_two/c1")


def spec_of(protocol: str):
    code_name, punct = wl.PROTOCOLS[protocol]
    return breeding.convert_pure(wl.load_code(code_name), punct)


def erasure_fidelity(spec, depol: float, erasure: float) -> float:
    """Exact success probability with erasures, one erased set at a time."""
    code = spec.extended_code
    p, n, q = code.p, code.n, code.p**2
    noisy = list(spec.noisy_positions)
    m = len(noisy)
    digits = np.arange(q**m)[:, None] // q ** np.arange(m - 1, -1, -1) % q
    errors = np.zeros((q**m, 2 * n), dtype=np.int64)
    errors[:, noisy] = digits // p
    errors[:, [n + i for i in noisy]] = digits % p
    syn = code.syndromes_batch(errors)
    uniq, first, inverse = np.unique(syn, axis=0, return_index=True, return_inverse=True)
    basis, pivots = fm.rref(code.stab.basis, p)
    depol_prob = np.where(digits == 0, 1.0 - depol, depol / (q - 1))
    total = 0.0
    for e in range(m + 1):
        for erased_local in itertools.combinations(range(m), e):
            erased = frozenset(noisy[j] for j in erased_local)
            leaders = np.vstack([code.decode(tuple(int(x) for x in syn[i]), erased) for i in first])
            residual = (errors - leaders[inverse.reshape(-1)]) % p
            for i, c in enumerate(pivots):
                residual = (residual - residual[:, c : c + 1] * basis[i]) % p
            success = ~residual.any(axis=1)
            keep = np.ones(m, dtype=bool)
            keep[list(erased_local)] = False
            prob = depol_prob[:, keep].prod(axis=1) * q**-e * erasure**e * (1.0 - erasure) ** (m - e)
            total += float(prob[success].sum())
    return total


def exact_refs() -> dict:
    exact = {}
    for protocol in wl.MC_PROTOCOLS:
        spec = spec_of(protocol)
        for rate in wl.MC_RATES:
            channel = engine.Channel(spec.extended_code.p, rate)
            exact[wl.point_key(protocol, rate)] = engine.exact_fidelity(spec, channel).fidelity
    for protocol in wl.PROTOCOLS:
        if protocol.startswith("five_qubit_x2"):
            continue
        spec = spec_of(protocol)
        for d, e in wl.ERASURE_POINTS:
            fast = erasure_fidelity(spec, d, e)
            if protocol in ORACLE_EXACT:
                oracle = engine.exact_fidelity(spec, engine.Channel(spec.extended_code.p, d, e)).fidelity
                assert abs(fast - oracle) < 1e-12, (protocol, d, e, fast, oracle)
                fast = oracle
            exact[wl.point_key(protocol, d, e)] = fast
    for d, e in wl.ERASURE_POINTS:
        exact[wl.point_key("five_qubit_x2/c0", d, e)] = exact[wl.point_key("five_qubit/c0", d, e)] ** 2
    x2 = spec_of("five_qubit_x2/c0")
    rate = wl.MC_RATES[-1]
    oracle = engine.exact_fidelity(x2, engine.Channel(2, rate)).fidelity
    assert abs(oracle - exact[wl.point_key("five_qubit/c0", rate)] ** 2) < 1e-12
    return exact


def job_refs() -> dict:
    refs = {}
    for size in wl.SIZES.values():
        for make_jobs in wl.WORKLOADS.values():
            for job in make_jobs(size, 0):
                if job.stored and job.name not in refs:
                    refs[job.name] = job.summary(job.run())
    return refs


def main() -> int:
    refs = {"jobs": job_refs(), "exact": exact_refs()}
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs['jobs'])} job references and {len(refs['exact'])} exact fidelities to {wl.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
