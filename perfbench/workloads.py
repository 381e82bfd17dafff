"""Job lists of the three benchmark workloads, and the checks on their outputs.

A job is one closed-loop step: a ``breedsim.cli.main(argv)`` call with stdout
captured, or a direct library call where the CLI has no flag for the job
(erasure channels, ``exact_fidelity``, ``verify_guarantee`` over many puncture
sets, ``decode_table``, ``build_from_subspace``). Every job loads its codes
afresh and never reuses a code object of another job, because a CLI user pays
for the catalog load, distance and decoder tables on every call.

Why each workload, and what its layer metrics predict: see README.md.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import sqrt
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from breedsim import breeding, catalog, cli, engine
from breedsim import fieldmath as fm
from breedsim import symplectic as sp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CODES_DIR = os.path.join(BENCH_DIR, "codes")
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")

BUILTIN_CODES = ("six_four_two", "five_qubit", "four_two_two")
#: single-entry catalog files under codes/; loading them recomputes d and purity
EXTRA_CODES = ("steane", "five_qutrit", "five_qubit_x2", "five_qubit_x3")

#: protocol name -> (code, 0-based punctured positions)
PROTOCOLS: Dict[str, Tuple[str, Tuple[int, ...]]] = {
    "five_qubit/c0": ("five_qubit", ()),
    "five_qubit/c1": ("five_qubit", (4,)),
    "six_four_two/c1": ("six_four_two", (5,)),
    "steane/c0": ("steane", ()),
    "five_qutrit/c0": ("five_qutrit", ()),
    "five_qubit_x2/c0": ("five_qubit_x2", ()),
}
MC_PROTOCOLS = tuple(p for p in PROTOCOLS if not p.startswith("five_qubit_x2"))
#: depolarizing grid: two sparse rates (<= 0.01) and two dense ones (>= 0.1)
MC_RATES = (0.005, 0.01, 0.1, 0.2)
#: (depolarizing, erasure) points of the erasure workload
ERASURE_POINTS = ((0.01, 0.01), (0.1, 0.1))
#: protocols whose exact erasure sum, q^m rows times 2^m erased sets, fits 2^12 rows
EXACT_PROTOCOLS = ("five_qubit/c1",)
#: searches with a known "not exists" certificate: (p, n, k, dmin)
SEARCHES = ((2, 5, 3, 2), (3, 4, 2, 3), (2, 6, 4, 3))
#: fixed (p, n, dim) of the seeded random subspaces fed to build_from_subspace
SUBSPACE_SHAPES = ((2, 5, 3), (2, 6, 4), (2, 7, 5), (3, 4, 3))

#: a Monte Carlo estimate must lie within this many 95% half-widths of the exact value
MC_HALF_WIDTHS = 5

#: per-size job parameters; "small" keeps the benchmark's own test short
SIZES = {
    "full": {
        "mc_trials": 5000,
        "erasure_protocols": tuple(PROTOCOLS),
        "erasure_trials": 1000,
        "erasure_trials_x2": 300,
        "verify_codes": ("five_qubit", "six_four_two", "steane", "five_qutrit"),
        "analyze": BUILTIN_CODES + EXTRA_CODES,
        "searches": SEARCHES,
    },
    "small": {
        "mc_trials": 500,
        "erasure_protocols": ("five_qubit/c0", "five_qutrit/c0"),
        "erasure_trials": 200,
        "erasure_trials_x2": 50,
        "verify_codes": ("five_qubit", "six_four_two"),
        "analyze": BUILTIN_CODES + EXTRA_CODES[:2],
        "searches": SEARCHES[:1],
    },
}


def code_ref(name: str) -> str:
    """The --code argument for a code: a builtin name or a catalog file path."""
    return name if name in BUILTIN_CODES else os.path.join(CODES_DIR, name + ".txt")


def load_code(name: str):
    """A fresh StabilizerCode, loaded the way the CLI loads it."""
    if name in BUILTIN_CODES:
        return catalog.find_entry(catalog.builtin_catalog(), name).code
    (entry,) = catalog.load_catalog_file(code_ref(name))
    return entry.code


def point_key(protocol: str, depol: float, erasure: float = 0.0) -> str:
    return f"{protocol}@{depol:g}/{erasure:g}"


@dataclass
class Job:
    """One step of a workload.

    ``run`` does the work and returns a raw output; ``summary`` turns it into a
    JSON-able record that must repeat exactly for the same seed; ``check``
    returns why the summary is wrong, or None; ``work`` counts the trials,
    patterns, rows or nodes the job did.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Any, dict], Optional[str]]
    work: Callable[[Any], int] = lambda s: 0
    via_cli: bool = False
    #: True when check compares the whole summary with refs["jobs"][name]
    stored: bool = False


def _cli_run(argv: List[str]) -> Callable[[], Dict[str, Any]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue()}

    return run


def _same(summary, ref) -> Optional[str]:
    if ref is None:
        return "no stored reference"
    if summary != ref:
        return f"output {summary!r} differs from stored reference {ref!r}"
    return None


def _ref_job(name, kind, run, summary=lambda out: out, work=lambda s: 0, via_cli=False) -> Job:
    """A job whose whole summary must equal the stored reference of its name."""
    return Job(name, kind, run, summary, lambda s, refs: _same(s, refs["jobs"].get(name)), work, via_cli, True)


def _mc_error(label: str, fidelity: float, kept: int, exact: Optional[float]) -> Optional[str]:
    if exact is None:
        return f"{label}: no stored exact fidelity"
    tol = MC_HALF_WIDTHS * 1.96 * sqrt(exact * (1.0 - exact) / kept) + 1.0 / kept
    if abs(fidelity - exact) > tol:
        return (f"{label}: estimate {fidelity:.6f} is {abs(fidelity - exact):.2e} from exact "
                f"{exact:.6f} (allowed {tol:.2e})")
    return None


# ---------------------------------------------------------------- mc


def _mc_job(protocol: str, trials: int, seed: int) -> Job:
    code, punct = PROTOCOLS[protocol]
    argv = ["simulate", "--code", code_ref(code), "--rates", ",".join(f"{r:g}" for r in MC_RATES),
            "--trials", str(trials), "--seed", str(seed), "--workers", "1", "--format", "jsonl"]
    if punct:
        argv += ["--puncture", ",".join(str(i + 1) for i in punct)]

    def check(s, refs):
        if s["rc"] != 0:
            return f"simulate exited {s['rc']}"
        rows = [json.loads(line) for line in s["stdout"].splitlines()]
        if len(rows) != len(MC_RATES):
            return f"expected {len(MC_RATES)} rows, got {len(rows)}"
        for rate, row in zip(MC_RATES, rows):
            kept = row["trials"] - row["discards"]
            key = point_key(protocol, rate)
            err = _mc_error(key, float(row["fidelity"]), kept, refs["exact"].get(key))
            if err:
                return err
        return None

    return Job(f"simulate:{protocol}", "simulate", _cli_run(argv), lambda out: out, check,
               work=lambda s: trials * len(MC_RATES), via_cli=True)


def mc_jobs(size: dict, seed: int) -> List[Job]:
    return [_mc_job(p, size["mc_trials"], seed) for p in MC_PROTOCOLS]


# ---------------------------------------------------------------- erasure


def _erasure_sim_job(protocol: str, trials: int, seed: int) -> Job:
    code_name, punct = PROTOCOLS[protocol]

    def run():
        code = load_code(code_name)
        spec = breeding.convert_pure(code, punct)
        return [
            engine.simulate(spec, engine.Channel(code.p, d, e), trials, seed=seed, workers=1)
            for d, e in ERASURE_POINTS
        ]

    def summary(reports):
        return [[r.trials, r.discards, r.successes] for r in reports]

    def check(s, refs):
        for (d, e), (n, discards, successes) in zip(ERASURE_POINTS, s):
            key = point_key(protocol, d, e)
            kept = n - discards
            err = _mc_error(key, successes / kept, kept, refs["exact"].get(key))
            if err:
                return err
        return None

    return Job(f"simulate_erasure:{protocol}", "simulate", run, summary, check,
               work=lambda s: sum(row[0] for row in s))


def admissible_punctures(n: int, d: int) -> List[Tuple[int, ...]]:
    """Every puncture set of size c < d, in lex order."""
    return [s for c in range(d) for s in itertools.combinations(range(n), c)]


def _verify_job(code_name: str) -> Job:
    def run():
        code = load_code(code_name)
        certs = []
        for punct in admissible_punctures(code.n, code.distance):
            cert = engine.verify_guarantee(breeding.convert_pure(code, punct))
            certs.append([list(punct), cert.passed, cert.patterns])
        return certs

    return _ref_job(f"verify:{code_name}", "verify", run,
                    work=lambda s: sum(row[2] for row in s))


def _exact_job(protocol: str) -> Job:
    code_name, punct = PROTOCOLS[protocol]
    d, e = ERASURE_POINTS[-1]

    def run():
        code = load_code(code_name)
        spec = breeding.convert_pure(code, punct)
        m = len(spec.noisy_positions)
        fidelity = engine.exact_fidelity(spec, engine.Channel(code.p, d, e)).fidelity
        # the oracle evaluates (p^2)^m noisy values for each of the 2^m erased sets
        return {"fidelity": fidelity, "rows": (code.p**2) ** m * 2**m}

    def check(s, refs):
        ref = refs["exact"].get(point_key(protocol, d, e))
        if ref is None or abs(s["fidelity"] - ref) > 1e-12:
            return f"exact fidelity {s['fidelity']!r} differs from stored {ref!r}"
        return None

    return Job(f"exact_erasure:{protocol}", "exact", run, lambda out: out, check,
               work=lambda s: s["rows"])


def erasure_jobs(size: dict, seed: int) -> List[Job]:
    jobs = []
    for protocol in size["erasure_protocols"]:
        trials = size["erasure_trials_x2" if protocol.startswith("five_qubit_x2") else "erasure_trials"]
        jobs.append(_erasure_sim_job(protocol, trials, seed))
    for code_name in size["verify_codes"]:
        jobs.append(_verify_job(code_name))
    jobs.extend(_exact_job(p) for p in EXACT_PROTOCOLS)
    return jobs


# ---------------------------------------------------------------- exhaustive


def _table_job(code_name: str) -> Job:
    def run():
        table = load_code(code_name).decode_table()
        return {"shape": list(table.shape), "sha256": hashlib.sha256(table.astype(np.int64).tobytes()).hexdigest()}

    return _ref_job(f"table:{code_name}", "table", run, work=lambda s: 1)


def random_subspace(p: int, n: int, dim: int, rng: np.random.Generator) -> sp.SympSubspace:
    """A uniformly drawn full-rank dim x 2n generator matrix over F_p, as a subspace."""
    while True:
        rows = rng.integers(0, p, size=(dim, 2 * n))
        if fm.rank(rows, p) == dim:
            return sp.SympSubspace.from_rows(p, n, rows)


def brute_eaqecc_distance(d: sp.SympSubspace) -> Optional[int]:
    """Min symplectic weight over D^perp_s minus D by listing all of F_p^{2n}."""
    p, n = d.p, d.n
    digits = np.arange(p ** (2 * n))[:, None] // p ** np.arange(2 * n - 1, -1, -1) % p
    a, b = digits[:, :n], digits[:, n:]
    prods = (a @ d.basis[:, n:].T - b @ d.basis[:, :n].T) % p
    in_dual = ~prods.any(axis=1)
    coeffs = np.arange(p**d.dim)[:, None] // p ** np.arange(d.dim - 1, -1, -1) % p
    span = {row.tobytes() for row in (coeffs @ d.basis % p).astype(np.int64)}
    outside = np.array([row.tobytes() not in span for row in digits.astype(np.int64)])
    weights = np.count_nonzero((a != 0) | (b != 0), axis=1)[in_dual & outside]
    return int(weights.min()) if len(weights) else None


def _build_job(index: int, p: int, n: int, dim: int, seed: int) -> Job:
    subspace = random_subspace(p, n, dim, np.random.default_rng((seed, index)))

    def run():
        return breeding.build_from_subspace(subspace)

    def summary(spec):
        code, c = spec.extended_code, spec.params.c
        return {
            "n": spec.params.n, "c": c, "n_ext": code.n, "k": code.k, "net": spec.params.net_yield,
            "d": spec.params.d, "ebits": sorted(spec.ebit_positions),
            "punctured_back": sp.puncture(code.stab, range(n, code.n)) == subspace,
        }

    def check(s, refs):
        c = breeding.ebit_count(subspace)
        want = {
            "n": n, "c": c, "n_ext": n + c, "k": n + c - dim, "net": n - dim, "d": brute_eaqecc_distance(subspace),
            "ebits": list(range(n, n + c)), "punctured_back": True,
        }
        return None if s == want else f"build_from_subspace gave {s}, expected {want}"

    return Job(f"build:{index}:p{p}n{n}dim{dim}", "build", run, summary, check, work=lambda s: 1)


def _search_job(p: int, n: int, k: int, dmin: int) -> Job:
    argv = ["search", "--p", str(p), "--n", str(n), "--k", str(k), "--dmin", str(dmin), "--format", "jsonl"]
    return _ref_job(f"search:[[{n},{k},{dmin}]]_{p}", "search", _cli_run(argv),
                    work=lambda s: json.loads(s["stdout"])["nodes"], via_cli=True)


def exhaustive_jobs(size: dict, seed: int) -> List[Job]:
    jobs = [
        _ref_job(f"analyze:{c}", "analyze", _cli_run(["analyze", "--code", code_ref(c), "--format", "jsonl"]),
                 work=lambda s: 1, via_cli=True)
        for c in size["analyze"]
    ]
    jobs += [_table_job(c) for c in size["analyze"] if c != "five_qubit_x3"]
    jobs.append(_ref_job("compare", "compare", _cli_run(["compare", "--format", "tsv"]), via_cli=True))
    jobs += [_build_job(i, *shape, seed) for i, shape in enumerate(SUBSPACE_SHAPES)]
    jobs += [_search_job(*q) for q in size["searches"]]
    return jobs


WORKLOADS = {"mc": mc_jobs, "erasure": erasure_jobs, "exhaustive": exhaustive_jobs}
