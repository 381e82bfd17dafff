"""Command-line front end.

Subcommands: analyze, convert, verify, simulate, search, compare.
Exit codes: 0 success/PASS, 1 validation failure or FAIL, 2 usage,
3 infeasible-budget refusal. Positions on the command line are 1-based
(the library itself is 0-based).

Each handler returns its exit status and its records; ``main`` alone prints
the records, in the chosen --format.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import catalog as cat
from . import engine
from . import symplectic as sp
from .breeding import BreedingProtocolSpec, convert_pure
from .codes import CodeConstructionError, FeasibilityError
from .search import SearchQuery, search_codes

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

_VERDICTS = {
    "exists": "EXISTS",
    "not_exists": "NOT EXISTS (exhaustive)",
    "inconclusive": "INCONCLUSIVE (budget exhausted)",
}


def _load_code(ref: str) -> cat.CatalogEntry:
    """Resolve a --code argument: a builtin entry name or a catalog file path.
    Only the entry returned is built and validated; a builtin name wins over
    a file of that name."""
    builtin = cat.builtin_names()
    if ref in builtin:
        return cat.builtin_entry(ref)
    if not os.path.exists(ref):
        raise cat.CatalogError(f"{ref!r} is neither a builtin code ({', '.join(builtin)}) nor a file")
    entries = cat.load_catalog_file(ref)
    if len(entries) != 1:
        names = ", ".join(e.name for e in entries)
        raise cat.CatalogError(
            f"{ref} holds {len(entries)} entries ({names}); point --code at a single-entry file"
        )
    return entries[0]


def _positions(text: str) -> Tuple[int, ...]:
    """argparse type for --puncture: comma-separated 1-based positions."""
    try:
        return tuple(int(tok) for tok in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed position list {text!r}") from None


def _rates(text: str) -> Tuple[float, ...]:
    """argparse type for --rates: comma-separated floats (their range is checked later)."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed rate list {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _postselect(text: str) -> engine.PostSelect:
    try:
        return engine.PostSelect.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _puncture_set(positions: Tuple[int, ...], n: int) -> frozenset:
    for j, i in enumerate(positions):
        if i < 1 or i > n:
            raise ValueError(f"puncture position {i} out of range 1..{n}")
        if i in positions[:j]:
            raise ValueError(f"puncture position {i} given twice")
    return frozenset(i - 1 for i in positions)


def _protocol(args) -> Tuple[cat.CatalogEntry, BreedingProtocolSpec]:
    """The --code entry and its breeding protocol with --puncture as the ebits."""
    entry = _load_code(args.code)
    return entry, convert_pure(entry.code, _puncture_set(args.puncture, entry.code.n))


def _emit(records: List[Dict], fmt: str, out) -> None:
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
    elif fmt == "tsv":
        if records:
            keys = list(records[0].keys())
            out.write("\t".join(keys) + "\n")
            for rec in records:
                out.write("\t".join(str(rec[k]) for k in keys) + "\n")
    else:
        for rec in records:
            out.write(" ".join(f"{k}={v}" for k, v in rec.items()) + "\n")


def cmd_analyze(args) -> Tuple[int, List[Dict]]:
    entry = _load_code(args.code)
    code = entry.code
    rec = {
        "name": entry.name,
        "n": code.n,
        "k": code.k,
        "d": code.distance,
        "pure": "yes" if code.is_pure else "no",
        "dual_dim": code.n + code.k,  # dim C^perp_s = 2n - dim C
        "generators": ",".join(entry.generator_strings),
    }
    return EXIT_OK, [rec]


def cmd_convert(args) -> Tuple[int, List[Dict]]:
    entry, spec = _protocol(args)
    params = spec.params
    rec = {
        "name": entry.name,
        "noisy_pairs": params.n,
        "preshared": params.c,
        "gross": params.gross_k,
        "net": params.net_yield,
        "d": params.d,
        "ebit_positions": ",".join(str(i + 1) for i in sorted(spec.ebit_positions)),
    }
    return EXIT_OK, [rec]


def cmd_verify(args) -> Tuple[int, List[Dict]]:
    entry, spec = _protocol(args)
    cert = engine.verify_guarantee(spec, max_patterns=args.budget)
    rec = {
        "name": entry.name,
        "preshared": spec.params.c,
        "d": cert.distance,
        "patterns": cert.patterns,
        "result": "PASS" if cert.passed else "FAIL",
    }
    if cert.counterexample is not None:
        rec["counterexample"] = sp.to_string(cert.counterexample.error)
        rec["counterexample_erased"] = ",".join(
            str(i + 1) for i in sorted(cert.counterexample.erased)
        )
    return (EXIT_OK if cert.passed else EXIT_FAIL), [rec]


def cmd_simulate(args) -> Tuple[int, List[Dict]]:
    entry, spec = _protocol(args)
    records = []
    for rate in args.rates:
        channel = engine.Channel(entry.code.p, rate, args.erasure or 0.0)
        report = engine.simulate(
            spec,
            channel,
            args.trials,
            seed=args.seed,
            postselect=args.postselect,
            workers=args.workers,
        )
        records.append(
            {
                "name": entry.name,
                "rate": f"{rate:.6f}",
                **({} if args.erasure is None else {"erasure": f"{args.erasure:.6f}"}),
                "trials": report.trials,
                "discards": report.discards,
                "fidelity": f"{report.fidelity_estimate:.6f}",
                "ci95": f"{report.ci_halfwidth:.6f}",
                "gross": report.gross_k,
                "net": report.net_yield,
                "seed": report.seed,
            }
        )
    return EXIT_OK, records


def cmd_search(args) -> Tuple[int, List[Dict]]:
    query = SearchQuery(
        p=args.p, n=args.n, k=args.k, d_min=args.dmin, purity_required=args.pure, budget=args.budget
    )
    result = search_codes(query)
    rec = {
        "p": args.p,
        "n": args.n,
        "k": args.k,
        "dmin": args.dmin,
        "verdict": _VERDICTS[result.verdict],
        "nodes": result.nodes,
    }
    if result.witness:
        rec["witness"] = ",".join(result.witness)
    return EXIT_OK, [rec]


def cmd_compare(args) -> Tuple[int, List[Dict]]:
    entries = cat.load_catalog_file(args.catalog) if args.catalog else cat.builtin_catalog()
    rows = cat.compare_report(entries)
    # the record's keys are ReportRow's fields, in their order
    records = [{**dataclasses.asdict(r), "dominant": "yes" if r.dominant else "no"} for r in rows]
    return EXIT_OK, records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breedsim",
        description="Construct, verify, and simulate breeding entanglement-distillation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each shared option is declared once, on a parent parser
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["human", "tsv", "jsonl"], default="human")
    code = argparse.ArgumentParser(add_help=False)
    code.add_argument("--code", required=True)
    puncture = argparse.ArgumentParser(add_help=False)
    puncture.add_argument(
        "--puncture", type=_positions, default="", help="comma-separated 1-based positions"
    )

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, fmt])
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze, "recompute a code's parameters", code)
    command(
        "convert", cmd_convert, "build a breeding protocol by puncturing a pure code", code, puncture
    )

    p = command("verify", cmd_verify, "exhaustively verify the 2t+e<d guarantee", code, puncture)
    max_patterns = inspect.signature(engine.verify_guarantee).parameters["max_patterns"].default
    p.add_argument("--budget", type=_positive_int, default=max_patterns)

    p = command(
        "simulate", cmd_simulate, "Monte Carlo fidelity over a depolarizing rate grid", code, puncture
    )
    p.add_argument("--rates", type=_rates, required=True, help="comma-separated depolarizing rates")
    p.add_argument(
        "--erasure",
        type=float,
        default=None,
        help="erasure rate of every noisy pair at each depolarizing rate; erased positions are decoded as known",
    )
    p.add_argument("--trials", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--postselect", type=_postselect, default="none", help="none | nonzero | weight:<t>"
    )
    p.add_argument("--workers", type=_positive_int, default=1)

    p = command("search", cmd_search, "exhaustive code-existence search")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--pure", action="store_true", help="require purity of the witness")
    p.add_argument("--budget", type=_positive_int, default=SearchQuery.budget)

    p = command("compare", cmd_compare, "hashing-vs-breeding yield table")
    p.add_argument("--catalog", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads argv with, built on the first call; parsing
    leaves it unchanged, so one serves every call of a process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status, records = args.func(args)
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (cat.CatalogError, CodeConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(records, args.format, sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
