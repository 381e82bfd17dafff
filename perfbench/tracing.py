"""Spans around the calls into each breedsim module, recorded from outside the package.

``install`` wraps public functions at the name where each is looked up:
module attributes (``codes.fm.iter_span_batches`` is ``fieldmath.iter_span_batches``),
names imported by value (``cli.convert_pure``, ``cli.search_codes``,
``catalog.convert_pure``, ``search.StabilizerCode``) and methods or cached
properties on ``StabilizerCode``. Each span records a name, a start, an end and
its parent span; spans stay in memory in flat arrays until the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

from breedsim import breeding, catalog, cli, codes, engine
from breedsim import fieldmath as fm
from breedsim import search
from breedsim import symplectic as sp

LAYERS = ("fieldmath", "symplectic", "codes", "breeding", "engine", "catalog", "search", "cli", "bench")
#: depolarizing/erasure rates at or below this are "sparse" noise, at or above DENSE "dense"
SPARSE, DENSE = 0.01, 0.1


class Tracer:
    """Span and count recorder; records only while ``enabled``."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.outermost = array("b")
        self.stack: List[int] = []
        self._active: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._active[self.name_id[idx]] -= 1
        self.stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """(inclusive seconds, self seconds, calls) per span name.

        Inclusive time counts only spans with no open ancestor of the same name.
        """
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        outer = np.asarray(self.outermost, dtype=bool)
        dur = (np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        incl = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        calls = np.bincount(names, minlength=k)
        return (
            {n: float(incl[i]) for i, n in enumerate(self.names)},
            {n: float(own[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
        )


def _span(tr: Tracer, name: str, fn: Callable, on_result: Callable = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        idx = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.finish(idx)
        if on_result is not None:
            on_result(result, args, kwargs, tr.end[idx] - tr.start[idx])
        return result

    return wrapper


def _span_batches(tr: Tracer, fn: Callable) -> Callable:
    """Generator wrapper: each step of the enumeration is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            if not tr.enabled:
                batch = next(it, None)
            else:
                idx = tr.begin("fieldmath.span")
                try:
                    batch = next(it, None)
                finally:
                    tr.finish(idx)
                if batch is not None:
                    tr.count("fieldmath.span_vectors", len(batch))
            if batch is None:
                return
            yield batch

    return wrapper


def _counted(tr: Tracer, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.enabled:
            tr.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _rate_class(channel) -> str:
    rate = max(getattr(channel, "depolarizing", 0.0), getattr(channel, "erasure", 0.0))
    return "sparse" if rate <= SPARSE else "dense" if rate >= DENSE else "mid"


def install(tr: Tracer) -> Callable[[], None]:
    """Wrap every traced name; returns a function that restores the originals."""
    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr, wrapper_factory):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper_factory(orig))

    def patch_property(name, span_name):
        prop = codes.StabilizerCode.__dict__[name]
        saved.append((prop, "func", prop.func))
        prop.func = _span(tr, span_name, prop.func)

    def rows_of(key, arg=0):
        def on_result(result, args, kwargs, _ns):
            tr.count(key, len(np.atleast_2d(args[arg])))

        return on_result

    def on_simulate(report, args, kwargs, ns):
        cls = _rate_class(args[1])
        tr.count(f"engine.trials.{cls}", report.trials)
        tr.count(f"engine.simulate_ns.{cls}", ns)

    def on_exact(result, args, kwargs, _ns):
        spec, channel = args[0], args[1]
        m, q = len(spec.noisy_positions), spec.extended_code.p ** 2
        tr.count("engine.exact_rows", q**m * (2**m if getattr(channel, "erasure", 0.0) else 1))

    def on_search(result, args, kwargs, _ns):
        tr.count("search.nodes", result.nodes)

    def on_verify(cert, args, kwargs, _ns):
        tr.count("engine.verify_patterns", cert.patterns)

    patch(fm, "rref", lambda f: _span(tr, "fieldmath.rref", f))
    patch(fm, "solve", lambda f: _span(tr, "fieldmath.solve", f))
    patch(fm, "iter_span_batches", lambda f: _span_batches(tr, f))
    patch(sp, "symp_weight", lambda f: _span(tr, "symplectic.weight", f))
    patch(sp, "symp_weights", lambda f: _span(tr, "symplectic.weights", f, rows_of("symplectic.weights_rows")))
    patch(sp, "pairwise_products", lambda f: _span(tr, "symplectic.pairwise", f))
    patch(sp, "symp_extend", lambda f: _span(tr, "symplectic.extend", f))
    patch_property("distance", "codes.distance")
    patch_property("is_pure", "codes.distance")
    patch_property("_decode_table", "codes.table")
    sc = codes.StabilizerCode
    patch(sc, "decode", lambda f: _span(tr, "codes.decode", f))
    patch(sc, "_decode_by_coset", lambda f: _span(tr, "codes.coset", f))
    patch(sc, "syndrome", lambda f: _span(tr, "codes.syndrome", f, lambda *a: tr.count("codes.syndrome_rows")))
    patch(sc, "syndromes_batch", lambda f: _span(tr, "codes.syndrome", f, rows_of("codes.syndrome_rows", 1)))
    patch(sc, "logical_class", lambda f: _span(tr, "codes.logical", f))
    convert = _span(tr, "breeding.convert", breeding.convert_pure)
    for owner in (breeding, cli, catalog):
        patch(owner, "convert_pure", lambda f: convert)
    patch(breeding, "eaqecc_distance", lambda f: _span(tr, "breeding.eaqecc", f))
    patch(breeding, "build_from_subspace", lambda f: _span(tr, "breeding.build", f))
    patch(engine, "simulate", lambda f: _span(tr, "engine.simulate", f, on_simulate))
    patch(engine, "run_protocol", lambda f: _span(tr, "engine.run_protocol", f))
    patch(engine, "verify_guarantee", lambda f: _span(tr, "engine.verify", f, on_verify))
    patch(engine, "exact_fidelity", lambda f: _span(tr, "engine.exact", f, on_exact))
    patch(catalog, "load_catalog", lambda f: _span(tr, "catalog.load", f))
    patch(catalog, "compare_report", lambda f: _span(tr, "catalog.compare", f))
    search_span = _span(tr, "search.search", search.search_codes, on_search)
    for owner in (search, cli):
        patch(owner, "search_codes", lambda f: search_span)
    patch(search, "StabilizerCode", lambda f: _counted(tr, "search.validate_calls", f))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore


def layer_metrics(tr: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass whose jobs took ``wall_s`` seconds."""
    incl, selft, calls = tr.totals()
    c = tr.counts
    sim_self = selft.get("engine.simulate", 0.0)
    decode_calls = calls.get("codes.decode", 0)

    def rate(work, ns):
        return work / (ns / 1e9) if ns else 0.0

    m = {
        "fieldmath.span_vectors": c["fieldmath.span_vectors"],
        "fieldmath.span_s": incl.get("fieldmath.span", 0.0),
        "fieldmath.rref_calls": calls.get("fieldmath.rref", 0),
        "fieldmath.rref_s": incl.get("fieldmath.rref", 0.0),
        "fieldmath.solve_calls": calls.get("fieldmath.solve", 0),
        "symplectic.weight_calls": calls.get("symplectic.weight", 0),
        "symplectic.weight_s": incl.get("symplectic.weight", 0.0),
        "symplectic.weights_rows": c["symplectic.weights_rows"],
        "symplectic.weights_s": incl.get("symplectic.weights", 0.0),
        "symplectic.pairwise_calls": calls.get("symplectic.pairwise", 0),
        "symplectic.pairwise_s": incl.get("symplectic.pairwise", 0.0),
        "symplectic.extend_s": incl.get("symplectic.extend", 0.0),
        "codes.distance_calls": calls.get("codes.distance", 0),
        "codes.distance_s": incl.get("codes.distance", 0.0),
        "codes.table_builds": calls.get("codes.table", 0),
        "codes.table_s": incl.get("codes.table", 0.0),
        "codes.decode_calls": decode_calls,
        "codes.coset_builds": calls.get("codes.coset", 0),
        "codes.decode_hit_ratio": 1.0 - calls.get("codes.coset", 0) / decode_calls if decode_calls else 0.0,
        "codes.decode_s": incl.get("codes.decode", 0.0),
        "codes.syndrome_rows": c["codes.syndrome_rows"],
        "codes.syndrome_s": incl.get("codes.syndrome", 0.0),
        "codes.logical_calls": calls.get("codes.logical", 0),
        "codes.logical_s": incl.get("codes.logical", 0.0),
        "breeding.convert_s": incl.get("breeding.convert", 0.0),
        "breeding.eaqecc_s": incl.get("breeding.eaqecc", 0.0),
        "breeding.build_s": incl.get("breeding.build", 0.0),
        "engine.simulate_self_s": sim_self,
        "engine.sample_share": sim_self / wall_s if wall_s else 0.0,
        "engine.trials_per_s.sparse": rate(c["engine.trials.sparse"], c["engine.simulate_ns.sparse"]),
        "engine.trials_per_s.dense": rate(c["engine.trials.dense"], c["engine.simulate_ns.dense"]),
        "engine.run_protocol_calls": calls.get("engine.run_protocol", 0),
        "engine.run_protocol_self_s": selft.get("engine.run_protocol", 0.0),
        "engine.verify_patterns": c["engine.verify_patterns"],
        "engine.verify_s": incl.get("engine.verify", 0.0),
        "engine.exact_rows": c["engine.exact_rows"],
        "engine.exact_s": incl.get("engine.exact", 0.0),
        "catalog.load_calls": calls.get("catalog.load", 0),
        "catalog.load_s": incl.get("catalog.load", 0.0),
        "catalog.compare_s": incl.get("catalog.compare", 0.0),
        "search.nodes": c["search.nodes"],
        "search.s": incl.get("search.search", 0.0),
        "search.nodes_per_s": c["search.nodes"] / incl["search.search"] if incl.get("search.search") else 0.0,
        "search.validate_calls": c["search.validate_calls"],
        "cli.jobs": calls.get("cli.main", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for n, v in selft.items() if n.split(".", 1)[0] == layer)
    m["trace.self_sum_s"] = sum(selft.values())
    return m
