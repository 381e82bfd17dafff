"""The benchmark's tracer (perfbench/tracing.py) wraps breedsim names from outside
the package, so renaming or deleting a traced name must fail here, in the fast
suite, and not only in the benchmark's own test."""

import importlib.util
import os
from functools import cached_property

from breedsim import breeding, catalog, cli, codes, engine, search
from breedsim import fieldmath as fm
from breedsim import symplectic as sp

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
MODULES = (breeding, catalog, cli, codes, engine, fm, search, sp)
#: names the tracer wraps that no public caller of breedsim would notice losing
INTERNAL = (
    (codes.StabilizerCode, "_decode_by_coset"),
    (codes.StabilizerCode, "logical_class"),
    (fm, "solve"),
    (sp, "pairwise_products"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    """Every non-dunder attribute of the traced modules and of StabilizerCode,
    plus the function behind each of its cached properties."""
    cls = codes.StabilizerCode
    props = {name: attr.func for name, attr in vars(cls).items() if isinstance(attr, cached_property)}
    names = [{k: v for k, v in vars(owner).items() if not k.startswith("__")} for owner in (*MODULES, cls)]
    return names + [props]


def same(a, b):
    return all(x.keys() == y.keys() and all(x[k] is y[k] for k in x) for x, y in zip(a, b))


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    before = snapshot()
    originals = [getattr(owner, name) for owner, name in INTERNAL]
    restore = tracing.install(tracing.Tracer())
    try:
        for (owner, name), original in zip(INTERNAL, originals):
            assert getattr(owner, name).__wrapped__ is original
        assert not same(snapshot(), before)
    finally:
        restore()
    assert same(snapshot(), before)
