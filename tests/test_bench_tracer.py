"""The bench tracer reaches into dmwc by module and function name; these
checks fail when a layer module or a public name it relies on goes away."""

import importlib.util
import inspect
import sys
from pathlib import Path

import dmwc
import dmwc.fileformat  # noqa: F401  the bench imports the file reader itself

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function bound in a dmwc module, and Digraph.__init__."""
    out = {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "dmwc" or name.startswith("dmwc.")
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }
    out["Digraph.__init__"] = dmwc.Digraph.__init__
    return out


def test_every_layer_is_a_loaded_module():
    tracer = _load_tracer()
    missing = [layer for layer in tracer.LAYERS if f"dmwc.{layer}" not in sys.modules]
    assert missing == []


def test_install_and_uninstall_restore_the_functions():
    tracer = _load_tracer().Tracer()
    before = _bindings()
    tracer.install()
    try:
        assert dmwc.solve_vertex is not before[("dmwc", "solve_vertex")]
        assert dmwc.Digraph.__init__ is not before["Digraph.__init__"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_exported_name_resolves():
    assert [name for name in dmwc.__all__ if not hasattr(dmwc, name)] == []


def test_spans_cover_every_layer_the_bench_reads():
    # bench/run.py reads these span names; pipeline.attempts counts
    # torso.reduce_instance, one per undirected solve; the walk's first
    # candidate z0 does not solve this YES, so it builds collections
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert dmwc.solve_vertex(dmwc.generate_instance(17, 20, 2.5 / 20, 2, 2)) is not None
        dmwc.solve_edge(dmwc.generate_instance(3, 6, 0.3, 2, 1))
    finally:
        tracer.uninstall()
    calls = {name: c for name, (c, _, _) in tracer.summary(0, len(tracer)).items()}
    read = ["graph.min_vertex_separator", "graph.digraph_init",
            "separators.build_collection", "separators.enumerate_important",
            "sampling.deterministic_sets", "pipeline.verify_solution",
            "torso.reduce_instance", "undirected.solve_undirected"]
    assert [name for name in read if not calls.get(name)] == []
    assert calls["torso.reduce_instance"] == calls["undirected.solve_undirected"]
    # sampling.builds_per_family = 1.0: one collection build per family
    assert calls["separators.build_collection"] == calls["sampling.deterministic_sets"]
