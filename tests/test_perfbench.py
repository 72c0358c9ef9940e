"""The benchmark's tracer must find every function it wraps."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_the_tracer_resolves_every_traced_name():
    # Building a Tracer looks up each SPAN_SITES and COUNT_SITES name in
    # its module or class, so a traced name that the library drops or
    # renames raises KeyError here.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    built = tracer.Tracer()
    assert len(built._sites) == len(tracer.SPAN_SITES) + len(tracer.COUNT_SITES)
    built.check_original()
