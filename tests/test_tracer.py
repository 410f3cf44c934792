"""The benchmark tracer's lookup sites resolve on this package."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """perfbench/tracer.py, loaded by file path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_site_resolves():
    # a traced function that is deleted or renamed would otherwise show
    # only as an absent boundary in the benchmark's trace
    tracer = _tracer()
    sites = [site for _, sites, *_ in tracer.BOUNDARIES for site in sites]
    assert len(sites) > len(tracer.BOUNDARIES)
    assert [site for site in sites if tracer._resolve(site) is None] == []
