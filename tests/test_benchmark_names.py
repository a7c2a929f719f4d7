"""The names perfbench/ reads from src/ still exist.

The benchmark wraps cubicsym's functions by name from outside
(`perfbench/run.py`'s `wrap_public_names`, which reads each name from its
module's `__dict__`), and its covariance probe calls `liealg.colinearity`.
A name that leaves `src/` breaks the benchmark and not the library, so
without this test only the benchmark's smoke run would notice.  The test
runs both in process and changes nothing under `perfbench/`.
"""

import sys
from importlib import import_module
from pathlib import Path

import pytest

import cubicsym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench():
    """perfbench's run, spans and workloads modules, which import their
    siblings by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield [import_module(name) for name in ("run", "spans", "workloads")]
    finally:
        sys.path.remove(str(PERFBENCH))


def test_benchmark_wraps_and_probes_existing_names(perfbench):
    run, spans, workloads = perfbench
    covariance = workloads.Covariance()
    # a class 4, 5 or 6 form has an invariant series, so the probe reaches
    # liealg.colinearity
    item = next(item for item in covariance.inputs(cubicsym, run.DEFAULT_SEED)
                if item["expect"] in ("4", "5", "6"))
    classify = cubicsym.classify
    tracer = spans.Tracer()
    try:
        run.wrap_public_names(tracer, cubicsym)
        out = covariance.op(cubicsym, item)
        assert covariance.check(item, out) is None
        covariance.probe(cubicsym, tracer.span, item, out)
    finally:
        tracer.restore()
    assert cubicsym.classify is classify
    assert {"forms.from_json", "forms.pullback", "killing.solve", "classify.classify",
            "classify.compare", "killing.build_system", "killing.kernel",
            "liealg.invariants", "liealg.colinearity"} <= {s[0] for s in tracer.spans}
