"""The traced benchmark run wraps ``owner.__dict__[attr]`` for each probe in
``perfbench/spans.py``; a renamed or removed attribute makes that run fail."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkProbes:
    def test_every_probe_is_a_callable_attribute(self):
        spans = load_spans()
        missing = [
            f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in spans.PROBES
            if not callable(owner.__dict__.get(attr))
        ]
        assert missing == []

    def test_beta_kernel_cache_info(self):
        spans = load_spans()
        assert spans.specfun._beta_kernel_mp.cache_info().maxsize > 0
