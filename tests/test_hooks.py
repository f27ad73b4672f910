"""The benchmark's hook points.

`perfbench/tracing.py` wraps every name in its TARGETS list, and the
benchmark's Probe patches `fedproto.warmup_cache` and `engine.run_algorithm`.
A rename or deletion of any of them breaks a traced benchmark run; this test
makes it fail the test suite as well.  The tracer is loaded by path, as it
is, without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TARGETS]


def test_every_hook_point_resolves():
    missing = []
    for module, attr in _targets() + [("fedproto", "warmup_cache"), ("engine", "run_algorithm")]:
        owner = importlib.import_module(f"revelight.{module}")
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            # the tracer patches a method where its class defines it
            owner = getattr(owner, owner_name, None)
            found = owner is not None and name in vars(owner)
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing
