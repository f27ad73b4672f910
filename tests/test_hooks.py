"""The benchmark's hook points.

`perfbench/tracing.py` wraps every name in its TARGETS list, the
benchmark's Probe patches `fedproto.warmup_cache` and `engine.run_algorithm`,
and `perfbench/workloads.py` calls program names through `rl.<module>.<name>`
or through an alias such as `cli = self.rl.cli`.  A rename or deletion of any
of them breaks a benchmark run; these tests make it fail the test suite as
well.  The tracer is loaded by path, as it is, and the workloads are read as
source, without importing the rest of the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _targets() -> list[tuple[str, str]]:
    return [(module, attr) for module, attr, _ in _tracing().TARGETS]


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


def test_special_wrappers_fit_their_targets():
    """The tracer's `_wrap_pop` calls pop_next(queue, processed_count), reads
    the send count at out[1] and the queue's `pending`; `_wrap_run` reads
    cfg.algorithm from run_algorithm's first argument and looks it up in
    DRIVERS."""
    from revelight import engine
    from revelight.fedproto import StalenessQueue

    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    pop = inspect.signature(StalenessQueue.pop_next).parameters.values()
    assert [(p.name, p.kind) for p in pop] == [("self", positional),
                                               ("processed_count", positional)]
    run = next(iter(inspect.signature(engine.run_algorithm).parameters.values()))
    assert (run.name, run.kind) == ("cfg", positional)
    assert set(engine.ALGORITHMS) <= set(_tracing().DRIVERS)

    queue = StalenessQueue(tau=2)
    queue.send(1, 3)
    queue.deliver(1, "msg")
    assert list(queue.pending) == [1]
    out = queue.pop_next(4)
    assert out[1] == 3 and out == ("msg", 3, 1) and not queue.pending
    assert queue.pop_next(4) is None


def _program_module(node) -> str | None:
    """`<module>` when `node` is `rl.<module>` or `self.rl.<module>`."""
    if not isinstance(node, ast.Attribute):
        return None
    owner = node.value
    if isinstance(owner, ast.Name) and owner.id == "rl" or (
            isinstance(owner, ast.Attribute) and owner.attr == "rl"
            and isinstance(owner.value, ast.Name) and owner.value.id == "self"):
        return node.attr
    return None


def workload_names() -> set[tuple[str, str]]:
    """(module, name) for every `rl.<module>.<name>` in the workloads, and
    every `<alias>.<name>` after `<alias> = rl.<module>`."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {target.id: _program_module(node.value)
               for node in ast.walk(tree) if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name) and _program_module(node.value)}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = _program_module(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
        if module is not None:
            names.add((module, node.attr))
    return names


def test_every_name_the_workloads_call_resolves():
    names = workload_names()
    # the reader finds the calls it is meant to find
    assert {("engine", "training_bytes"), ("cli", "synthetic_pair"), ("cli", "main"),
            ("verify", "check_unbiasedness"), ("engine", "RunConfig")} <= names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"revelight.{module}"), name)]
    assert not missing
