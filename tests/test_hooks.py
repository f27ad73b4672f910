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
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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
