"""The benchmark's tracer names functions of treescore; every name must resolve.

``perfbench/bench_trace.py`` patches each ``TARGETS`` entry by name at run
time. A rename or deletion in ``src/`` would otherwise surface only when the
benchmark runs traced, so the table is read here as a literal, without
importing or running the benchmark.
"""

import ast
import importlib
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def bench_targets() -> dict:
    tree = ast.parse(BENCH_TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench_trace.py defines no TARGETS")


def test_every_traced_target_resolves_in_treescore():
    missing = []
    for module, names in bench_targets().items():
        mod = importlib.import_module(f"treescore.{module}")
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []
