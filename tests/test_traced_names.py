"""The benchmark's tracer wraps kordered functions by name and silently
skips a name that no longer resolves, dropping that function's per-layer
metrics.  Read its name lists (without running it) and check every name
still resolves to a callable in kordered."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_lists() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    found[target.id] = ast.literal_eval(node.value)
    return found


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(f"kordered.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves_in_kordered():
    lists = _traced_lists()
    assert set(lists) == {"SPANNED", "COUNTED"}
    names = list(lists["SPANNED"]) + [(m, name) for m, name, _ in lists["COUNTED"]]
    missing = [f"{m}.{q}" for m, q in names if not callable(_resolve(m, q))]
    assert not missing, missing
