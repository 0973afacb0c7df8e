import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # a traced benchmark run wraps each (module, attr) of layers.TARGETS, so
    # renaming or removing one of those functions breaks `run.py --trace 1`
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [label for module, attr, label, _ in layers.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
