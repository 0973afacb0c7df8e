"""The package's surface: the README's library example runs as written, and
``src/priorlda`` defines nothing that neither the package nor the benchmark
reaches."""

import ast
import re
from pathlib import Path

from .conftest import ALICE_TEXTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "priorlda"

# Reached only from perfbench/, which calls them until the benchmark change
# of ROADMAP item 1 drops them; that change can then delete them from src/.
AWAITING_BENCHMARK_CHANGE = frozenset({"log_lift", "comparison_csv", "HAVE_NUMBA"})


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "docs.txt").write_text("\n".join(ALICE_TEXTS) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["scores"].per_topic) == 20


def _definitions(tree):
    """(name, line) of each module-level function, class and UPPER_CASE
    constant, and of each method; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.lineno) for t in targets
                        if isinstance(t, ast.Name) and t.id.isupper())


def test_every_definition_is_referenced():
    # __init__.py only re-exports, so its lines are no reference
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    defined: dict[str, set[tuple[Path, int]]] = {}
    for path in modules:
        for name, line in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined.setdefault(name, set()).add((path, line))
    referenced = set()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            referenced.update(name for name in re.findall(r"\w+", line)
                              if name in defined and (path, number) not in defined[name])
    assert sorted(set(defined) - referenced - AWAITING_BENCHMARK_CHANGE) == []
