"""The package's surface: the README's library example runs as written;
``src/priorlda`` defines nothing that neither the package nor the benchmark
reaches, and no parameter default that no call of theirs ever overrides."""

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


# Defaulted parameters that no call in src/ or perfbench/ passes, each with why it stays.
UNPASSED_DEFAULTS = {
    "run_grid.metric_config": "a test seam: tests score with small windows (FAST_METRICS)",
    "log_lift.n_lift": "log_lift itself waits on the benchmark change of ROADMAP item 1",
    "Corpus.__init__.doc_ids": "Corpus.from_json passes it through cls(...), which no name matches",
}


def _defaulted_parameters(tree):
    """(qualified name, callee name, positional offset, parameter, position) of
    each defaulted parameter of each module-level function and method. The
    callee name is the one a call uses (the class's own for ``__init__``); the
    offset is 1 for a method, whose call binds self or cls (the package has no
    staticmethod); position is None for a keyword-only parameter."""
    functions = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
    for cls, func in functions:
        a = func.args
        callee = cls if func.name == "__init__" else func.name
        qualified = f"{cls}.{func.name}" if cls else func.name
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qualified, callee, int(cls is not None), arg.arg, i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield qualified, callee, int(cls is not None), arg.arg, None


def _passes(call: ast.Call, offset: int, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by position, or through * or **."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) + offset > position)


def test_every_defaulted_parameter_is_passed():
    # a default that only tests override is an option no command sets
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    calls = [node for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    unpassed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, offset, param, position in _defaulted_parameters(
                ast.parse(path.read_text(encoding="utf-8"))):
            if not any(callee(c) == name and _passes(c, offset, param, position)
                       for c in calls):
                unpassed.add(f"{qualified}.{param}")
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)
