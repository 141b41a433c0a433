"""Every name a ``widthlab`` module imports is used in that module, every
function is read in ``src``, and the settable values stay pinned."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "widthlab"


def _imported(tree):
    """The names bound by the module's imports, except ``__future__``'s."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree):
    """Names the module reads, in string annotations too, and the names it
    re-exports through ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            annotations += [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(e.value for e in node.value.elts)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = _imported(tree) - _used(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def _defined(tree):
    """The names bound at the top level of a module: its functions, classes,
    assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names | _imported(tree)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    """``_used`` counts ``__all__`` entries as used, so a stale entry would
    pass there while ``from widthlab.<module> import *`` breaks."""
    tree = ast.parse(path.read_text())
    exported = [e.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for e in node.value.elts]
    missing = sorted(set(exported) - _defined(tree))
    assert not missing, f"{path.name} exports names it does not define: {missing}"


def _references(tree):
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _functions(tree):
    """Each top-level function of a module and each non-dunder method of its
    top-level classes, as ``(qualified name, node)``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, kinds)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_function_is_read_in_src():
    """A function or method that only its own body or the tests read is not
    library code: a test oracle belongs in ``tests/oracles.py``, anything
    else is dead.  An ``__all__`` string is no read."""
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    total = sum((_references(tree) for tree in trees), Counter())
    unread = [name for tree in trees for name, node in _functions(tree)
              if total[node.name] == _references(node)[node.name]]
    assert not unread, f"functions that src/widthlab never reads: {sorted(unread)}"


#: Settable values in ``src/widthlab``: parameters with a default plus
#: dataclass fields with a default.  A change that adds a knob raises this
#: pin in plain view; one that removes knobs lowers it.
MAX_SETTABLE_VALUES = 9


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_do_not_grow():
    count = sum(_settable_values(ast.parse(p.read_text())) for p in SRC.glob("*.py"))
    assert count <= MAX_SETTABLE_VALUES, (
        f"src/widthlab has {count} settable values, more than {MAX_SETTABLE_VALUES}")
