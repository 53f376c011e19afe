"""A ratchet against dead code: every definition in ``src/repro`` is named
by something besides itself.

* A top-level function or class must be named in ``src/``, ``examples/``,
  ``perf/`` or ``scripts/``: in its own module outside its own body, or in
  a file that imports its module (or names it in a string, the way
  ``perf/trace.py`` names what it patches).  A test alone does not keep
  it.
* A method must be named anywhere in the repository, tests included,
  outside its own body.  Dunder methods are called implicitly and exempt.

"Named" is syntactic: a ``Name``, an attribute, an import alias, or an
identifier inside a string literal (``getattr``, ``methodcaller``,
``perf`` targets).  Docstrings and ``__all__`` entries do not count: a
mention in prose or an export list runs nothing.
"""

import ast
import functools
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNNING = ("src", "examples", "perf", "scripts")

#: ``module.name`` -> why only tests name it.
ALLOWED = {
    "repro.core.certificates.key_tuple_correct": (
        "the paper's external-validity predicate over key tuples, stated once"
    ),
    "repro.net.codec._encode_into": (
        "writes the legacy wire spellings the decode-refusal tests feed in"
    ),
    "repro.crypto.threshold_sig.share_valid": (
        "the per-share check that batch verification is tested against"
    ),
    "repro.analysis.stats.geometric_tail_bound": (
        "Theorem 9's tail bound on the number of NWH views; no experiment reports it yet"
    ),
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MODULE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _export_lists(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield from ast.walk(node.value)


class _File:
    """One parsed file: the names it uses (with line numbers) and the
    ``repro`` modules it imports or names in a string."""

    def __init__(self, path):
        self.path = path
        self.tree = ast.parse(path.read_text(), str(path))
        skipped = {id(node) for node in _docstrings(self.tree)}
        skipped |= {id(node) for node in _export_lists(self.tree)}
        self.uses = defaultdict(list)  # name -> lines
        self.modules = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name):
                self.uses[node.id].append(node.lineno)
            elif isinstance(node, ast.Attribute):
                self.uses[node.attr].append(node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.module:
                self.modules.add(node.module)
                for alias in node.names:
                    self.uses[alias.name].append(node.lineno)
                    self.modules.add(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules.add(alias.name)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skipped
            ):
                for word in _IDENT.findall(node.value):
                    self.uses[word].append(node.lineno)
                self.modules.update(_MODULE.findall(node.value))

    def names(self, name, outside=None):
        """Whether ``name`` is used here, outside the ``(first, last)`` lines."""
        return any(
            not (outside and outside[0] <= line <= outside[1])
            for line in self.uses.get(name, ())
        )


def _files(*roots):
    return [_File(path) for root in roots for path in sorted((ROOT / root).rglob("*.py"))]


def _module_name(path):
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(source):
    """``(kind, qualified name, name, (first, last))`` of every top-level
    function and class and every method of a top-level class."""
    module = _module_name(source.path)
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            span = (node.lineno, node.end_lineno)
            yield "top", f"{module}.{node.name}", node.name, span
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        span = (item.lineno, item.end_lineno)
                        yield "method", f"{module}.{node.name}.{item.name}", item.name, span


@functools.lru_cache(maxsize=None)
def unreferenced():
    """Qualified names of every definition that nothing names."""
    running = _files(*RUNNING)
    everything = running + _files("tests")
    sources = [f for f in running if f.path.is_relative_to(ROOT / "src" / "repro")]
    dead = []
    for source in sources:
        module = _module_name(source.path)
        for kind, qualified, name, span in _definitions(source):
            if kind == "top":
                named = source.names(name, outside=span) or any(
                    other is not source and module in other.modules and other.names(name)
                    for other in running
                )
            else:
                named = any(
                    f.names(name, outside=span if f is source else None) for f in everything
                )
            if not named:
                dead.append(qualified)
    return tuple(dead)


def test_every_definition_is_named_by_something_besides_itself():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, "named by nothing but tests or themselves (delete them): " + ", ".join(dead)


def test_the_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 4
    stale = set(ALLOWED) - set(unreferenced())
    assert not stale, f"allowlisted but now named outside tests: {sorted(stale)}"
