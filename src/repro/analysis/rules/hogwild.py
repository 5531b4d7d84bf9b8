"""Project rule: hogwild shared-memory write discipline.

Lock-free parallel SGD (DESIGN.md §14) is only correct because every
worker mutates the ``SharedEmbedding`` parameter buffers strictly
in place: ``np.add.at`` scatters, ``+=`` on views, and slice stores
all write through to the shared memory, while *rebinding* one of the
parameter attributes (``emb.source = ...``) or a local alias of one
silently detaches that worker onto a private copy — training still
runs, losses still fall, and the merged model is garbage.  Equally,
taking a lock in the worker hot path would reintroduce the serial
bottleneck hogwild exists to remove.  No per-file walk can see this:
the buffers live in ``parallel/shared.py`` while the worker entry point
and coordinator that write through them live in ``parallel/hogwild.py``
— so this is a :class:`ProjectRule` over the import graph.

Scope: every checked module that imports the ``SharedEmbedding``
class, *except* the module defining it (the definition site must
construct and bind the buffers).  Within scope the rule reports:

* plain assignment to a parameter-field attribute
  (``anything.source = ...``) — rebinds the shared buffer;
* rebinding a local name previously bound *from* a parameter field
  (``src = emb.source`` then ``src = other``) in the same function;
* constructing ``threading``/``multiprocessing`` ``Lock``/``RLock``
  or calling ``.acquire()`` — locking in the hogwild path.

In-place forms (``+=`` on attributes or views, subscript stores,
``np.add.at``) are exactly the sanctioned idioms and never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding
from repro.analysis.project import ModuleInfo, ProjectAstRule, ProjectGraph

#: The SharedEmbedding parameter buffers (mirrors
#: ``repro.parallel.shared.PARAMETER_FIELDS``; duplicated literally so
#: the analyzer never imports the code under analysis).
PARAMETER_FIELDS = frozenset({"source", "target", "source_bias", "target_bias"})

#: The class whose importers form the rule's scope.
SHARED_CLASS = "SharedEmbedding"

_LOCK_NAMES = frozenset({"Lock", "RLock"})


def _function_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """Module plus every (async) function, for per-scope alias tracking."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _direct_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements of ``scope`` without descending into nested functions."""
    stack = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                stack.extend(
                    grandchild
                    for grandchild in ast.walk(child)
                    if isinstance(grandchild, ast.stmt)
                )


class HogwildSafetyRule(ProjectAstRule):
    """Shared-buffer writes only through sanctioned in-place idioms."""

    rule_id = "hogwild-safety"
    description = (
        "modules importing SharedEmbedding must not rebind parameter "
        "buffers or their aliases, and must stay lock-free"
    )

    def check_project(self, graph: ProjectGraph) -> Iterable[Finding]:
        definer = graph.find_defining_module(SHARED_CLASS)
        if definer is None:
            return
        canonical = f"{definer.name}.{SHARED_CLASS}"
        for info in graph.modules_importing(canonical):
            if info.name == definer.name:
                continue
            yield from self._check_module(info)

    def _check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_locks(info)
        for scope in _function_scopes(info.parsed.tree):
            yield from self._check_scope(info, scope)

    def _check_scope(self, info: ModuleInfo, scope: ast.AST) -> Iterator[Finding]:
        shared_aliases: set[str] = set()
        for stmt in _direct_statements(scope):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in PARAMETER_FIELDS
                ):
                    yield self.finding(
                        info,
                        stmt,
                        f"plain assignment rebinds shared buffer "
                        f"'.{target.attr}'; use an in-place write "
                        f"(np.add.at, '+=', or a slice store) instead",
                    )
                elif (
                    isinstance(target, ast.Name)
                    and target.id in shared_aliases
                ):
                    yield self.finding(
                        info,
                        stmt,
                        f"'{target.id}' was bound from a shared parameter "
                        f"buffer and is rebound here, detaching it from "
                        f"shared memory",
                    )
            if (
                isinstance(stmt.value, ast.Attribute)
                and stmt.value.attr in PARAMETER_FIELDS
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        shared_aliases.add(target.id)

    def _check_locks(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _LOCK_NAMES:
                resolved = info.import_map.resolve(func.id)
                if resolved and (
                    resolved.startswith("threading.")
                    or resolved.startswith("multiprocessing.")
                ):
                    yield self.finding(
                        info, node, "lock constructed in a hogwild module"
                    )
            elif isinstance(func, ast.Attribute):
                if func.attr in _LOCK_NAMES and isinstance(func.value, ast.Name):
                    base = info.import_map.resolve(func.value.id) or func.value.id
                    if base in ("threading", "multiprocessing"):
                        yield self.finding(
                            info, node, "lock constructed in a hogwild module"
                        )
                elif func.attr == "acquire":
                    yield self.finding(
                        info,
                        node,
                        "'.acquire()' called in a hogwild module; the "
                        "worker hot path must stay lock-free",
                    )
