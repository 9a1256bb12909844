"""``lock-discipline`` — mutations of lock-guarded state must hold the lock.

The historical bug class: the original anonymization server counted
requests with a bare ``self._requests_served += 1`` while other paths
mutated the same counter under ``with self._lock`` — concurrent batches
silently dropped increments (``tests/lbs/test_batch.py::TestCounterSafety``
now drives :class:`~repro.lbs.service.AnonymizerService` from several
threads to keep the fix covered). The invariant this rule encodes:
**within a class that owns a ``threading.Lock``/``RLock`` attribute, an
attribute that is mutated under ``with self.<lock>`` anywhere must be
mutated under that lock everywhere** (``__init__`` excepted — construction
happens-before sharing). The same discipline applies at module level to
globals guarded by module-level locks (the profile/PRF/pre-assignment cache
pattern).

The check is syntactic: a mutation inside a helper that is only ever
called with the lock held (e.g. ``ProcessPoolBackend._respawn`` under the
dispatch lock) has no enclosing ``with`` and is *not* tracked as guarded —
such attributes simply never enter the guarded set, so the convention of
"lock held by caller" helpers stays expressible. What the rule refuses is
the half-disciplined state where the same attribute is mutated both ways.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from ..core import Finding, ModuleInfo, Project
from ..registry import Rule, register
from ..visitor import (
    ImportTable,
    held_attr_locks,
    held_global_locks,
    iter_attr_mutations,
    iter_global_mutations,
)

#: Callables whose result is a lock (resolved dotted names).
_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}


def _lock_attrs_of_class(cls: ast.ClassDef, imports: ImportTable) -> Set[str]:
    """Attributes of ``cls`` assigned a lock object in any method."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        resolved = imports.resolve(node.value.func)
        if resolved not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks.add(target.attr)
    return locks


def _module_locks(tree: ast.Module, imports: ImportTable) -> Set[str]:
    """Module-level names assigned a lock object at module scope."""
    locks: Set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and imports.resolve(node.value.func) in _LOCK_FACTORIES
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    locks.add(target.id)
    return locks


def _method_of(cls: ast.ClassDef, node: ast.AST) -> str:
    cursor = getattr(node, "parent", None)
    while cursor is not None and cursor is not cls:
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parent = getattr(cursor, "parent", None)
            if parent is cls:
                return cursor.name
        cursor = getattr(cursor, "parent", None)
    return ""


@register
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "attributes mutated under `with self.<lock>` anywhere must hold "
        "the lock at every mutation site (the PR 2 racy-counter class)"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        imports = ImportTable(module.tree)
        yield from self._check_classes(module, imports)
        yield from self._check_module_globals(module, imports)

    # ------------------------------------------------------------------
    def _check_classes(
        self, module: ModuleInfo, imports: ImportTable
    ) -> Iterable[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            lock_attrs = _lock_attrs_of_class(cls, imports)
            if not lock_attrs:
                continue
            # First pass: which (attr -> locks) pairings exist under a
            # syntactic `with self.<lock>` somewhere in the class.
            guarded_by: Dict[str, Set[str]] = {}
            mutations = list(iter_attr_mutations(cls))
            for mutation in mutations:
                held = held_attr_locks(mutation.node) & lock_attrs
                if held:
                    guarded_by.setdefault(mutation.attr, set()).update(held)
            # Second pass: every mutation of a guarded attribute must hold
            # (one of) its guarding locks.
            for mutation in mutations:
                locks = guarded_by.get(mutation.attr)
                if not locks or mutation.attr in lock_attrs:
                    continue
                if _method_of(cls, mutation.node) == "__init__":
                    continue  # construction happens-before sharing
                if held_attr_locks(mutation.node) & locks:
                    continue
                lock_list = ", ".join(f"self.{name}" for name in sorted(locks))
                yield module.finding(
                    self.id,
                    mutation.node,
                    f"{cls.name}.{mutation.attr} is mutated elsewhere under "
                    f"`with {lock_list}` but mutated here without the lock",
                )

    # ------------------------------------------------------------------
    def _check_module_globals(
        self, module: ModuleInfo, imports: ImportTable
    ) -> Iterable[Finding]:
        locks = _module_locks(module.tree, imports)
        if not locks:
            return
        container_names = {
            target.id
            for node in module.tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        } - locks
        if not container_names:
            return
        guarded_by: Dict[str, Set[str]] = {}
        mutations = list(iter_global_mutations(module.tree, container_names))
        # Only mutations inside functions count: module top level runs
        # single-threaded at import time.
        mutations = [
            m
            for m in mutations
            if any(
                isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef))
                for p in _ancestors(m.node)
            )
        ]
        for mutation in mutations:
            held = held_global_locks(mutation.node) & locks
            if held:
                guarded_by.setdefault(mutation.attr, set()).update(held)
        for mutation in mutations:
            guard = guarded_by.get(mutation.attr)
            if not guard:
                continue
            if held_global_locks(mutation.node) & guard:
                continue
            lock_list = ", ".join(sorted(guard))
            yield module.finding(
                self.id,
                mutation.node,
                f"module global {mutation.attr} is mutated elsewhere under "
                f"`with {lock_list}` but mutated here without the lock",
            )


def _ancestors(node: ast.AST) -> List[ast.AST]:
    out: List[ast.AST] = []
    cursor = getattr(node, "parent", None)
    while cursor is not None:
        out.append(cursor)
        cursor = getattr(cursor, "parent", None)
    return out
