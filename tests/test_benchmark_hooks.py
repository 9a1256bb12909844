"""The socket benchmark's traced run wraps these names; they must exist.

``socketbench/tracer.py`` replaces each entry of its ``WRAPPED`` table at
server start, resolving class attributes through the owner's ``__dict__``.
A refactor that moves or renames one of them breaks only the traced run,
which CI's untraced smoke never starts. This test loads the tracer module
from its file, without installing it, and resolves every entry the way
``Tracer.install`` does.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path
from typing import Optional

from repro.lbs.backends import ExecutionBackend, InlineBackend, ProcessPoolBackend

TRACER = Path(__file__).resolve().parents[1] / "socketbench" / "tracer.py"


def _wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("_socketbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def _unresolved(owner_path: str, attribute: str, kind: str) -> Optional[str]:
    """Why ``Tracer.install`` could not wrap this entry, or ``None``."""
    module_name, _, class_name = owner_path.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        if kind != "function" or not callable(getattr(module, attribute, None)):
            return f"no function {attribute} in {module_name}"
        return None
    raw = vars(getattr(module, class_name)).get(attribute)
    if kind == "classmethod" and isinstance(raw, classmethod):
        return None
    if kind == "method" and inspect.isfunction(raw):
        return None
    return f"{owner_path} defines no {kind} {attribute}"


def test_every_wrapped_entry_resolves():
    problems = {
        span: reason
        for span, (owner_path, attribute, kind, _count) in _wrapped().items()
        if (reason := _unresolved(owner_path, attribute, kind)) is not None
    }
    assert problems == {}


def test_backends_serve_through_the_base_class_only():
    # The tracer wraps the base-class methods; an override in a backend
    # would serve around the wrapper and silence the backends.* spans.
    serving = {
        name
        for name, value in vars(ExecutionBackend).items()
        if not name.startswith("_") and inspect.isfunction(value)
    } - {"bind", "close"}
    assert serving == {"cloak_batch_raw", "deanonymize_batch_raw"}
    for backend in (InlineBackend, ProcessPoolBackend):
        for name in serving:
            assert name not in vars(backend), f"{backend.__name__}.{name}"
