"""Pluggable tensor backends for the batched analog engine.

The batched crossbar stack (:mod:`repro.crossbar.stack`) dispatches
its two hot tensor primitives — the transposed batched matvec and the
transposed batched solve — through a :class:`~repro.backend.base.Backend`.
Everything else (column sums, variation draws, write planning) stays
in numpy for bitwise member-by-member reproducibility; the serial
crossbar classes are one-member stacks pinned to numpy.

Selection order for :func:`get_backend`:

1. an explicit ``name`` argument (config wins);
2. the ``REPRO_BACKEND`` environment variable;
3. the numpy default.

The torch backend is an optional extra (``pip install repro[torch]``)
and is import-guarded: requesting it without torch installed raises a
clear error instead of an import crash, and :func:`torch_available`
lets callers (and the test suite's skip markers) probe for it cheaply.
"""

from __future__ import annotations

import os

from repro.backend.base import Backend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.torch_backend import TorchBackend, torch_available

#: Environment variable naming the default backend ("numpy" / "torch").
BACKEND_ENV = "REPRO_BACKEND"

_REGISTRY = {
    "numpy": NumpyBackend,
    "torch": TorchBackend,
}

# One shared instance per backend: they are stateless (the torch
# backend caches only its device string).
_instances: dict[str, Backend] = {}


def available_backends() -> tuple[str, ...]:
    """Backend names that can actually be constructed here."""
    names = ["numpy"]
    if torch_available():
        names.append("torch")
    return tuple(names)


def get_backend(name: str | None = None) -> Backend:
    """Resolve a backend by name / ``REPRO_BACKEND`` / numpy default.

    Raises
    ------
    ValueError
        For a name not in the registry.
    ImportError
        For the torch backend when torch is not installed.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or "numpy"
    name = name.strip().lower()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
    if name not in _instances:
        _instances[name] = factory()
    return _instances[name]


__all__ = [
    "Backend",
    "BACKEND_ENV",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "get_backend",
    "torch_available",
]
