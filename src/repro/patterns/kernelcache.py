"""Kernel cache for the native fast path (``fast_path="native"``).

The native tier (:mod:`repro.patterns.native`) lowers each recognized
plan shape into *generated Python source* specialized on the
(pattern shape, property dtypes, wire schema) triple.  Generating and
compiling that source — and, under the Numba backend, JIT-compiling the
loop kernels to machine code — is work that must be paid **once per
schema**, not once per bind.  This module provides the two cache levels:

* **in-memory**: a process-wide dict keyed by the spec's content hash;
  re-binding the same pattern shape on any machine in this process reuses
  the loaded kernels directly.
* **on-disk**: the generated source is persisted as a real module file
  under ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro-kernels``), so a
  *fresh process* binding the same schema loads the already-generated
  source instead of re-running the lowering pass.  Because the module is
  a real file (not an ``exec``'d string), Numba's ``@njit(cache=True)``
  can additionally persist compiled machine code next to it in
  ``__pycache__`` — the second process skips the JIT entirely.

Cache keys are content hashes of the canonical spec JSON plus a codegen
version, so a stale entry can never be loaded after the generator
changes shape.  Every filesystem failure degrades silently to the
memory-only path: a read-only home directory costs performance, never
correctness.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

#: Bump when the generated source layout changes incompatibly; keys are
#: derived from (version, spec) so old disk entries simply stop matching.
#: 2: the ``pack`` kernel is gone (rows leave the fan-out as columns).
CODEGEN_VERSION = 2

_ENV_DIR = "REPRO_KERNEL_CACHE"

# Process-wide kernel store: key -> (kernels dict, origin).  Shared by all
# machines in the process; forked process-transport workers inherit it.
_memory: dict = {}


def cache_key(spec: dict) -> str:
    """Stable content hash of a canonical kernel spec."""
    blob = json.dumps(
        {"v": CODEGEN_VERSION, "spec": spec}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def cache_dir() -> Optional[Path]:
    """The on-disk cache directory, or ``None`` when disabled.

    ``REPRO_KERNEL_CACHE=off`` (or ``0`` / empty) disables disk caching;
    any other value overrides the default location.
    """
    override = os.environ.get(_ENV_DIR)
    if override is not None:
        if override.strip().lower() in ("", "off", "0", "none"):
            return None
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def clear_memory_cache() -> None:
    """Drop every in-memory kernel (tests; disk entries are untouched)."""
    _memory.clear()


def _load_module(path: Path, key: str):
    """Import a generated source file as a uniquely-named module."""
    name = f"repro_native_kernels_{key}"
    existing = sys.modules.get(name)
    if existing is not None:
        return existing
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load kernel module at {path}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    sys.modules[name] = mod  # keep alive: kernels hold closures over it
    return mod


def _exec_module(source: str, key: str):
    """Fallback: compile the generated source in-memory (no disk)."""
    import types

    mod = types.ModuleType(f"repro_native_kernels_{key}_mem")
    exec(compile(source, f"<repro-native-{key}>", "exec"), mod.__dict__)
    return mod


def load_kernels(
    spec: dict,
    generate: Callable[[dict], str],
    jit: Optional[Callable],
    stats=None,
) -> tuple[dict, str]:
    """Return ``(kernels, origin)`` for ``spec``, generating at most once.

    ``generate(spec)`` produces the module source text; the module must
    define ``make(jit)`` returning the kernel dict.  ``jit`` is the
    decorator handed to ``make`` (``numba.njit(cache=True)`` under the
    JIT backend, ``None`` for the pure-numpy interpretation).  ``origin``
    is ``"memory"``, ``"disk"``, or ``"compile"`` and is also recorded on
    ``stats`` (a :class:`~repro.runtime.stats.StatsRegistry`) when given.
    """
    key = cache_key(spec)
    jit_tag = "jit" if jit is not None else "interp"
    mem_key = (key, jit_tag)
    hit = _memory.get(mem_key)
    if hit is not None:
        if stats is not None:
            stats.count_native("kernel_cache_hits")
        return hit, "memory"

    directory = cache_dir()
    path = None if directory is None else directory / f"rk_{key}.py"
    mod = None
    origin = "compile"
    if path is not None:
        try:
            if path.is_file():
                mod = _load_module(path, key)
                origin = "disk"
        except OSError:
            mod = None
    if mod is None:
        source = generate(spec)
        if path is not None:
            try:
                directory.mkdir(parents=True, exist_ok=True)
                # Atomic publish: concurrent binds (or forked workers)
                # racing on the same key must never read a half-written
                # module.
                fd, tmp = tempfile.mkstemp(
                    dir=str(directory), prefix=f".rk_{key}.", suffix=".py"
                )
                with os.fdopen(fd, "w") as fh:
                    fh.write(source)
                os.replace(tmp, path)
                mod = _load_module(path, key)
            except OSError:
                mod = None
        if mod is None:  # disk disabled or unwritable: memory-only
            mod = _exec_module(source, key)
        origin = "compile"
    kernels = mod.make(jit)
    _memory[mem_key] = kernels
    if stats is not None:
        if origin == "compile":
            stats.count_native("kernel_compiles")
        elif origin == "disk":
            stats.count_native("disk_cache_hits")
    return kernels, origin
