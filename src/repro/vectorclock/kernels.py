"""Compiled clock kernels (cffi fast path with a governed fallback).

The dense clock's three hot operations -- in-place join (``merge``),
pointwise comparison (``<=``) and equality -- are tight loops over small
int buffers.  Pure Python pays interpreter dispatch per component; this
module compiles the loops to C once per machine and exposes them through
cffi's API mode, whose per-call overhead is low enough to win even at the
typical clock width of a dozen threads.  :class:`~repro.vectorclock.dense.
DenseClock` switches its backing store to a flat ``array('q')`` buffer
and its hot methods to these kernels when, and only when, the compiled
module is available.

Backend selection is explicit, never accidental:

* ``REPRO_CLOCK_KERNEL=auto`` (default) -- use the compiled kernels when
  a C compiler (and cffi) is available, otherwise fall back to the pure
  Python implementation and record why in :data:`FALLBACK_REASON`.
* ``REPRO_CLOCK_KERNEL=cffi`` -- require the compiled kernels; raise
  :class:`KernelBuildError` at import when they cannot be built.  CI sets
  this on images that are supposed to have a toolchain, so a silently
  broken build fails the pipeline instead of quietly benchmarking the
  fallback.
* ``REPRO_CLOCK_KERNEL=python`` -- force the pure Python implementation
  (used by the differential test matrix to cover both paths).

The compiled module is cached under ``REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-race/kernels``), keyed by a hash of the C source and the
interpreter version, so rebuilding only happens when the kernels change.
Builds are atomic (private build dir, then ``os.replace``) because shard
worker processes may import this module concurrently.

The exported surface is deliberately tiny: :data:`BACKEND` (``"cffi"`` or
``"python"``), :data:`FALLBACK_REASON`, and -- in cffi mode -- the ``ffi``
/ ``lib`` pair the dense clock binds its methods to.  Everything else in
the library is backend-agnostic.
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import Optional


class KernelBuildError(RuntimeError):
    """Raised when ``REPRO_CLOCK_KERNEL=cffi`` and the build fails."""


_CDEF = """
long long dc_merge(long long *dst, const long long *src, long long n);
int dc_leq(const long long *a, long long na,
           const long long *b, long long nb);
int dc_eq(const long long *a, long long na,
          const long long *b, long long nb);
"""

_C_SOURCE = """
/* Kernels for dense (array-backed) vector clocks.  Buffers are int64
 * components indexed by interned thread id; lengths are logical element
 * counts.  Trailing zeros are insignificant, mirroring the Python
 * semantics: [1, 0] and [1] are the same clock. */

long long dc_merge(long long *dst, const long long *src, long long n) {
    /* In-place pointwise maximum of src into dst (len(dst) >= n).
     * Returns nonzero when any dst component grew. */
    long long changed = 0;
    for (long long i = 0; i < n; i++) {
        if (src[i] > dst[i]) { dst[i] = src[i]; changed = 1; }
    }
    return changed;
}

int dc_leq(const long long *a, long long na,
           const long long *b, long long nb) {
    /* Pointwise a <= b with trailing-zero semantics. */
    long long n = na < nb ? na : nb;
    for (long long i = 0; i < n; i++)
        if (a[i] > b[i]) return 0;
    for (long long i = n; i < na; i++)
        if (a[i]) return 0;
    return 1;
}

int dc_eq(const long long *a, long long na,
          const long long *b, long long nb) {
    /* Equality with trailing-zero semantics. */
    long long n = na < nb ? na : nb;
    for (long long i = 0; i < n; i++)
        if (a[i] != b[i]) return 0;
    for (long long i = n; i < na; i++)
        if (a[i]) return 0;
    for (long long i = n; i < nb; i++)
        if (b[i]) return 0;
    return 1;
}
"""

#: Resolved backend: "cffi" (compiled kernels active) or "python".
BACKEND = "python"

#: Why the python fallback was chosen (None while the kernels are active).
FALLBACK_REASON: Optional[str] = None

#: cffi handles, bound by the dense clock in cffi mode; None otherwise.
ffi = None
lib = None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-race", "kernels")


def _module_name() -> str:
    digest = hashlib.sha256(
        (_CDEF + _C_SOURCE).encode("utf-8")
    ).hexdigest()[:12]
    return "_repro_clock_kernels_%s_cp%d%d" % (
        digest, sys.version_info[0], sys.version_info[1]
    )


def _find_cached(cache: str, name: str) -> Optional[str]:
    try:
        entries = os.listdir(cache)
    except OSError:
        return None
    for entry in entries:
        if entry.startswith(name) and entry.endswith((".so", ".pyd")):
            return os.path.join(cache, entry)
    return None


def _compile(cache: str, name: str) -> str:
    """Build the extension into ``cache`` atomically; return the .so path."""
    import tempfile

    import cffi

    os.makedirs(cache, exist_ok=True)
    build_dir = tempfile.mkdtemp(prefix=name + "-build-", dir=cache)
    try:
        builder = cffi.FFI()
        builder.cdef(_CDEF)
        builder.set_source(name, _C_SOURCE)
        built = builder.compile(tmpdir=build_dir, verbose=False)
        target = os.path.join(cache, os.path.basename(built))
        os.replace(built, target)
        return target
    finally:
        import shutil

        shutil.rmtree(build_dir, ignore_errors=True)


def _load(path: str, name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError("cannot load compiled kernels from %s" % path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _activate() -> Optional[str]:
    """Try to bring the compiled kernels up; return a failure reason."""
    global BACKEND, ffi, lib
    try:
        # The compiled module needs only cffi's C backend; the cffi
        # package itself is imported by _compile when a build is due.
        import _cffi_backend  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    cache = _cache_dir()
    name = _module_name()
    path = _find_cached(cache, name)
    try:
        if path is None:
            path = _compile(cache, name)
        module = _load(path, name)
    except Exception as error:  # distutils/cc/dlopen failures
        return "kernel build failed: %s" % (error,)
    ffi = module.ffi
    lib = module.lib
    BACKEND = "cffi"
    return None


def describe() -> str:
    """One-line human-readable backend description (for bench/CLI output)."""
    if BACKEND == "cffi":
        return "cffi (compiled clock kernels)"
    return "python (fallback: %s)" % (FALLBACK_REASON or "forced")


_requested = os.environ.get("REPRO_CLOCK_KERNEL", "auto").strip().lower()
if _requested not in ("auto", "cffi", "python"):
    raise KernelBuildError(
        "REPRO_CLOCK_KERNEL must be auto, cffi or python (got %r)"
        % (_requested,)
    )
if _requested == "python":
    FALLBACK_REASON = "REPRO_CLOCK_KERNEL=python"
else:
    FALLBACK_REASON = _activate()
    if FALLBACK_REASON is not None and _requested == "cffi":
        raise KernelBuildError(
            "REPRO_CLOCK_KERNEL=cffi but the compiled clock kernels are "
            "unavailable (%s); install a C toolchain and cffi, or set "
            "REPRO_CLOCK_KERNEL=auto to accept the python fallback"
            % (FALLBACK_REASON,)
        )
