"""Compiled kernels (cffi fast path with a governed fallback).

One small C module holds every loop the library compiles:

* **Dense clocks.**  The dense clock's three hot operations -- in-place
  join (``merge``), pointwise comparison (``<=``) and equality -- are
  tight loops over small int buffers.  Pure Python pays interpreter
  dispatch per component; cffi's API mode has a per-call overhead low
  enough to win even at the typical clock width of a dozen threads.
  :class:`~repro.vectorclock.dense.DenseClock` switches its backing
  store to a flat ``array('q')`` buffer and its hot methods to these
  kernels when, and only when, the compiled module is available.
* **STD decode.**  ``std_scan`` walks ``\\n``-terminated ASCII lines of
  a byte buffer whose ``thread|op(arg)`` head is already in a C hash
  table (``std_heads_*``) mirroring
  :attr:`OpTable.heads <repro.trace.columns.OpTable>`, and writes each
  line's tid, op id and location span.  It stops at the first line it
  cannot take; :class:`~repro.trace.parsers.StdDecoder` hands that line
  to the Python decoder and resumes after it.
* **Lock discipline.**  ``lock_check`` is an accept-only pass over the
  tid/op columns for traces whose only lock roles are ``acquire`` and
  ``release``: a holder per lock and the innermost open acquire per
  thread.  ``Trace(validate=True)`` runs it first and falls back to
  :class:`~repro.trace.semantics.LockDiscipline` (which raises the
  error) on any other role or any violation.

The Python implementations stay the specification: the dense clock's
list loops, :func:`~repro.trace.parsers.parse_std_batch` and
``LockDiscipline``.  Backend selection is explicit, never accidental:

* ``REPRO_CLOCK_KERNEL=auto`` (default) -- use the compiled kernels when
  a C compiler (and cffi) is available, otherwise fall back to the pure
  Python implementation and record why in :data:`FALLBACK_REASON`.
* ``REPRO_CLOCK_KERNEL=cffi`` -- require the compiled kernels; raise
  :class:`KernelBuildError` at import when they cannot be built.  CI sets
  this on images that are supposed to have a toolchain, so a silently
  broken build fails the pipeline instead of quietly benchmarking the
  fallback.
* ``REPRO_CLOCK_KERNEL=python`` -- force the pure Python implementation
  (used by the differential test matrix to cover both paths); nothing
  then loads cffi's C backend.

The compiled module is cached under ``REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-race/kernels``), keyed by a hash of the C source and the
interpreter version, so rebuilding only happens when the kernels change.
Builds are atomic (private build dir, then ``os.replace``) because shard
worker processes may import this module concurrently.

The exported surface is deliberately tiny: :data:`BACKEND` (``"cffi"`` or
``"python"``), :data:`FALLBACK_REASON`, and -- in cffi mode -- the ``ffi``
/ ``lib`` pair the dense clock, the STD decoder and ``Trace`` bind to.
Everything else in the library is backend-agnostic.
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
void *std_heads_new(void);
void std_heads_free(void *heads);
int std_heads_put(void *heads, const char *key, long long n,
                  int tid, int op);
long long std_scan(void *heads, const char *text, long long pos,
                   long long end, int *tids, int *ops,
                   long long *starts, long long *ends,
                   long long *state, long long cap);
long long std_lines_end(const char *text, long long pos, long long end,
                        long long n);
int lock_check(const int *tids, const int *ops, long long n,
               const unsigned char *codes, const int *locks, long long n_ops,
               long long n_locks, long long n_threads);
"""

_C_SOURCE = r"""
#include <stdlib.h>
#include <string.h>

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

/* ------------------------------------------------------------------ */
/* STD decode: a table of known line heads and the line scanner.       */
/* ------------------------------------------------------------------ */

/* A known head is the raw "thread|op(arg)" prefix of a valid
 * three-field line; the table maps its bytes to (tid, op id).  Open
 * addressing with linear probing; keys live in one growing arena. */
typedef struct {
    unsigned long long hash;
    long long key, len;
    int tid, op, used;
} std_slot;

typedef struct {
    std_slot *slots;
    long long mask, count;
    char *arena;
    long long arena_len, arena_cap;
} std_heads;

#define FNV_OFFSET 1469598103934665603ULL
#define FNV_PRIME 1099511628211ULL

static unsigned long long std_hash(const unsigned char *p, long long n) {
    unsigned long long h = FNV_OFFSET;
    for (long long i = 0; i < n; i++) { h ^= p[i]; h *= FNV_PRIME; }
    return h;
}

static std_slot *std_find(const std_heads *t, const unsigned char *key,
                          long long n, unsigned long long h) {
    long long i = (long long)(h & (unsigned long long)t->mask);
    for (;;) {
        std_slot *s = &t->slots[i];
        if (!s->used) return s;
        if (s->hash == h && s->len == n
                && memcmp(t->arena + s->key, key, (size_t)n) == 0)
            return s;
        i = (i + 1) & t->mask;
    }
}

void *std_heads_new(void) {
    std_heads *t = calloc(1, sizeof *t);
    if (t == NULL) return NULL;
    t->mask = 1023;
    t->slots = calloc((size_t)t->mask + 1, sizeof(std_slot));
    if (t->slots == NULL) { free(t); return NULL; }
    return t;
}

void std_heads_free(void *heads) {
    std_heads *t = heads;
    if (t == NULL) return;
    free(t->slots);
    free(t->arena);
    free(t);
}

int std_heads_put(void *heads, const char *key, long long n,
                  int tid, int op) {
    /* Insert or update; returns 0, or -1 when out of memory. */
    std_heads *t = heads;
    const unsigned char *k = (const unsigned char *)key;
    if ((t->count + 1) * 2 > t->mask + 1) {
        long long mask = t->mask * 2 + 1;
        std_slot *old = t->slots;
        std_slot *slots = calloc((size_t)mask + 1, sizeof(std_slot));
        if (slots == NULL) return -1;
        t->slots = slots;
        for (long long i = 0; i <= t->mask; i++) {
            if (old[i].used) {
                long long j = (long long)(old[i].hash
                                          & (unsigned long long)mask);
                while (slots[j].used) j = (j + 1) & mask;
                slots[j] = old[i];
            }
        }
        t->mask = mask;
        free(old);
    }
    unsigned long long h = std_hash(k, n);
    std_slot *s = std_find(t, k, n, h);
    if (!s->used) {
        if (t->arena_len + n > t->arena_cap) {
            long long cap = t->arena_cap ? t->arena_cap * 2 : 4096;
            while (cap < t->arena_len + n) cap *= 2;
            char *arena = realloc(t->arena, (size_t)cap);
            if (arena == NULL) return -1;
            t->arena = arena;
            t->arena_cap = cap;
        }
        memcpy(t->arena + t->arena_len, k, (size_t)n);
        s->used = 1;
        s->hash = h;
        s->key = t->arena_len;
        s->len = n;
        t->arena_len += n;
        t->count++;
    }
    s->tid = tid;
    s->op = op;
    return 0;
}

static int std_space(unsigned char c) {
    /* The ASCII characters str.strip() removes. */
    return c == ' ' || (c >= 9 && c <= 13) || (c >= 28 && c <= 31);
}

long long std_scan(void *heads, const char *text, long long pos,
                   long long end, int *tids, int *ops,
                   long long *starts, long long *ends,
                   long long *state, long long cap) {
    /* Decode lines from text[pos:end] while each is "\n"-terminated,
     * all ASCII, has no "\r" except right before its "\n", and its
     * bytes up to the last "|" are a known head.  Row state[0] gets the
     * head's tid and op and the location span: the bytes after the
     * last "|", stripped like str.strip().  Returns the offset of the
     * first line not taken (end when all were) and advances state[0].
     * state[1] is that line's end (after its "\n") when the line is
     * "\n"-terminated ASCII with no stray "\r", else 0. */
    const std_heads *t = heads;
    const unsigned char *d = (const unsigned char *)text;
    long long r = state[0];
    state[1] = 0;
    while (pos < end && r < cap) {
        unsigned long long h = FNV_OFFSET, head_hash = 0;
        long long pipe = -1, i = pos;
        for (; i < end; i++) {
            unsigned char c = d[i];
            if (c == '\n') break;
            if (c >= 0x80) goto out;
            if (c == '\r' && (i + 1 >= end || d[i + 1] != '\n')) goto out;
            if (c == '|') { pipe = i; head_hash = h; }
            h ^= c;
            h *= FNV_PRIME;
        }
        if (i >= end) break;
        const std_slot *s = pipe < 0 ? NULL
            : std_find(t, d + pos, pipe - pos, head_hash);
        if (s == NULL || !s->used) {
            state[1] = i + 1;
            break;
        }
        long long a = pipe + 1, b = i;
        while (a < b && std_space(d[a])) a++;
        while (b > a && std_space(d[b - 1])) b--;
        tids[r] = s->tid;
        ops[r] = s->op;
        starts[r] = a;
        ends[r] = b;
        r++;
        pos = i + 1;
    }
out:
    state[0] = r;
    return pos;
}

long long std_lines_end(const char *text, long long pos, long long end,
                        long long n) {
    /* Offset after the next n lines of text[pos:end] (fewer at end);
     * lines end at "\n", "\r\n" or a bare "\r". */
    const unsigned char *d = (const unsigned char *)text;
    while (n > 0 && pos < end) {
        unsigned char c = d[pos++];
        if (c == '\n') {
            n--;
        } else if (c == '\r') {
            if (pos < end && d[pos] == '\n') pos++;
            n--;
        }
    }
    return pos;
}

/* ------------------------------------------------------------------ */
/* Lock discipline: the accept-only batch pre-check.                   */
/* ------------------------------------------------------------------ */

int lock_check(const int *tids, const int *ops, long long n,
               const unsigned char *codes, const int *locks, long long n_ops,
               long long n_locks, long long n_threads) {
    /* codes[op]: 0 no lock role, 1 acquire, 2 release, 3 any other
     * role; locks[op]: the dense lock id of an acquire or release.
     * Returns 1 when every acquire finds its lock free and every
     * release closes its thread's innermost open acquire, 0 on the
     * first row where that fails, a code-3 row or an id out of range,
     * -1 when out of memory.  Only 1 is a verdict: the caller
     * re-checks the rest. */
    int *holder = malloc(sizeof(int) * (size_t)(n_locks + 1));
    int *below = malloc(sizeof(int) * (size_t)(n_locks + 1));
    int *top = malloc(sizeof(int) * (size_t)(n_threads + 1));
    int ok = 1;
    if (holder == NULL || below == NULL || top == NULL) {
        ok = -1;
        goto done;
    }
    for (long long i = 0; i < n_locks; i++) holder[i] = -1;
    for (long long i = 0; i < n_threads; i++) top[i] = -1;
    for (long long i = 0; i < n; i++) {
        int op = ops[i];
        if (op < 0 || op >= n_ops) { ok = 0; break; }
        unsigned char code = codes[op];
        if (code == 0) continue;
        if (code > 2) { ok = 0; break; }
        int lock = locks[op], tid = tids[i];
        if (lock < 0 || lock >= n_locks || tid < 0 || tid >= n_threads) {
            ok = 0;
            break;
        }
        if (code == 1) {
            if (holder[lock] >= 0) { ok = 0; break; }
            holder[lock] = tid;
            below[lock] = top[tid];
            top[tid] = lock;
        } else {
            if (top[tid] != lock) { ok = 0; break; }
            top[tid] = below[lock];
            holder[lock] = -1;
        }
    }
done:
    free(holder);
    free(below);
    free(top);
    return ok;
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
        return "cffi (compiled clock, STD decode and lock-check kernels)"
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
