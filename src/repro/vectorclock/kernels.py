"""Compiled kernels (cffi fast path with a governed fallback).

One C module holds every loop the library compiles:

* **STD decode.**  ``std_scan`` walks ``\\n``-terminated ASCII lines of
  a byte buffer whose ``thread|op(arg)`` head is already in a C hash
  table (``std_heads_*``) mirroring
  :attr:`OpTable.heads <repro.trace.columns.OpTable>`, and writes each
  line's tid, op id and location span.  It stops at the first line it
  cannot take; :class:`~repro.trace.parsers.StdDecoder` hands that line
  to the Python decoder and resumes after it.
* **WCP.**  ``wcp_run`` is Algorithm 1 over a block's tid/op columns:
  the deferred ``N_t`` bump, acquire/release with the Rule (b) log walk
  and both reclamation modes (pruned by the releaser census, or none
  without a census), Rule (a) cells, fork/join, census
  elision and the access history's race attribution, in state
  (``wcp_state``) that mirrors :class:`~repro.core.wcp.WCPDetector`'s
  field for field.  :mod:`repro.core.wcp_compiled` drives it and
  transcribes the state back; it returns before any row the Python
  detector must take (another kind, a lock it would taint).
* **Lock discipline.**  ``lock_check`` is an accept-only pass over the
  tid/op columns for traces whose only lock roles are ``acquire`` and
  ``release``: a holder per lock and the innermost open acquire per
  thread.  ``Trace(validate=True)`` runs it first and falls back to
  :class:`~repro.trace.semantics.LockDiscipline` (which raises the
  error) on any other role or any violation.

Vector clocks outside the WCP kernel are not compiled: at the clock
widths traces reach (at most 14 threads in the paper's benchmark
traces) one cffi call costs more than the loop it would run, so
:class:`~repro.vectorclock.dense.DenseClock` keeps its list store under
every backend.

The Python implementations stay the specification:
:func:`~repro.trace.parsers.parse_std_batch`,
``LockDiscipline`` and ``WCPDetector.process_batch``.  Backend
selection is explicit, never accidental:

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
/ ``lib`` pair the STD decoder, ``Trace`` and the WCP detector bind to.
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

_WCP_CDEF = """
typedef struct { long long n, cap; long long *t; } wcp_mclk;
typedef struct { int *items; long long n, cap; int *slots; long long mask; }
    wcp_idset;
typedef struct { int lock, pad; wcp_idset reads, writes; } wcp_section;
typedef struct {
    long long nt;
    int prev, pad;
    wcp_mclk p, h;
    long long *ct;
    wcp_section *secs;
    long long nsec, capsec;
} wcp_thread;
typedef struct { long long *acq, *rel; long long epoch; int owner, pad; }
    wcp_entry;
typedef struct { long long cur; int tid, pad; } wcp_cursor;
typedef struct {
    int created, local, holder, open_tid, blocker, pad;
    long long open_idx;
    wcp_entry *log;
    long long head, len, cap, base;
    wcp_cursor *cursors;
    long long ncur, capcur;
    long long *pl, *hl;
    wcp_idset releasers;
} wcp_lock;
typedef struct { long long *clk; int tid, pad; } wcp_bt;
typedef struct { long long ver; int tid, pad; } wcp_seen;
typedef struct {
    int lock, var, kind, top_tid, second_tid, pad;
    long long version;
    wcp_bt *bt;
    long long nbt, capbt;
    wcp_seen *seen;
    long long nseen, capseen;
} wcp_cell;
typedef struct {
    int created, local, r_tid, w_tid, r_fast, w_fast, rj_owned, wj_owned;
    long long r_time, w_time;
    long long *rj, *wj;
    int *lists[2];
    long long nlists[2], caplists[2];
} wcp_var;
typedef struct { int var, kind, tid, head, tail, pad; long long count; }
    wcp_tlist;
typedef struct { long long index, loc, rank; long long *clk; int prev, next; }
    wcp_hcell;
typedef struct { long long a, b; int v, used; } wcp_slot;
typedef struct { wcp_slot *slots; long long mask, count; } wcp_map;
typedef struct {
    int prune, pad;
    wcp_thread *th;
    long long nth, capth;
    int *order;
    long long norder, caporder;
    wcp_lock *locks;
    long long nlocks, caplocks;
    int *lock_order;
    long long nlock_order, caplock_order;
    wcp_var *vars;
    long long nvars, capvars;
    int *var_order;
    long long nvar_order, capvar_order;
    wcp_cell *cells;
    long long ncells, capcells;
    wcp_tlist *tlists;
    long long ntl, captl;
    wcp_hcell *hcells;
    long long nhc, caphc;
    wcp_map cellmap, tlmap, hcmap, curmap;
    void *locs;
    long long *loc_spans;
    long long nlocs, caplocs;
    long long queue_total, max_queue_total;
    long long *races;
    long long nraces, capraces;
    int *scratch;
    long long capscratch;
} wcp_state;
void *wcp_new(int prune);
void wcp_free(void *handle);
int wcp_add_lock(void *handle, int local);
int wcp_census_lock(void *handle, int lock, int tid);
int wcp_add_var(void *handle, int local);
int wcp_loc_put(void *handle, const char *key, long long n);
long long wcp_loc_get(void *handle, int id, const char **key);
int wcp_thread_init(void *handle, int tid);
long long *wcp_ct(void *handle, int tid);
long long wcp_first_stop(const int *ops, long long n,
                         const unsigned char *kinds, long long n_ops);
long long wcp_run(void *handle, const int *tids, const int *ops, long long n,
                  const unsigned char *kinds, const int *targets,
                  long long n_ops, long long n_threads,
                  const char *data, long long n_data,
                  const long long *starts, const long long *ends,
                  const int *decoded, long long n_decoded,
                  const int *loc_ids, const long long *indices,
                  long long start, long long *out);
"""

_WCP_SOURCE = r"""
/* ------------------------------------------------------------------ */
/* WCP: Algorithm 1 over the tid/op columns of a block.                */
/* ------------------------------------------------------------------ */

/* The state mirrors repro.core.wcp.WCPDetector field for field (see
 * repro/core/wcp_compiled.py, which transcribes it back).  Shared clocks
 * are "frozen": a malloc'd block [refs, n, t[0..n)] that log entries,
 * Rule (a) cells, per-lock clocks and access histories alias, exactly as
 * the Python detector aliases its frozen DenseClocks.  Kinds arrive as
 * codes per op id: 0 read, 1 write, 2 acquire, 3 release, 4 fork,
 * 5 join, 6 no clock work, 7 anything else (the Python path's). */

typedef long long i64;

static i64 *fc_new(i64 n) {
    i64 *c = malloc(sizeof(i64) * (size_t)(n + 2));
    if (c == NULL) return NULL;
    c[0] = 1;
    c[1] = n;
    return c;
}

static i64 *fc_ref(i64 *c) {
    if (c != NULL) c[0]++;
    return c;
}

static void fc_drop(i64 *c) {
    if (c != NULL && --c[0] == 0) free(c);
}

#define FC_N(c) ((c)[1])
#define FC_T(c) ((c) + 2)

static i64 fc_at(const i64 *c, i64 i) {
    return i < c[1] ? c[2 + i] : 0;
}

static int fc_join(i64 **pc, const i64 *s, i64 n) {
    /* In-place join into an owned frozen-format clock (refs == 1). */
    i64 *c = *pc;
    if (n > c[1]) {
        c = realloc(c, sizeof(i64) * (size_t)(n + 2));
        if (c == NULL) return -1;
        memset(c + 2 + c[1], 0, sizeof(i64) * (size_t)(n - c[1]));
        c[1] = n;
        *pc = c;
    }
    for (i64 i = 0; i < n; i++)
        if (s[i] > c[2 + i]) c[2 + i] = s[i];
    return 0;
}

static i64 *fc_copy(const i64 *s) {
    i64 *c = fc_new(s[1]);
    if (c != NULL) memcpy(c + 2, s + 2, sizeof(i64) * (size_t)s[1]);
    return c;
}

typedef struct { i64 n, cap; i64 *t; } wcp_mclk;

static int mc_grow(wcp_mclk *m, i64 n) {
    if (n <= m->n) return 0;
    if (n > m->cap) {
        i64 cap = m->cap ? m->cap : 8;
        while (cap < n) cap *= 2;
        i64 *t = realloc(m->t, sizeof(i64) * (size_t)cap);
        if (t == NULL) return -1;
        m->t = t;
        m->cap = cap;
    }
    memset(m->t + m->n, 0, sizeof(i64) * (size_t)(n - m->n));
    m->n = n;
    return 0;
}

static int mc_merge(wcp_mclk *m, const i64 *s, i64 n) {
    /* Join s into m: 1 when a component grew, 0 when not, -1 no memory. */
    if (mc_grow(m, n)) return -1;
    int changed = 0;
    for (i64 i = 0; i < n; i++)
        if (s[i] > m->t[i]) { m->t[i] = s[i]; changed = 1; }
    return changed;
}

static int mc_assign(wcp_mclk *m, i64 i, i64 v) {
    if (i >= m->n) {
        if (!v) return 0;
        if (mc_grow(m, i + 1)) return -1;
    }
    m->t[i] = v;
    return 0;
}

static i64 *mc_freeze(const wcp_mclk *m) {
    i64 *c = fc_new(m->n);
    if (c != NULL) memcpy(c + 2, m->t, sizeof(i64) * (size_t)m->n);
    return c;
}

static int fc_leq(const i64 *a, const i64 *b) {
    /* Pointwise a <= b; components past a clock's length read as 0. */
    i64 na = FC_N(a), nb = FC_N(b), n = na < nb ? na : nb;
    for (i64 i = 0; i < n; i++)
        if (FC_T(a)[i] > FC_T(b)[i]) return 0;
    for (i64 i = n; i < na; i++)
        if (FC_T(a)[i]) return 0;
    return 1;
}

/* A map from a pair of ints to an int; open addressing. */
typedef struct { i64 a, b; int v, used; } wcp_slot;
typedef struct { wcp_slot *slots; i64 mask, count; } wcp_map;

static unsigned long long wcp_mix(i64 a, i64 b) {
    unsigned long long h = (unsigned long long)a * 0x9E3779B97F4A7C15ULL;
    h ^= (unsigned long long)b + 0x632BE59BD9B4E019ULL + (h << 6) + (h >> 2);
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
    return h;
}

static int map_get(const wcp_map *m, i64 a, i64 b) {
    if (m->slots == NULL) return -1;
    i64 i = (i64)(wcp_mix(a, b) & (unsigned long long)m->mask);
    for (;;) {
        const wcp_slot *s = &m->slots[i];
        if (!s->used) return -1;
        if (s->a == a && s->b == b) return s->v;
        i = (i + 1) & m->mask;
    }
}

static int map_put(wcp_map *m, i64 a, i64 b, int v) {
    /* Insert a new key (the caller checked it is absent). */
    if (m->slots == NULL || (m->count + 1) * 2 > m->mask + 1) {
        i64 mask = m->slots == NULL ? 255 : m->mask * 2 + 1;
        wcp_slot *slots = calloc((size_t)mask + 1, sizeof(wcp_slot));
        if (slots == NULL) return -1;
        if (m->slots != NULL) {
            for (i64 i = 0; i <= m->mask; i++) {
                if (!m->slots[i].used) continue;
                i64 j = (i64)(wcp_mix(m->slots[i].a, m->slots[i].b)
                              & (unsigned long long)mask);
                while (slots[j].used) j = (j + 1) & mask;
                slots[j] = m->slots[i];
            }
            free(m->slots);
        }
        m->slots = slots;
        m->mask = mask;
    }
    i64 i = (i64)(wcp_mix(a, b) & (unsigned long long)m->mask);
    while (m->slots[i].used) i = (i + 1) & m->mask;
    m->slots[i].a = a;
    m->slots[i].b = b;
    m->slots[i].v = v;
    m->slots[i].used = 1;
    m->count++;
    return 0;
}

static int grow_array(void **items, i64 *cap, i64 need, size_t size) {
    if (need <= *cap) return 0;
    i64 c = *cap ? *cap : 4;
    while (c < need) c *= 2;
    void *p = realloc(*items, size * (size_t)c);
    if (p == NULL) return -1;
    memset((char *)p + size * (size_t)*cap, 0, size * (size_t)(c - *cap));
    *items = p;
    *cap = c;
    return 0;
}

#define GROW(arr, cap, need) \
    grow_array((void **)&(arr), &(cap), (need), sizeof(*(arr)))

/* A set of non-negative ids that remembers insertion order. */
typedef struct { int *items; i64 n, cap; int *slots; i64 mask; } wcp_idset;

static int ids_has(const wcp_idset *s, int id) {
    if (s->slots == NULL) return 0;
    i64 i = (i64)((unsigned)id * 2654435761u) & s->mask;
    for (;;) {
        int v = s->slots[i];
        if (v == 0) return 0;
        if (v == id + 1) return 1;
        i = (i + 1) & s->mask;
    }
}

static int ids_add(wcp_idset *s, int id) {
    if (ids_has(s, id)) return 0;
    if (s->slots == NULL || (s->n + 1) * 2 > s->mask + 1) {
        i64 mask = s->slots == NULL ? 15 : s->mask * 2 + 1;
        int *slots = calloc((size_t)mask + 1, sizeof(int));
        if (slots == NULL) return -1;
        for (i64 k = 0; k < s->n; k++) {
            i64 i = (i64)((unsigned)s->items[k] * 2654435761u) & mask;
            while (slots[i]) i = (i + 1) & mask;
            slots[i] = s->items[k] + 1;
        }
        free(s->slots);
        s->slots = slots;
        s->mask = mask;
    }
    if (GROW(s->items, s->cap, s->n + 1)) return -1;
    i64 i = (i64)((unsigned)id * 2654435761u) & s->mask;
    while (s->slots[i]) i = (i + 1) & s->mask;
    s->slots[i] = id + 1;
    s->items[s->n++] = id;
    return 0;
}

static void ids_clear(wcp_idset *s) {
    if (s->n * 4 < s->mask) {
        for (i64 k = 0; k < s->n; k++) {
            i64 i = (i64)((unsigned)s->items[k] * 2654435761u) & s->mask;
            while (s->slots[i] != s->items[k] + 1) i = (i + 1) & s->mask;
            s->slots[i] = 0;
        }
    } else if (s->slots != NULL) {
        memset(s->slots, 0, sizeof(int) * (size_t)(s->mask + 1));
    }
    s->n = 0;
}

static void ids_free(wcp_idset *s) {
    free(s->items);
    free(s->slots);
}

typedef struct { int lock, pad; wcp_idset reads, writes; } wcp_section;

typedef struct {
    i64 nt;
    int prev, pad;
    wcp_mclk p, h;
    i64 *ct;
    wcp_section *secs;
    i64 nsec, capsec;
} wcp_thread;

typedef struct { i64 *acq, *rel; i64 epoch; int owner, pad; } wcp_entry;
typedef struct { i64 cur; int tid, pad; } wcp_cursor;
typedef struct {
    int created, local, holder, open_tid, blocker, pad;
    i64 open_idx;
    wcp_entry *log;
    i64 head, len, cap, base;
    wcp_cursor *cursors;
    i64 ncur, capcur;
    i64 *pl, *hl;
    wcp_idset releasers;
} wcp_lock;

typedef struct { i64 *clk; int tid, pad; } wcp_bt;
typedef struct { i64 ver; int tid, pad; } wcp_seen;

typedef struct {
    int lock, var, kind, top_tid, second_tid, pad;
    i64 version;
    wcp_bt *bt;
    i64 nbt, capbt;
    wcp_seen *seen;
    i64 nseen, capseen;
} wcp_cell;

typedef struct {
    int created, local, r_tid, w_tid, r_fast, w_fast, rj_owned, wj_owned;
    i64 r_time, w_time;
    i64 *rj, *wj;
    int *lists[2];
    i64 nlists[2], caplists[2];
} wcp_var;

typedef struct { int var, kind, tid, head, tail, pad; i64 count; } wcp_tlist;

typedef struct { i64 index, loc, rank; i64 *clk; int prev, next; } wcp_hcell;

typedef struct {
    int prune, pad;
    wcp_thread *th;
    i64 nth, capth;
    int *order;
    i64 norder, caporder;
    wcp_lock *locks;
    i64 nlocks, caplocks;
    int *lock_order;
    i64 nlock_order, caplock_order;
    wcp_var *vars;
    i64 nvars, capvars;
    int *var_order;
    i64 nvar_order, capvar_order;
    wcp_cell *cells;
    i64 ncells, capcells;
    wcp_tlist *tlists;
    i64 ntl, captl;
    wcp_hcell *hcells;
    i64 nhc, caphc;
    wcp_map cellmap, tlmap, hcmap, curmap;
    void *locs;
    i64 *loc_spans;
    i64 nlocs, caplocs;
    i64 queue_total, max_queue_total;
    i64 *races;
    i64 nraces, capraces;
    int *scratch;
    i64 capscratch;
} wcp_state;

void *wcp_new(int prune) {
    wcp_state *st = calloc(1, sizeof *st);
    if (st == NULL) return NULL;
    st->prune = prune;
    st->locs = std_heads_new();
    if (st->locs == NULL) { free(st); return NULL; }
    return st;
}

void wcp_free(void *handle) {
    wcp_state *st = handle;
    if (st == NULL) return;
    for (i64 t = 0; t < st->nth; t++) {
        wcp_thread *T = &st->th[t];
        free(T->p.t);
        free(T->h.t);
        fc_drop(T->ct);
        for (i64 k = 0; k < T->capsec; k++) {
            ids_free(&T->secs[k].reads);
            ids_free(&T->secs[k].writes);
        }
        free(T->secs);
    }
    free(st->th);
    free(st->order);
    for (i64 l = 0; l < st->nlocks; l++) {
        wcp_lock *L = &st->locks[l];
        for (i64 k = 0; k < L->len; k++) {
            wcp_entry *e = &L->log[(L->head + k) & (L->cap - 1)];
            fc_drop(e->acq);
            fc_drop(e->rel);
        }
        free(L->log);
        free(L->cursors);
        fc_drop(L->pl);
        fc_drop(L->hl);
        ids_free(&L->releasers);
    }
    free(st->locks);
    free(st->lock_order);
    for (i64 v = 0; v < st->nvars; v++) {
        wcp_var *V = &st->vars[v];
        fc_drop(V->rj);
        fc_drop(V->wj);
        free(V->lists[0]);
        free(V->lists[1]);
    }
    free(st->vars);
    free(st->var_order);
    for (i64 c = 0; c < st->ncells; c++) {
        wcp_cell *C = &st->cells[c];
        for (i64 k = 0; k < C->nbt; k++) fc_drop(C->bt[k].clk);
        free(C->bt);
        free(C->seen);
    }
    free(st->cells);
    free(st->tlists);
    for (i64 c = 0; c < st->nhc; c++) fc_drop(st->hcells[c].clk);
    free(st->hcells);
    free(st->cellmap.slots);
    free(st->tlmap.slots);
    free(st->hcmap.slots);
    free(st->curmap.slots);
    std_heads_free(st->locs);
    free(st->loc_spans);
    free(st->races);
    free(st->scratch);
    free(st);
}

int wcp_add_lock(void *handle, int local) {
    /* A new lock id (-1: no memory); census locks pass created. */
    wcp_state *st = handle;
    if (GROW(st->locks, st->caplocks, st->nlocks + 1)) return -1;
    wcp_lock *L = &st->locks[st->nlocks];
    L->local = local;
    L->holder = -1;
    L->open_tid = -1;
    L->blocker = -1;
    return (int)st->nlocks++;
}

static int lock_create(wcp_state *st, wcp_lock *L) {
    if (L->created) return 0;
    if (GROW(st->lock_order, st->caplock_order, st->nlock_order + 1))
        return -1;
    st->lock_order[st->nlock_order++] = (int)(L - st->locks);
    L->created = 1;
    return 0;
}

int wcp_census_lock(void *handle, int lock, int tid) {
    /* Create a censused lock; tid >= 0 adds a releaser. */
    wcp_state *st = handle;
    if (lock < 0 || lock >= st->nlocks) return -2;
    wcp_lock *L = &st->locks[lock];
    if (lock_create(st, L)) return -1;
    if (tid >= 0 && ids_add(&L->releasers, tid)) return -1;
    return 0;
}

int wcp_add_var(void *handle, int local) {
    wcp_state *st = handle;
    if (GROW(st->vars, st->capvars, st->nvars + 1)) return -1;
    wcp_var *V = &st->vars[st->nvars];
    V->local = local;
    V->r_tid = -1;
    V->w_tid = -1;
    return (int)st->nvars++;
}

static int loc_add(wcp_state *st, const char *key, i64 n) {
    std_heads *t = st->locs;
    int id = (int)st->nlocs;
    if (GROW(st->loc_spans, st->caplocs, 2 * (st->nlocs + 1))) return -1;
    if (std_heads_put(t, key, n, id, 0)) return -1;
    const std_slot *s = std_find(t, (const unsigned char *)key, n,
                                 std_hash((const unsigned char *)key, n));
    st->loc_spans[2 * id] = s->key;
    st->loc_spans[2 * id + 1] = n;
    st->nlocs++;
    return id;
}

static int loc_intern(wcp_state *st, const char *key, i64 n) {
    const unsigned char *k = (const unsigned char *)key;
    const std_slot *s = std_find(st->locs, k, n, std_hash(k, n));
    if (s->used) return s->tid;
    return loc_add(st, key, n);
}

int wcp_loc_put(void *handle, const char *key, long long n) {
    /* The id of a UTF-8 location (-1: no memory). */
    return loc_intern(handle, key, n);
}

long long wcp_loc_get(void *handle, int id, const char **key) {
    wcp_state *st = handle;
    if (id < 0 || id >= st->nlocs) return -1;
    *key = ((std_heads *)st->locs)->arena + st->loc_spans[2 * id];
    return st->loc_spans[2 * id + 1];
}

static wcp_thread *thread_at(wcp_state *st, int tid) {
    if (tid >= st->nth) {
        if (GROW(st->th, st->capth, (i64)tid + 1)) return NULL;
        st->nth = (i64)tid + 1;
    }
    wcp_thread *T = &st->th[tid];
    if (T->nt == 0) {
        if (GROW(st->order, st->caporder, st->norder + 1)) return NULL;
        T->p.n = 0;
        T->h.n = 0;
        if (mc_assign(&T->h, tid, 1)) return NULL;
        T->nt = 1;
        T->prev = 0;
        fc_drop(T->ct);
        T->ct = NULL;
        T->nsec = 0;
        st->order[st->norder++] = tid;
    }
    return T;
}

int wcp_thread_init(void *handle, int tid) {
    if (tid < 0) return -2;
    return thread_at(handle, tid) == NULL ? -1 : 0;
}

static i64 *ct_get(wcp_state *st, int tid) {
    /* The cached frozen C_t = P_t[t := N_t]. */
    wcp_thread *T = &st->th[tid];
    if (T->ct == NULL) {
        i64 n = T->p.n > tid ? T->p.n : (i64)tid + 1;
        i64 *c = fc_new(n);
        if (c == NULL) return NULL;
        memcpy(c + 2, T->p.t, sizeof(i64) * (size_t)T->p.n);
        memset(c + 2 + T->p.n, 0, sizeof(i64) * (size_t)(n - T->p.n));
        c[2 + tid] = T->nt;
        T->ct = c;
    }
    return T->ct;
}

long long *wcp_ct(void *handle, int tid) {
    /* C_t of an initialised thread (NULL: no memory or no such thread). */
    wcp_state *st = handle;
    if (tid < 0 || tid >= st->nth || st->th[tid].nt == 0) return NULL;
    return ct_get(st, tid);
}

static void ct_drop(wcp_thread *T) {
    fc_drop(T->ct);
    T->ct = NULL;
}

static int merge_p(wcp_state *st, int tid, const i64 *c) {
    /* P_t joins c; the cached C_t goes when P_t grew. */
    wcp_thread *T = &st->th[tid];
    int changed = mc_merge(&T->p, FC_T(c), FC_N(c));
    if (changed > 0) ct_drop(T);
    return changed;
}

static i64 *cursor_slot(wcp_state *st, int lock, int tid, int create) {
    wcp_lock *L = &st->locks[lock];
    int k = map_get(&st->curmap, lock, tid);
    if (k >= 0) return &L->cursors[k].cur;
    if (!create) return NULL;
    if (GROW(L->cursors, L->capcur, L->ncur + 1)) return NULL;
    if (map_put(&st->curmap, lock, tid, (int)L->ncur)) return NULL;
    L->cursors[L->ncur].tid = tid;
    L->cursors[L->ncur].cur = 0;
    return &L->cursors[L->ncur++].cur;
}

static i64 cursor_of(wcp_state *st, int lock, int tid) {
    i64 *c = cursor_slot(st, lock, tid, 0);
    return c == NULL ? 0 : *c;
}

#define LOG_AT(L, k) (&(L)->log[((L)->head + (k)) & ((L)->cap - 1)])

static void queue_bump(wcp_state *st, wcp_lock *L, int tid) {
    /* Pseudocode queue occupancy: one entry per other-thread queue. */
    i64 delta;
    if (st->prune)
        delta = L->releasers.n - ids_has(&L->releasers, tid);
    else
        delta = st->norder - 1;
    st->queue_total += delta;
    if (st->queue_total > st->max_queue_total)
        st->max_queue_total = st->queue_total;
}

static int wcp_acquire(wcp_state *st, int lock, int tid) {
    wcp_lock *L = &st->locks[lock];
    if (lock_create(st, L)) return -1;
    if (L->local) return 0;
    wcp_thread *T = &st->th[tid];
    L->holder = tid;
    if (L->hl != NULL && mc_merge(&T->h, FC_T(L->hl), FC_N(L->hl)) < 0)
        return -1;
    if (L->pl != NULL && merge_p(st, tid, L->pl) < 0) return -1;
    i64 *ct = ct_get(st, tid);
    if (ct == NULL) return -1;
    if (L->len == L->cap) {
        i64 cap = L->cap ? L->cap * 2 : 16;
        wcp_entry *log = malloc(sizeof(wcp_entry) * (size_t)cap);
        if (log == NULL) return -1;
        for (i64 k = 0; k < L->len; k++) log[k] = *LOG_AT(L, k);
        free(L->log);
        L->log = log;
        L->head = 0;
        L->cap = cap;
    }
    L->open_tid = tid;
    L->open_idx = L->base + L->len;
    wcp_entry *e = LOG_AT(L, L->len);
    e->acq = fc_ref(ct);
    e->rel = NULL;
    e->owner = tid;
    e->epoch = T->nt;
    L->len++;
    queue_bump(st, L, tid);
    if (GROW(T->secs, T->capsec, T->nsec + 1)) return -1;
    T->secs[T->nsec++].lock = lock;
    return 0;
}

static void log_pop(wcp_lock *L) {
    wcp_entry *e = LOG_AT(L, 0);
    fc_drop(e->acq);
    fc_drop(e->rel);
    L->head = (L->head + 1) & (L->cap - 1);
    L->len--;
    L->base++;
}

static void reclaim(wcp_state *st, int lock) {
    wcp_lock *L = &st->locks[lock];
    if (!L->len || LOG_AT(L, 0)->rel == NULL) return;
    i64 base = L->base;
    int blocker = L->blocker;
    if (blocker >= 0 && blocker != LOG_AT(L, 0)->owner
            && cursor_of(st, lock, blocker) <= base)
        return;
    i64 min1 = 0, min2 = 0;
    int arg1 = -1, arg2 = -1;
    for (i64 k = 0; k < L->releasers.n; k++) {
        int consumer = L->releasers.items[k];
        i64 c = cursor_of(st, lock, consumer);
        if (arg1 < 0 || c < min1) {
            min2 = min1; arg2 = arg1; min1 = c; arg1 = consumer;
        } else if (arg2 < 0 || c < min2) {
            min2 = c; arg2 = consumer;
        }
    }
    while (L->len) {
        wcp_entry *e = LOG_AT(L, 0);
        if (e->rel == NULL) break;
        i64 bound = e->owner == arg1 ? min2 : min1;
        int holder = e->owner == arg1 ? arg2 : arg1;
        if (holder >= 0 && bound <= L->base) {
            L->blocker = holder;
            break;
        }
        log_pop(L);
    }
}

static int cell_at(wcp_state *st, int lock, int var, int kind, int create) {
    int c = map_get(&st->cellmap, lock, 2 * (i64)var + kind);
    if (c >= 0 || !create) return c;
    if (GROW(st->cells, st->capcells, st->ncells + 1)) return -2;
    c = (int)st->ncells;
    if (map_put(&st->cellmap, lock, 2 * (i64)var + kind, c)) return -2;
    wcp_cell *C = &st->cells[c];
    C->lock = lock;
    C->var = var;
    C->kind = kind;
    C->top_tid = -1;
    C->second_tid = -1;
    st->ncells++;
    return c;
}

static int publish(wcp_state *st, int lock, const wcp_idset *vars, int kind,
                   int tid, i64 *snap) {
    /* Lines 7-8: the release's HB time becomes tid's entry of each cell. */
    for (i64 k = 0; k < vars->n; k++) {
        int c = cell_at(st, lock, vars->items[k], kind, 1);
        if (c < 0) return -1;
        wcp_cell *C = &st->cells[c];
        i64 b = 0;
        while (b < C->nbt && C->bt[b].tid != tid) b++;
        if (b == C->nbt) {
            if (GROW(C->bt, C->capbt, C->nbt + 1)) return -1;
            C->bt[b].tid = tid;
            C->bt[b].clk = NULL;
            C->nbt++;
        }
        fc_drop(C->bt[b].clk);
        C->bt[b].clk = fc_ref(snap);
        if (C->top_tid != tid) {
            C->second_tid = C->top_tid;
            C->top_tid = tid;
        }
        C->version++;
    }
    return 0;
}

static i64 *bt_get(const wcp_cell *C, int tid) {
    for (i64 b = 0; b < C->nbt; b++)
        if (C->bt[b].tid == tid) return C->bt[b].clk;
    return NULL;
}

static int wcp_release(wcp_state *st, int lock, int tid) {
    wcp_lock *L = &st->locks[lock];
    if (lock_create(st, L)) return -1;
    if (L->local) return 0;
    wcp_thread *T = &st->th[tid];
    L->holder = -1;
    /* Lines 4-6: Rule (b) from this thread's cursor into the log (a
     * cursor behind the base skips entries pruning proved unreadable). */
    i64 cursor = cursor_of(st, lock, tid);
    if (cursor < L->base) cursor = L->base;
    if (cursor - L->base < L->len) {
        i64 *ct = ct_get(st, tid);
        if (ct == NULL) return -1;
        i64 *pending = NULL, consumed = 0;
        for (i64 k = cursor - L->base; k < L->len; k++) {
            wcp_entry *e = LOG_AT(L, k);
            if (e->owner == tid) { cursor++; continue; }
            if (!(e->epoch <= fc_at(ct, e->owner))) {
                if (pending == NULL) break;
                int grew = merge_p(st, tid, pending);
                if (grew < 0) return -1;
                if (grew && (ct = ct_get(st, tid)) == NULL) return -1;
                pending = NULL;
                if (!(e->epoch <= fc_at(ct, e->owner))) break;
            }
            if (e->rel == NULL) break;
            pending = e->rel;
            consumed++;
            cursor++;
        }
        if (pending != NULL && merge_p(st, tid, pending) < 0) return -1;
        st->queue_total -= 2 * consumed;
    }
    i64 *slot = cursor_slot(st, lock, tid, 1);
    if (slot == NULL) return -1;
    *slot = cursor;

    /* Close the critical section (innermost match, as in Python). */
    i64 k = T->nsec - 1;
    while (k >= 0 && T->secs[k].lock != lock) k--;
    i64 *snap = mc_freeze(&T->h);
    if (snap == NULL) return -1;
    int failed = 0;
    if (k >= 0) {
        failed = publish(st, lock, &T->secs[k].reads, 0, tid, snap)
                 || publish(st, lock, &T->secs[k].writes, 1, tid, snap);
        wcp_section closed = T->secs[k];
        memmove(&T->secs[k], &T->secs[k + 1],
                sizeof(wcp_section) * (size_t)(T->nsec - 1 - k));
        ids_clear(&closed.reads);
        ids_clear(&closed.writes);
        T->secs[--T->nsec] = closed;
    }
    /* Lines 9-10: the per-lock clocks and the log entry's release time. */
    fc_drop(L->hl);
    L->hl = fc_ref(snap);
    fc_drop(L->pl);
    L->pl = mc_freeze(&T->p);
    if (L->open_tid == tid) {
        if (L->open_idx >= L->base) {
            wcp_entry *e = LOG_AT(L, L->open_idx - L->base);
            fc_drop(e->rel);
            e->rel = fc_ref(snap);
        }
        L->open_tid = -1;
    }
    fc_drop(snap);
    if (failed || L->pl == NULL) return -1;
    queue_bump(st, L, tid);
    if (st->prune) reclaim(st, lock);
    return 0;
}

static int rule_a(wcp_state *st, int lock, int var, int kind, int tid) {
    /* Join the relevant release time of one Rule (a) cell into P_t
     * (the chain fast path; the kernel never runs a tainted lock). */
    int c = cell_at(st, lock, var, kind, 0);
    if (c < 0) return 0;
    wcp_cell *C = &st->cells[c];
    i64 s = 0;
    while (s < C->nseen && C->seen[s].tid != tid) s++;
    if (s < C->nseen && C->seen[s].ver == C->version) return 0;
    int other = C->top_tid != tid ? C->top_tid : C->second_tid;
    i64 *relevant = other >= 0 ? bt_get(C, other) : NULL;
    if (relevant != NULL && merge_p(st, tid, relevant) < 0) return -1;
    if (s == C->nseen) {
        if (GROW(C->seen, C->capseen, C->nseen + 1)) return -1;
        C->seen[s].tid = tid;
        C->nseen++;
    }
    C->seen[s].ver = C->version;
    return 0;
}

static int race_out(wcp_state *st, i64 row, const wcp_hcell *h, int tid,
                    int kind) {
    if (GROW(st->races, st->capraces, 5 * (st->nraces + 1))) return -1;
    i64 *r = &st->races[5 * st->nraces++];
    r[0] = row;
    r[1] = h->index;
    r[2] = tid;
    r[3] = kind;
    r[4] = h->loc;
    return 0;
}

static int unordered(wcp_state *st, const wcp_var *V, int kind, int tid,
                     const i64 *clock, i64 row) {
    /* Race attribution: per thread, newest first, up to the first
     * ordered cell; reported in first-access (rank) order. */
    for (i64 l = 0; l < V->nlists[kind]; l++) {
        const wcp_tlist *tl = &st->tlists[V->lists[kind][l]];
        if (tl->tid == tid) continue;
        i64 n = 0;
        for (int c = tl->tail; c >= 0; c = st->hcells[c].prev) {
            if (fc_leq(st->hcells[c].clk, clock)) break;
            if (GROW(st->scratch, st->capscratch, n + 1)) return -1;
            st->scratch[n++] = c;
        }
        for (i64 a = 1; a < n; a++) {
            int c = st->scratch[a];
            i64 b = a - 1;
            while (b >= 0 && st->hcells[st->scratch[b]].rank
                             > st->hcells[c].rank) {
                st->scratch[b + 1] = st->scratch[b];
                b--;
            }
            st->scratch[b + 1] = c;
        }
        for (i64 a = 0; a < n; a++)
            if (race_out(st, row, &st->hcells[st->scratch[a]], tl->tid, kind))
                return -1;
    }
    return 0;
}

static int record(wcp_state *st, int var, int kind, int tid, i64 index,
                  i64 loc, i64 *clock) {
    /* Re-insert the (thread, location) cell at the newest end. */
    wcp_var *V = &st->vars[var];
    i64 key = 2 * (i64)tid + kind;
    int t = map_get(&st->tlmap, var, key);
    if (t < 0) {
        if (GROW(st->tlists, st->captl, st->ntl + 1)) return -1;
        if (GROW(V->lists[kind], V->caplists[kind], V->nlists[kind] + 1))
            return -1;
        t = (int)st->ntl;
        if (map_put(&st->tlmap, var, key, t)) return -1;
        wcp_tlist *tl = &st->tlists[t];
        tl->var = var;
        tl->kind = kind;
        tl->tid = tid;
        tl->head = tl->tail = -1;
        tl->count = 0;
        st->ntl++;
        V->lists[kind][V->nlists[kind]++] = t;
    }
    wcp_tlist *tl = &st->tlists[t];
    int c = map_get(&st->hcmap, t, loc);
    if (c < 0) {
        if (GROW(st->hcells, st->caphc, st->nhc + 1)) return -1;
        c = (int)st->nhc;
        if (map_put(&st->hcmap, t, loc, c)) return -1;
        st->nhc++;
        st->hcells[c].loc = loc;
        st->hcells[c].rank = tl->count++;
        st->hcells[c].clk = NULL;
    } else if (tl->tail != c) {
        wcp_hcell *h = &st->hcells[c];
        if (h->prev >= 0) st->hcells[h->prev].next = h->next;
        else tl->head = h->next;
        st->hcells[h->next].prev = h->prev;
    } else {
        wcp_hcell *h = &st->hcells[c];
        fc_drop(h->clk);
        h->clk = fc_ref(clock);
        h->index = index;
        return 0;
    }
    wcp_hcell *h = &st->hcells[c];
    fc_drop(h->clk);
    h->clk = fc_ref(clock);
    h->index = index;
    h->next = -1;
    h->prev = tl->tail;
    if (tl->tail >= 0) st->hcells[tl->tail].next = c;
    else tl->head = c;
    tl->tail = c;
    return 0;
}

static int join_into(i64 **join, int *owned, const i64 *clock) {
    if (!*owned) {
        i64 *copy = fc_copy(*join);
        if (copy == NULL) return -1;
        fc_drop(*join);
        *join = copy;
        *owned = 1;
    }
    return fc_join(join, FC_T(clock), FC_N(clock));
}

static int observe(wcp_state *st, int var, int kind, int tid, i64 index,
                   i64 loc, i64 *C, i64 row) {
    /* AccessHistory.observe_read / observe_write, fused. */
    wcp_var *V = &st->vars[var];
    if (!V->created) {
        if (GROW(st->var_order, st->capvar_order, st->nvar_order + 1))
            return -1;
        st->var_order[st->nvar_order++] = var;
        V->created = 1;
    }
    int w_ord = V->w_fast ? V->w_time <= fc_at(C, V->w_tid)
                          : V->wj == NULL || fc_leq(V->wj, C);
    int r_ord = V->r_fast ? V->r_time <= fc_at(C, V->r_tid)
                          : V->rj == NULL || fc_leq(V->rj, C);
    i64 time = fc_at(C, tid);
    if (kind == 0) {
        if (!w_ord && unordered(st, V, 1, tid, C, row)) return -1;
        if (r_ord) {
            fc_drop(V->rj);
            V->rj = fc_ref(C);
            V->rj_owned = 0;
            V->r_tid = tid;
            V->r_time = time;
            V->r_fast = time > 0;
        } else {
            if (join_into(&V->rj, &V->rj_owned, C)) return -1;
            V->r_fast = 0;
        }
    } else {
        if (!w_ord && unordered(st, V, 1, tid, C, row)) return -1;
        if (!r_ord && unordered(st, V, 0, tid, C, row)) return -1;
        if (w_ord) {
            fc_drop(V->wj);
            V->wj = fc_ref(C);
            V->wj_owned = 0;
            V->w_tid = tid;
            V->w_time = time;
            V->w_fast = time > 0;
        } else {
            if (join_into(&V->wj, &V->wj_owned, C)) return -1;
            V->w_fast = 0;
        }
    }
    return record(st, var, kind, tid, index, loc, C);
}

static int wcp_access(wcp_state *st, int var, int kind, int tid, i64 index,
                  i64 loc, i64 row) {
    wcp_thread *T = &st->th[tid];
    /* Lines 11-12: Rule (a) under every open section, which also notes
     * the access in each. */
    for (i64 k = 0; k < T->nsec; k++) {
        wcp_section *S = &T->secs[k];
        if (kind == 0) {
            if (rule_a(st, S->lock, var, 1, tid)) return -1;
            if (ids_add(&S->reads, var)) return -1;
        } else {
            if (rule_a(st, S->lock, var, 0, tid)
                    || rule_a(st, S->lock, var, 1, tid))
                return -1;
            if (ids_add(&S->writes, var)) return -1;
        }
    }
    i64 *C = ct_get(st, tid);
    if (C == NULL) return -1;
    return observe(st, var, kind, tid, index, loc, C, row);
}

static int fork_join(wcp_state *st, int tid, int child, int is_join) {
    if (thread_at(st, child) == NULL) return -1;
    wcp_thread *T = &st->th[tid], *K = &st->th[child];
    if (!is_join) {
        i64 *c = ct_get(st, tid);
        if (c == NULL || merge_p(st, child, c) < 0) return -1;
        if (mc_merge(&K->h, T->h.t, T->h.n) < 0) return -1;
        if (mc_assign(&K->h, child, K->nt)) return -1;
        T->prev = 1;
    } else {
        i64 *c = ct_get(st, child);
        if (c == NULL || merge_p(st, tid, c) < 0) return -1;
        if (mc_merge(&T->h, K->h.t, K->h.n) < 0) return -1;
        if (mc_assign(&T->h, tid, T->nt)) return -1;
        K->prev = 1;
    }
    return 0;
}

long long wcp_first_stop(const int *ops, long long n,
                         const unsigned char *kinds, long long n_ops) {
    /* The first row whose kind the kernel does not run (n: none). */
    for (long long j = 0; j < n; j++)
        if (ops[j] < 0 || ops[j] >= n_ops || kinds[ops[j]] >= 7) return j;
    return n;
}

long long wcp_run(void *handle, const int *tids, const int *ops, long long n,
                  const unsigned char *kinds, const int *targets,
                  long long n_ops, long long n_threads,
                  const char *data, long long n_data,
                  const long long *starts, const long long *ends,
                  const int *decoded,
                  long long n_decoded, const int *loc_ids,
                  const long long *indices, long long start,
                  long long *out) {
    /* Run rows [0, n).  Returns the number of rows done; out[0] says why
     * it stopped: 0 all done, 1 the row needs the Python detector (a
     * rare kind, or a lock it would taint), 2 a fork/join target is not
     * interned yet, 3 the row's location is a string not interned yet,
     * -1 no memory, -2 an id out of range.  out[1] counts thread-local
     * accesses.  Each access row's location is span [starts, ends) of
     * data, where a negative start names the string decoded[~start]
     * (an id, -1 none, -2 not interned), else loc_ids[row] (-1: none). */
    wcp_state *st = handle;
    i64 j = 0, local = 0;
    int reason = 0;
    for (; j < n; j++) {
        int tid = tids[j], op = ops[j];
        if (op < 0 || op >= n_ops || tid < 0 || tid >= n_threads) {
            reason = -2;
            break;
        }
        int kind = kinds[op], target = targets[op];
        if (kind >= 7) { reason = 1; break; }
        if (kind == 2 || kind == 3) {
            if (target < 0 || target >= st->nlocks) { reason = -2; break; }
            const wcp_lock *L = &st->locks[target];
            if (!L->local && (kind == 2 ? L->holder >= 0 : L->holder != tid)) {
                reason = 1;
                break;
            }
        } else if (kind == 4 || kind == 5) {
            if (target < 0) { reason = 2; break; }
            if (target >= n_threads) { reason = -2; break; }
        } else if (kind < 2 && (target < 0 || target >= st->nvars)) {
            reason = -2;
            break;
        }
        i64 index = indices != NULL ? indices[j] : start + j, loc = 0;
        if (kind < 2 && !st->vars[target].local) {
            /* The access reaches the history: key its location. */
            loc = -(index + 1);
            if (loc_ids != NULL) {
                if (loc_ids[j] >= 0) loc = loc_ids[j];
            } else if (starts[j] < 0) {
                i64 d = ~starts[j];
                if (d >= n_decoded) { reason = -2; break; }
                if (decoded[d] == -2) { reason = 3; break; }
                if (decoded[d] >= 0) loc = decoded[d];
            } else if (ends[j] > starts[j]) {
                if (ends[j] > n_data) { reason = -2; break; }
                loc = loc_intern(st, data + starts[j], ends[j] - starts[j]);
                if (loc < 0) { reason = -1; break; }
            }
        }
        /* The prologue: initialise, then the deferred N_t bump. */
        wcp_thread *T = thread_at(st, tid);
        if (T == NULL) { reason = -1; break; }
        if (T->prev) {
            T->nt++;
            if (mc_assign(&T->h, tid, T->nt)) { reason = -1; break; }
            ct_drop(T);
            T->prev = 0;
        }
        int failed = 0;
        if (kind < 2) {
            if (st->vars[target].local) { local++; continue; }
            failed = wcp_access(st, target, kind, tid, index, loc, j);
        } else if (kind == 2) {
            failed = wcp_acquire(st, target, tid);
        } else if (kind == 3) {
            failed = wcp_release(st, target, tid);
            T = &st->th[tid];
            T->prev = 1;
        } else if (kind < 6) {
            failed = fork_join(st, tid, target, kind == 5);
        }
        if (failed) { reason = -1; break; }
    }
    out[0] = reason;
    out[1] = local;
    return j;
}
"""

#: Resolved backend: "cffi" (compiled kernels active) or "python".
BACKEND = "python"

#: Why the python fallback was chosen (None while the kernels are active).
FALLBACK_REASON: Optional[str] = None

#: cffi handles, bound by the compiled paths in cffi mode; None otherwise.
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
        (_CDEF + _WCP_CDEF + _C_SOURCE + _WCP_SOURCE).encode("utf-8")
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
        builder.cdef(_CDEF + _WCP_CDEF)
        builder.set_source(name, _C_SOURCE + _WCP_SOURCE)
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
        return "cffi (compiled STD decode, lock-check and WCP kernels)"
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
