"""Compiled kernels (cffi fast path with a governed fallback).

One C module holds every loop the library compiles:

* **STD decode.**  ``std_scan`` walks ``\\n``-terminated ASCII lines of
  a byte buffer and writes each line's tid, op id and location span.  A
  line whose ``thread|op(arg)`` head it has seen costs one hash lookup;
  the head of any other three-field line it parses itself
  (``std_new_head``: the op field by ``_OP_PATTERN``'s grammar, the
  token in a table of every wire token), giving out tids and op ids
  from mirrors of the thread registry and of
  :attr:`OpTable.ids <repro.trace.columns.OpTable>` (``std_dec``) and
  recording what it interned for the caller to append; it skips
  comments and blanks.  It stops at the first line it cannot take (a
  non-ASCII byte, two or four-plus fields, a head the Python decoder
  would refuse) and says where the run of such lines ends (which lines
  it takes depends on their bytes alone);
  :class:`~repro.trace.parsers.StdDecoder` hands that run to the Python
  decoder and resumes after it.
* **WCP.**  ``wcp_run`` is Algorithm 1 over a block's tid/op columns:
  the deferred ``N_t`` bump, acquire/release with the Rule (b) log walk
  and both reclamation modes (pruned by the releaser census, or none
  without a census), Rule (a) cells, fork/join, rwlock read and write
  sections, barrier generations, wait/notify, census elision and the
  access history's race attribution, in state (``wcp_state``) that
  mirrors :class:`~repro.core.wcp.WCPDetector`'s field for field.  It
  de-duplicates races by location-id pair as it finds them: one slot
  per new pair with its first witness and largest distance, plus a raw
  count.
  :mod:`repro.core.wcp_compiled` drives it and transcribes the state
  back; it returns before a row that would taint a lock, which the
  Python detector takes.  Its HB mode (``wcp_new(prune, 1)``) keeps only
  HB's clocks (``N_t``, ``H_t``, ``H_l``, the read-release and notify
  clocks, the barrier generations) and checks accesses against a frozen
  ``H_t``: that is :class:`~repro.hb.hb.HBDetector`, which runs on the
  same core.
* **Lock discipline.**  ``lv_run`` checks a block's tid/op columns
  against the state of one validated stream (``lv_state``): per thread
  the stack of open sections, from which each lock's holder and
  read-mode holder count are derived, for every lock role (``acq`` and
  ``wait``, ``rel``, ``racq_r``, ``racq_w``, ``rrel``).  The state
  carries across blocks.  It stops at the first row
  :class:`~repro.trace.semantics.LockDiscipline` would refuse, and
  :class:`~repro.trace.lockcheck.OnlineValidator` hands that row to
  ``LockDiscipline``, which raises the error.  ``Trace(validate=True)``
  runs it on a fresh state, the streaming paths on one state block by
  block.

Vector clocks outside the WCP kernel are not compiled: at the clock
widths traces reach (at most 14 threads in the paper's benchmark
traces) one cffi call costs more than the loop it would run, so
:class:`~repro.vectorclock.dense.DenseClock` keeps its list store under
every backend.

The Python implementations stay the specification:
:func:`~repro.trace.parsers.parse_std_batch`,
``LockDiscipline``, ``WCPDetector.process_batch`` and
``HBDetector.process_batch``.  Backend
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
/ ``lib`` pair the STD decoder, the lock check and the WCP detector bind
to.
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
int std_heads_put(void *heads, const char *key, long long n,
                  int tid, int op);
typedef struct {
    int *tids, *ops;
    long long *starts, *ends;
    long long rows, cap, lines, stop_end;
    long long *fresh;
    long long nfresh, capfresh;
    int next_tid, next_op;
    ...;
} std_dec;
std_dec *std_new(void *tokens);
void std_free(std_dec *dec);
int std_thread(std_dec *dec, const char *name, long long n, int tid);
int std_opkey(std_dec *dec, const char *key, long long n, int op);
long long std_scan(std_dec *dec, const char *text, long long pos,
                   long long end);
int std_push(std_dec *dec, int tid, int op, long long start, long long end);
void std_release(std_dec *dec);
typedef struct { long long index; int lock, mode; } lv_section;
typedef struct { lv_section *secs; long long n, cap; } lv_stack;
typedef struct { int holder, readers; } lv_lock;
typedef struct { long long index; int tid, lock, mode; } lv_mark;
typedef struct {
    lv_stack *threads;
    long long nthreads;
    lv_lock *locks;
    long long nlocks, open;
    lv_mark *marks;
    long long nmarks, capmarks;
} lv_state;
void *lv_new(void);
void lv_free(void *handle);
int lv_reserve(void *handle, long long threads, long long locks);
int lv_open(void *handle, int tid, int lock, int mode, long long index);
int lv_mark_now(void *handle);
int lv_from_mark(void *handle, const void *source);
long long lv_run(void *handle, const int *tids, const int *ops, long long n,
                 const int *threads, long long n_tids,
                 const unsigned char *roles, const int *locks,
                 long long n_ops, long long start);
"""

_C_SOURCE = r"""
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* STD decode: the line scanner, its head parser and their tables.     */
/* ------------------------------------------------------------------ */

/* A byte-string hash table: each key maps to two ints (tid, op).  Open
 * addressing with linear probing; keys live in one growing arena.  The
 * decoder keeps four: known line heads, thread names, op keys and the
 * event tokens; the WCP kernel interns locations in one. */
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

static std_heads *std_heads_sized(long long slots) {
    std_heads *t = calloc(1, sizeof *t);
    if (t == NULL) return NULL;
    t->mask = slots - 1;
    t->slots = calloc((size_t)slots, sizeof(std_slot));
    if (t->slots == NULL) { free(t); return NULL; }
    return t;
}

void *std_heads_new(void) {
    return std_heads_sized(1024);
}

void std_heads_free(void *heads) {
    std_heads *t = heads;
    if (t == NULL) return;
    free(t->slots);
    free(t->arena);
    free(t);
}

static int std_insert(std_heads *t, const unsigned char *k, long long n,
                      unsigned long long h, int tid, int op) {
    /* Insert or update; returns 0, or -1 when out of memory. */
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

int std_heads_put(void *heads, const char *key, long long n,
                  int tid, int op) {
    const unsigned char *k = (const unsigned char *)key;
    return std_insert(heads, k, n, std_hash(k, n), tid, op);
}

/* One decoding stream.  The rows of the current call are tids, ops and
 * the location spans (starts, ends), rows of cap; lines counts the lines
 * the scan took, comments and blanks included.  threads mirrors the
 * caller's thread registry (stripped name -> tid) and opkeys its op
 * table's keys (raw and stripped "op(arg)" fields -> op id); next_tid
 * and next_op are the ids they give out next.  fresh holds, for the
 * caller to copy, what the scan interned, four values each in order:
 * (0, name start, name end, tid), (1, operand start, operand end, kind)
 * for a new op, (2, key start, key end, op id) for a new op key. */
typedef struct {
    int *tids, *ops;
    long long *starts, *ends;
    long long rows, cap, lines, stop_end;
    long long *fresh;
    long long nfresh, capfresh;
    int next_tid, next_op;
    std_heads *heads, *threads, *opkeys;
    /* lower-case token -> (kind, 1 when the kind needs an operand); one
     * table per process, shared by every decoder */
    const std_heads *tokens;
} std_dec;

void std_release(std_dec *dec) {
    /* Free the rows of the last call. */
    free(dec->tids);
    free(dec->ops);
    free(dec->starts);
    free(dec->ends);
    dec->tids = dec->ops = NULL;
    dec->starts = dec->ends = NULL;
    dec->rows = dec->cap = 0;
}

void std_free(std_dec *dec) {
    if (dec == NULL) return;
    std_release(dec);
    free(dec->fresh);
    std_heads_free(dec->heads);
    std_heads_free(dec->threads);
    std_heads_free(dec->opkeys);
    free(dec);
}

std_dec *std_new(void *tokens) {
    std_dec *dec = calloc(1, sizeof *dec);
    if (dec == NULL) return NULL;
    dec->tokens = tokens;
    dec->heads = std_heads_sized(256);
    dec->threads = std_heads_sized(64);
    dec->opkeys = std_heads_sized(256);
    if (!dec->heads || !dec->threads || !dec->opkeys) {
        std_free(dec);
        return NULL;
    }
    return dec;
}

int std_thread(std_dec *dec, const char *name, long long n, int tid) {
    return std_heads_put(dec->threads, name, n, tid, 0);
}

int std_opkey(std_dec *dec, const char *key, long long n, int op) {
    return std_heads_put(dec->opkeys, key, n, op, 0);
}

static int std_row_room(std_dec *dec) {
    if (dec->rows < dec->cap) return 0;
    long long cap = dec->cap ? dec->cap * 2 : 1024;
    int *tids = realloc(dec->tids, sizeof(int) * (size_t)cap);
    if (tids == NULL) return -1;
    dec->tids = tids;
    int *ops = realloc(dec->ops, sizeof(int) * (size_t)cap);
    if (ops == NULL) return -1;
    dec->ops = ops;
    long long *starts = realloc(dec->starts, sizeof(long long) * (size_t)cap);
    if (starts == NULL) return -1;
    dec->starts = starts;
    long long *ends = realloc(dec->ends, sizeof(long long) * (size_t)cap);
    if (ends == NULL) return -1;
    dec->ends = ends;
    dec->cap = cap;
    return 0;
}

int std_push(std_dec *dec, int tid, int op, long long start, long long end) {
    /* Append one row; returns 0, or -1 when out of memory. */
    if (std_row_room(dec)) return -1;
    long long r = dec->rows++;
    dec->tids[r] = tid;
    dec->ops[r] = op;
    dec->starts[r] = start;
    dec->ends[r] = end;
    return 0;
}

static int std_record(std_dec *dec, long long tag, long long start,
                      long long end, long long value) {
    if (dec->nfresh == dec->capfresh) {
        long long cap = dec->capfresh ? dec->capfresh * 2 : 64;
        long long *fresh = realloc(dec->fresh,
                                   sizeof(long long) * 4 * (size_t)cap);
        if (fresh == NULL) return -1;
        dec->fresh = fresh;
        dec->capfresh = cap;
    }
    long long *f = dec->fresh + 4 * dec->nfresh++;
    f[0] = tag;
    f[1] = start;
    f[2] = end;
    f[3] = value;
    return 0;
}

static int std_space(unsigned char c) {
    /* The ASCII characters str.strip() removes (and re's \s matches). */
    return c == ' ' || (c >= 9 && c <= 13) || (c >= 28 && c <= 31);
}

static int std_word(unsigned char c) {
    /* The ASCII characters re's \w matches. */
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c == '_';
}

static int std_op(const std_heads *tokens, const unsigned char *d,
                  long long a, long long b, int *kind,
                  long long *arg_a, long long *arg_b) {
    /* Parse the stripped op field d[a:b] as _parse_operation does:
     * "name(arg)" by _OP_PATTERN, else the whole field as the name.
     * Sets the kind and the operand span (empty: none) and returns 1,
     * or returns 0 where _parse_operation raises. */
    long long i = a, name_end = b;
    *arg_a = *arg_b = 0;
    while (i < b && std_word(d[i])) i++;
    if (i > a) {
        long long j = i;
        while (j < b && std_space(d[j])) j++;
        if (j < b - 1 && d[j] == '(' && d[b - 1] == ')'
                && memchr(d + j + 1, ')', (size_t)(b - 1 - (j + 1))) == NULL) {
            long long p = j + 1, q = b - 1;
            while (p < q && std_space(d[p])) p++;
            while (q > p && std_space(d[q - 1])) q--;
            if (q > p) { *arg_a = p; *arg_b = q; }
            name_end = i;
        }
    }
    unsigned char name[32];
    long long n = name_end - a;
    if (n > (long long)sizeof name) return 0;
    for (long long k = 0; k < n; k++) {
        unsigned char c = d[a + k];
        name[k] = (c >= 'A' && c <= 'Z') ? (unsigned char)(c + 32) : c;
    }
    const std_slot *s = std_find(tokens, name, n, std_hash(name, n));
    if (!s->used || (s->op && *arg_b == 0)) return 0;
    *kind = s->tid;
    return 1;
}

static void std_strip(const unsigned char *d, long long *a, long long *b) {
    while (*a < *b && std_space(d[*a])) (*a)++;
    while (*b > *a && std_space(d[*b - 1])) (*b)--;
}

static int std_new_head(std_dec *dec, const unsigned char *d, long long pos,
                        long long first, long long pipe,
                        unsigned long long head_hash, int *tid, int *op) {
    /* Intern the head d[pos:pipe] of a three-field line (first and pipe
     * are its two "|"s; it is not a comment) as _std_lines does.
     * Returns 1 with its tid and op id, 0 when the Python logic must
     * take the line (an empty thread, an op field it would refuse), -1
     * when out of memory.  Nothing is interned when it returns 0. */
    long long ta = pos, tb = first;
    std_strip(d, &ta, &tb);
    if (ta == tb) return 0;
    long long ra = first + 1, rb = pipe, oa = ra, ob = rb;
    std_strip(d, &oa, &ob);
    unsigned long long raw_hash = std_hash(d + ra, rb - ra), op_hash = 0;
    const std_slot *s = std_find(dec->opkeys, d + ra, rb - ra, raw_hash);
    int raw_known = s->used, known = s->used, kind = 0;
    long long arg_a = 0, arg_b = 0;
    if (known) {
        *op = s->tid;
    } else {
        op_hash = std_hash(d + oa, ob - oa);
        s = std_find(dec->opkeys, d + oa, ob - oa, op_hash);
        known = s->used;
        if (known) *op = s->tid;
        else if (!std_op(dec->tokens, d, oa, ob, &kind, &arg_a, &arg_b))
            return 0;
    }
    if (!known) {
        *op = dec->next_op++;
        if (std_record(dec, 1, arg_a, arg_b, kind)
                || std_insert(dec->opkeys, d + oa, ob - oa, op_hash, *op, 0)
                || std_record(dec, 2, oa, ob, *op))
            return -1;
    }
    if (!raw_known && rb - ra != ob - oa) {
        if (std_insert(dec->opkeys, d + ra, rb - ra, raw_hash, *op, 0)
                || std_record(dec, 2, ra, rb, *op))
            return -1;
    }
    unsigned long long thread_hash = std_hash(d + ta, tb - ta);
    s = std_find(dec->threads, d + ta, tb - ta, thread_hash);
    if (s->used) {
        *tid = s->tid;
    } else {
        *tid = dec->next_tid++;
        if (std_insert(dec->threads, d + ta, tb - ta, thread_hash, *tid, 0)
                || std_record(dec, 0, ta, tb, *tid))
            return -1;
    }
    if (std_insert(dec->heads, d + pos, pipe - pos, head_hash, *tid, *op))
        return -1;
    return 1;
}

static long long std_next_line(const unsigned char *d, long long pos,
                               long long end) {
    /* Offset after the line at d[pos:end] (end when unterminated);
     * lines end at "\n", "\r\n" or a bare "\r". */
    while (pos < end) {
        unsigned char c = d[pos++];
        if (c == '\n') break;
        if (c == '\r') {
            if (pos < end && d[pos] == '\n') pos++;
            break;
        }
    }
    return pos;
}

/* The "|"s of one line: the first and the last, their count, the hash
 * of the bytes before the last one, and the line's "\n". */
typedef struct {
    long long first, pipe, pipes, newline;
    unsigned long long head_hash;
} std_line;

static int std_split(const unsigned char *d, long long pos, long long end,
                     std_line *ln) {
    /* Split the line at d[pos:end]; returns 0 when it is not
     * "\n"-terminated ASCII with no "\r" except right before its "\n". */
    unsigned long long h = FNV_OFFSET;
    ln->first = ln->pipe = -1;
    ln->pipes = 0;
    ln->head_hash = 0;
    for (long long i = pos; i < end; i++) {
        unsigned char c = d[i];
        if (c == '\n') {
            ln->newline = i;
            return 1;
        }
        if (c >= 0x80 || (c == '\r' && (i + 1 >= end || d[i + 1] != '\n')))
            return 0;
        if (c == '|') {
            if (ln->first < 0) ln->first = i;
            ln->pipe = i;
            ln->pipes++;
            ln->head_hash = h;
        }
        h ^= c;
        h *= FNV_PRIME;
    }
    return 0;
}

static int std_comment(const unsigned char *d, long long pos,
                       const std_line *ln) {
    /* Whether the line at pos is one _std_lines skips: its first field
     * strips to a name starting with "#", or it has no "|" and strips to
     * nothing. */
    long long a = pos, b = ln->first < 0 ? ln->newline : ln->first;
    std_strip(d, &a, &b);
    return a < b ? d[a] == '#' : ln->first < 0;
}

static int std_takeable(const std_heads *tokens, const unsigned char *d,
                        long long pos, long long end) {
    /* Whether std_scan takes the line at d[pos:end], which depends on
     * its bytes alone: std_split accepts it, and it is a comment, a
     * blank or three fields with a thread that strips to a name and an
     * op field std_op parses.  (A known head came from such a line.) */
    std_line ln;
    if (!std_split(d, pos, end, &ln)) return 0;
    if (std_comment(d, pos, &ln)) return 1;
    long long ta = pos, tb = ln.first, oa = ln.first + 1, ob = ln.pipe;
    long long arg_a, arg_b;
    int kind;
    std_strip(d, &ta, &tb);
    std_strip(d, &oa, &ob);
    return ln.pipes == 2 && ta < tb
        && std_op(tokens, d, oa, ob, &kind, &arg_a, &arg_b);
}

long long std_scan(std_dec *dec, const char *text, long long pos,
                   long long end) {
    /* Decode lines from text[pos:end] while std_split accepts each and
     * either its bytes up to the last "|" are a known head, or it has
     * three fields whose head std_new_head interns, or it is a comment
     * or a blank, which it skips.  Each other line appends a row: the
     * head's tid and op and the location span, the bytes after the last
     * "|" stripped like str.strip().  Returns the offset of the first
     * line not taken (end when all were), or -1 when out of memory;
     * stop_end is then the end of the run of lines from there that the
     * scan does not take. */
    const unsigned char *d = (const unsigned char *)text;
    std_line ln;
    while (pos < end) {
        if (!std_split(d, pos, end, &ln)) goto refused;
        int tid, op;
        const std_slot *s = ln.pipe < 0 ? NULL
            : std_find(dec->heads, d + pos, ln.pipe - pos, ln.head_hash);
        if (s != NULL && s->used) {
            tid = s->tid;
            op = s->op;
        } else if (std_comment(d, pos, &ln)) {
            dec->lines++;
            pos = ln.newline + 1;
            continue;
        } else {
            int taken = ln.pipes == 2
                ? std_new_head(dec, d, pos, ln.first, ln.pipe, ln.head_hash,
                               &tid, &op)
                : 0;
            if (taken < 0) return -1;
            if (taken == 0) goto refused;
        }
        long long a = ln.pipe + 1, b = ln.newline;
        std_strip(d, &a, &b);
        if (std_push(dec, tid, op, a, b)) return -1;
        dec->lines++;
        pos = ln.newline + 1;
    }
    return pos;
refused:
    dec->stop_end = std_next_line(d, pos, end);
    while (dec->stop_end < end
           && !std_takeable(dec->tokens, d, dec->stop_end, end))
        dec->stop_end = std_next_line(d, dec->stop_end, end);
    return pos;
}

/* ------------------------------------------------------------------ */
/* Lock discipline: the validator state and its pass over a block.     */
/* ------------------------------------------------------------------ */

/* The state of repro.trace.semantics.LockDiscipline: per thread the
 * stack of open sections (lock, open index, mode), innermost last, with
 * mode 0 exclusive (acq, wait), 1 read, 2 write.  The holder of each
 * lock and its number of read-mode holders are derived from the stacks.
 * Thread and lock ids are the caller's dense ids; lv_reserve sizes the
 * tables.  marks is a copy of the open sections taken by lv_mark_now
 * (at a block's start), from which lv_from_mark rebuilds that state. */
typedef struct { long long index; int lock, mode; } lv_section;
typedef struct { lv_section *secs; long long n, cap; } lv_stack;
typedef struct { int holder, readers; } lv_lock;
typedef struct { long long index; int tid, lock, mode; } lv_mark;
typedef struct {
    lv_stack *threads;
    long long nthreads;
    lv_lock *locks;
    long long nlocks, open;
    lv_mark *marks;
    long long nmarks, capmarks;
} lv_state;

void *lv_new(void) {
    return calloc(1, sizeof(lv_state));
}

void lv_free(void *handle) {
    lv_state *st = handle;
    if (st == NULL) return;
    for (long long t = 0; t < st->nthreads; t++) free(st->threads[t].secs);
    free(st->threads);
    free(st->locks);
    free(st->marks);
    free(st);
}

int lv_reserve(void *handle, long long threads, long long locks) {
    /* Grow the tables to at least threads and locks entries; returns 0,
     * or -1 when out of memory. */
    lv_state *st = handle;
    if (threads > st->nthreads) {
        lv_stack *grown = realloc(st->threads, sizeof(lv_stack) * (size_t)threads);
        if (grown == NULL) return -1;
        memset(grown + st->nthreads, 0,
               sizeof(lv_stack) * (size_t)(threads - st->nthreads));
        st->threads = grown;
        st->nthreads = threads;
    }
    if (locks > st->nlocks) {
        lv_lock *grown = realloc(st->locks, sizeof(lv_lock) * (size_t)locks);
        if (grown == NULL) return -1;
        for (long long l = st->nlocks; l < locks; l++) {
            grown[l].holder = -1;
            grown[l].readers = 0;
        }
        st->locks = grown;
        st->nlocks = locks;
    }
    return 0;
}

int lv_open(void *handle, int tid, int lock, int mode, long long index) {
    /* Push an open section on tid's stack; returns 0, -1 when out of
     * memory, -2 for an id out of range. */
    lv_state *st = handle;
    if (tid < 0 || tid >= st->nthreads || lock < 0 || lock >= st->nlocks
            || mode < 0 || mode > 2)
        return -2;
    lv_stack *s = &st->threads[tid];
    if (s->n == s->cap) {
        long long cap = s->cap ? s->cap * 2 : 4;
        lv_section *grown = realloc(s->secs, sizeof(lv_section) * (size_t)cap);
        if (grown == NULL) return -1;
        s->secs = grown;
        s->cap = cap;
    }
    s->secs[s->n].index = index;
    s->secs[s->n].lock = lock;
    s->secs[s->n].mode = mode;
    s->n++;
    st->open++;
    if (mode == 1) st->locks[lock].readers++;
    else st->locks[lock].holder = tid;
    return 0;
}

int lv_mark_now(void *handle) {
    /* Copy the open sections into marks; returns 0, or -1 when out of
     * memory. */
    lv_state *st = handle;
    if (st->open > st->capmarks) {
        long long cap = st->open * 2;
        lv_mark *grown = realloc(st->marks, sizeof(lv_mark) * (size_t)cap);
        if (grown == NULL) return -1;
        st->marks = grown;
        st->capmarks = cap;
    }
    long long m = 0;
    for (long long t = 0; t < st->nthreads && m < st->open; t++) {
        const lv_stack *s = &st->threads[t];
        for (long long k = 0; k < s->n; k++, m++) {
            st->marks[m].index = s->secs[k].index;
            st->marks[m].tid = (int)t;
            st->marks[m].lock = s->secs[k].lock;
            st->marks[m].mode = s->secs[k].mode;
        }
    }
    st->nmarks = m;
    return 0;
}

int lv_from_mark(void *handle, const void *source) {
    /* Open on a fresh handle the sections source marked; returns 0, or
     * -1 when out of memory. */
    const lv_state *from = source;
    if (lv_reserve(handle, from->nthreads, from->nlocks) < 0) return -1;
    for (long long m = 0; m < from->nmarks; m++) {
        const lv_mark *e = &from->marks[m];
        int failed = lv_open(handle, e->tid, e->lock, e->mode, e->index);
        if (failed) return failed;
    }
    return 0;
}

long long lv_run(void *handle, const int *tids, const int *ops, long long n,
                 const int *threads, long long n_tids,
                 const unsigned char *roles, const int *locks,
                 long long n_ops, long long start) {
    /* roles[op]: 0 no lock role, 1 acquire, 2 release, 3 read-acquire,
     * 4 write-acquire, 5 rw-release; locks[op]: the lock id of a row
     * with a role; threads[tid]: the thread id of a row's tid.  Applies
     * the rows in order, row i opening its section at index start + i.
     * Returns the first row LockDiscipline would refuse, unapplied (n
     * when there is none), -1 when out of memory, -2 for an id out of
     * range. */
    lv_state *st = handle;
    long long i;
    for (i = 0; i < n; i++) {
        int op = ops[i];
        if (op < 0 || op >= n_ops) return -2;
        unsigned char role = roles[op];
        if (role == 0) continue;
        int tid = tids[i], lock = locks[op];
        if (tid < 0 || tid >= n_tids || role > 5) return -2;
        tid = threads[tid];
        if (tid < 0 || tid >= st->nthreads || lock < 0 || lock >= st->nlocks)
            return -2;
        lv_lock *l = &st->locks[lock];
        lv_stack *s = &st->threads[tid];
        if (role == 1 || role == 4) {
            if (l->holder >= 0 || l->readers > 0) break;
            if (lv_open(st, tid, lock, role == 1 ? 0 : 2, start + i)) return -1;
        } else if (role == 3) {
            if (l->holder >= 0) break;
            long long k = l->readers > 0 ? s->n : 0;
            while (k > 0 && !(s->secs[k - 1].lock == lock
                              && s->secs[k - 1].mode == 1))
                k--;
            if (k > 0) break;
            if (lv_open(st, tid, lock, 1, start + i)) return -1;
        } else {
            if (s->n == 0) break;
            const lv_section *top = &s->secs[s->n - 1];
            if (top->lock != lock || (role == 2) != (top->mode == 0)) break;
            if (top->mode == 1) l->readers--;
            else l->holder = -1;
            s->n--;
            st->open--;
        }
    }
    return i;
}
"""

_WCP_CDEF = """
typedef struct { long long n, cap; long long *t; } wcp_mclk;
typedef struct { int *items; long long n, cap; int *slots; long long mask; }
    wcp_idset;
typedef struct { int lock, pad; wcp_idset reads, writes; } wcp_section;
typedef struct { long long seen; int barrier, pad; } wcp_wait;
typedef struct {
    long long nt;
    int prev, bw;
    wcp_mclk p, h;
    long long *ct;
    wcp_section *secs;
    long long nsec, capsec;
    wcp_section *rsecs;
    long long nrsec, caprsec;
    wcp_wait *waits;
    long long nwait, capwait;
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
    long long *rpl, *rhl, *npl, *nhl;
    long long rseq, nseq;
} wcp_lock;
typedef struct {
    int created, pad;
    long long *accp, *acch;
    wcp_idset parts;
    long long version;
} wcp_barrier;
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
    long long refs;
    void *locs;
    long long *loc_spans;
    long long nlocs, caplocs;
    wcp_map racemap;
    long long *races;
    long long nraces, capraces, races_raw, races_unkeyed;
} wcp_found;
typedef struct {
    int prune, hb;
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
    wcp_found *found;
    long long queue_total, max_queue_total;
    int *scratch;
    long long capscratch;
    wcp_barrier *barriers;
    long long nbarriers, capbarriers;
    int *barrier_order;
    long long nbarrier_order, capbarrier_order;
    int *bw_order;
    long long nbw_order, capbw_order;
    long long seq;
} wcp_state;
void *wcp_new(int prune, int hb);
void wcp_free(void *handle);
int wcp_add_lock(void *handle, int local);
int wcp_census_lock(void *handle, int lock, int tid);
int wcp_add_var(void *handle, int local);
int wcp_add_barrier(void *handle);
int wcp_loc_put(void *handle, const char *key, long long n);
long long wcp_loc_get(wcp_found *found, int id, const char **key);
wcp_found *wcp_found_ref(void *handle);
void wcp_found_drop(wcp_found *found);
int wcp_thread_init(void *handle, int tid);
long long *wcp_ct(void *handle, int tid);
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
 * 5 join, 6 no clock work (begin/end), 7 read-acquire, 8 write-acquire,
 * 9 rwlock release, 10 barrier, 11 wait, 12 notify. */

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
typedef struct { i64 seen; int barrier, pad; } wcp_wait;

/* secs: the open critical sections; rsecs: the rwlocks held in read
 * mode (Python's _read_held, in insertion order); waits: the open
 * barrier generations the thread arrived in, with the accumulator
 * version it merged (_barrier_waiting[tid]); bw: the thread has an
 * entry in _barrier_waiting. */
typedef struct {
    i64 nt;
    int prev, bw;
    wcp_mclk p, h;
    i64 *ct;
    wcp_section *secs;
    i64 nsec, capsec;
    wcp_section *rsecs;
    i64 nrsec, caprsec;
    wcp_wait *waits;
    i64 nwait, capwait;
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
    /* Owned accumulators (NULL: None): read_pl/read_hl and
     * notify_p/notify_h (HB: _read_rel and _notify_clocks in rhl and
     * nhl, whose dict orders rseq and nseq keep). */
    i64 *rpl, *rhl, *npl, *nhl;
    i64 rseq, nseq;
} wcp_lock;

/* One barrier's open generation: accumulated C and H (HB: H in acch),
 * its participants and the arrival count. */
typedef struct {
    int created, pad;
    i64 *accp, *acch;
    wcp_idset parts;
    i64 version;
} wcp_barrier;

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

/* What a pass found, apart from its state: the location table, and the
 * race slots (RACE_WORDS words each, in first-detection order) with
 * their map from location-id pair to slot, the raw race count and the
 * count of slots with a location-less side.  Reference-counted, so a
 * report can keep it after the state is freed. */
typedef struct {
    i64 refs;
    void *locs;
    i64 *loc_spans;
    i64 nlocs, caplocs;
    wcp_map racemap;
    i64 *races;
    i64 nraces, capraces, races_raw, races_unkeyed;
} wcp_found;

typedef struct {
    int prune, hb;
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
    wcp_found *found;
    i64 queue_total, max_queue_total;
    int *scratch;
    i64 capscratch;
    wcp_barrier *barriers;
    i64 nbarriers, capbarriers;
    int *barrier_order;
    i64 nbarrier_order, capbarrier_order;
    int *bw_order;
    i64 nbw_order, capbw_order;
    i64 seq;
} wcp_state;

wcp_found *wcp_found_ref(void *handle) {
    wcp_found *f = ((wcp_state *)handle)->found;
    f->refs++;
    return f;
}

void wcp_found_drop(wcp_found *f) {
    if (f == NULL || --f->refs) return;
    std_heads_free(f->locs);
    free(f->loc_spans);
    free(f->racemap.slots);
    free(f->races);
    free(f);
}

void *wcp_new(int prune, int hb) {
    /* hb: the HB mode -- H_t and H_l only (no Rule (a), Rule (b),
     * sections or logs), and accesses checked against a frozen H_t. */
    wcp_state *st = calloc(1, sizeof *st);
    if (st == NULL) return NULL;
    st->prune = prune;
    st->hb = hb;
    st->found = calloc(1, sizeof *st->found);
    if (st->found == NULL) { free(st); return NULL; }
    st->found->refs = 1;
    st->found->locs = std_heads_new();
    if (st->found->locs == NULL) {
        free(st->found);
        free(st);
        return NULL;
    }
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
        for (i64 k = 0; k < T->caprsec; k++) {
            ids_free(&T->rsecs[k].reads);
            ids_free(&T->rsecs[k].writes);
        }
        free(T->rsecs);
        free(T->waits);
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
        fc_drop(L->rpl);
        fc_drop(L->rhl);
        fc_drop(L->npl);
        fc_drop(L->nhl);
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
    wcp_found_drop(st->found);
    free(st->scratch);
    for (i64 b = 0; b < st->nbarriers; b++) {
        fc_drop(st->barriers[b].accp);
        fc_drop(st->barriers[b].acch);
        ids_free(&st->barriers[b].parts);
    }
    free(st->barriers);
    free(st->barrier_order);
    free(st->bw_order);
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

int wcp_add_barrier(void *handle) {
    /* A new barrier id (-1: no memory). */
    wcp_state *st = handle;
    if (GROW(st->barriers, st->capbarriers, st->nbarriers + 1)) return -1;
    return (int)st->nbarriers++;
}

static int loc_add(wcp_found *f, const char *key, i64 n) {
    std_heads *t = f->locs;
    int id = (int)f->nlocs;
    if (GROW(f->loc_spans, f->caplocs, 2 * (f->nlocs + 1))) return -1;
    if (std_heads_put(t, key, n, id, 0)) return -1;
    const std_slot *s = std_find(t, (const unsigned char *)key, n,
                                 std_hash((const unsigned char *)key, n));
    f->loc_spans[2 * id] = s->key;
    f->loc_spans[2 * id + 1] = n;
    f->nlocs++;
    return id;
}

static int loc_intern(wcp_state *st, const char *key, i64 n) {
    const unsigned char *k = (const unsigned char *)key;
    const std_slot *s = std_find(st->found->locs, k, n, std_hash(k, n));
    if (s->used) return s->tid;
    return loc_add(st->found, key, n);
}

int wcp_loc_put(void *handle, const char *key, long long n) {
    /* The id of a UTF-8 location (-1: no memory). */
    return loc_intern(handle, key, n);
}

long long wcp_loc_get(wcp_found *f, int id, const char **key) {
    if (id < 0 || id >= f->nlocs) return -1;
    *key = ((std_heads *)f->locs)->arena + f->loc_spans[2 * id];
    return f->loc_spans[2 * id + 1];
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
        T->nrsec = 0;
        T->nwait = 0;
        T->bw = 0;
        st->order[st->norder++] = tid;
    }
    return T;
}

int wcp_thread_init(void *handle, int tid) {
    if (tid < 0) return -2;
    return thread_at(handle, tid) == NULL ? -1 : 0;
}

static i64 *ct_get(wcp_state *st, int tid) {
    /* The cached frozen C_t = P_t[t := N_t]; in the HB mode, H_t. */
    wcp_thread *T = &st->th[tid];
    if (T->ct == NULL && st->hb) {
        T->ct = mc_freeze(&T->h);
    } else if (T->ct == NULL) {
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
    wcp_thread *T = &st->th[tid];
    if (st->hb) {
        /* H_t joins H_l; the lock is created by its first release. */
        int grew = L->hl == NULL ? 0 : mc_merge(&T->h, FC_T(L->hl),
                                                FC_N(L->hl));
        if (grew > 0) ct_drop(T);
        return grew < 0 ? -1 : 0;
    }
    if (lock_create(st, L)) return -1;
    if (L->local) return 0;
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
    /* kind: 0 lr, 1 lw, 2 read_lr, 3 read_lw (the read sections'). */
    int c = map_get(&st->cellmap, lock, 4 * (i64)var + kind);
    if (c >= 0 || !create) return c;
    if (GROW(st->cells, st->capcells, st->ncells + 1)) return -2;
    c = (int)st->ncells;
    if (map_put(&st->cellmap, lock, 4 * (i64)var + kind, c)) return -2;
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
    if (st->hb) {
        fc_drop(L->hl);
        L->hl = mc_freeze(&T->h);
        return L->hl == NULL ? -1 : 0;
    }
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
    /* Join the relevant release times of one Rule (a) cell into P_t:
     * the chain fast path on lr/lw (the kernel never runs a tainted
     * lock), every other thread's entry on the read cells, whose
     * releases are mutually unordered. */
    int c = cell_at(st, lock, var, kind, 0);
    if (c < 0) return 0;
    wcp_cell *C = &st->cells[c];
    i64 s = 0;
    while (s < C->nseen && C->seen[s].tid != tid) s++;
    if (s < C->nseen && C->seen[s].ver == C->version) return 0;
    if (kind >= 2) {
        for (i64 b = 0; b < C->nbt; b++)
            if (C->bt[b].tid != tid && merge_p(st, tid, C->bt[b].clk) < 0)
                return -1;
    } else {
        int other = C->top_tid != tid ? C->top_tid : C->second_tid;
        i64 *relevant = other >= 0 ? bt_get(C, other) : NULL;
        if (relevant != NULL && merge_p(st, tid, relevant) < 0) return -1;
    }
    if (s == C->nseen) {
        if (GROW(C->seen, C->capseen, C->nseen + 1)) return -1;
        C->seen[s].tid = tid;
        C->nseen++;
    }
    C->seen[s].ver = C->version;
    return 0;
}

/* The access being checked: the second side of each race it finds. */
typedef struct { i64 index, loc; int var, tid, kind; } wcp_acc;

/* A race slot: first index, second index, first tid, second tid, first
 * kind, second kind, variable, first location, second location, the
 * largest distance seen (locations as the history keys them: an id, or
 * -(index + 1) for none). */
#define RACE_WORDS 10

static int race_out(wcp_state *st, const wcp_hcell *h, int tid, int kind,
                    const wcp_acc *a) {
    /* RaceReport.add: a new location pair takes a slot holding its
     * first witness, a known one only its largest distance.  A pair
     * with a location-less side always takes one: its key is a string
     * (Event.location) that only Python spells. */
    wcp_found *f = st->found;
    i64 distance = a->index - h->index;
    if (distance < 0) distance = -distance;
    f->races_raw++;
    int keyed = h->loc >= 0 && a->loc >= 0;
    i64 lo = h->loc < a->loc ? h->loc : a->loc;
    i64 hi = h->loc < a->loc ? a->loc : h->loc;
    if (keyed) {
        int s = map_get(&f->racemap, lo, hi);
        if (s >= 0) {
            i64 *r = &f->races[RACE_WORDS * (i64)s];
            if (distance > r[9]) r[9] = distance;
            return 0;
        }
        if (map_put(&f->racemap, lo, hi, (int)f->nraces)) return -1;
    } else {
        f->races_unkeyed++;
    }
    if (GROW(f->races, f->capraces, RACE_WORDS * (f->nraces + 1)))
        return -1;
    i64 *r = &f->races[RACE_WORDS * f->nraces++];
    r[0] = h->index;
    r[1] = a->index;
    r[2] = tid;
    r[3] = a->tid;
    r[4] = kind;
    r[5] = a->kind;
    r[6] = a->var;
    r[7] = h->loc;
    r[8] = a->loc;
    r[9] = distance;
    return 0;
}

static int unordered(wcp_state *st, const wcp_var *V, int kind,
                     const i64 *clock, const wcp_acc *a) {
    /* Race attribution: per thread, newest first, up to the first
     * ordered cell; reported in first-access (rank) order. */
    for (i64 l = 0; l < V->nlists[kind]; l++) {
        const wcp_tlist *tl = &st->tlists[V->lists[kind][l]];
        if (tl->tid == a->tid) continue;
        i64 n = 0;
        for (int c = tl->tail; c >= 0; c = st->hcells[c].prev) {
            if (fc_leq(st->hcells[c].clk, clock)) break;
            if (GROW(st->scratch, st->capscratch, n + 1)) return -1;
            st->scratch[n++] = c;
        }
        for (i64 i = 1; i < n; i++) {
            int c = st->scratch[i];
            i64 b = i - 1;
            while (b >= 0 && st->hcells[st->scratch[b]].rank
                             > st->hcells[c].rank) {
                st->scratch[b + 1] = st->scratch[b];
                b--;
            }
            st->scratch[b + 1] = c;
        }
        for (i64 k = 0; k < n; k++)
            if (race_out(st, &st->hcells[st->scratch[k]], tl->tid, kind, a))
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
                   i64 loc, i64 *C) {
    /* AccessHistory.observe_read / observe_write, fused. */
    wcp_var *V = &st->vars[var];
    wcp_acc a = { index, loc, var, tid, kind };
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
        if (!w_ord && unordered(st, V, 1, C, &a)) return -1;
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
        if (!w_ord && unordered(st, V, 1, C, &a)) return -1;
        if (!r_ord && unordered(st, V, 0, C, &a)) return -1;
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
                  i64 loc) {
    wcp_thread *T = &st->th[tid];
    /* Lines 11-12: Rule (a) under every open section, which also notes
     * the access in each; a read section's releases conflict too. */
    for (i64 k = 0; k < T->nsec; k++) {
        wcp_section *S = &T->secs[k];
        if (kind == 0) {
            if (rule_a(st, S->lock, var, 1, tid)
                    || rule_a(st, S->lock, var, 3, tid))
                return -1;
            if (ids_add(&S->reads, var)) return -1;
        } else {
            if (rule_a(st, S->lock, var, 0, tid)
                    || rule_a(st, S->lock, var, 1, tid)
                    || rule_a(st, S->lock, var, 2, tid)
                    || rule_a(st, S->lock, var, 3, tid))
                return -1;
            if (ids_add(&S->writes, var)) return -1;
        }
    }
    /* _read_held_rule_a: a read section consumes the exclusive
     * releases' cells and notes the access for its own release (HB
     * keeps only the sections' locks). */
    for (i64 k = 0; !st->hb && k < T->nrsec; k++) {
        wcp_section *R = &T->rsecs[k];
        if (kind == 1) {
            if (rule_a(st, R->lock, var, 0, tid)) return -1;
            if (ids_add(&R->writes, var)) return -1;
        } else if (ids_add(&R->reads, var)) {
            return -1;
        }
        if (rule_a(st, R->lock, var, 1, tid)) return -1;
    }
    i64 *C = ct_get(st, tid);
    if (C == NULL) return -1;
    return observe(st, var, kind, tid, index, loc, C);
}

static int fork_join(wcp_state *st, int tid, int child, int is_join) {
    if (thread_at(st, child) == NULL) return -1;
    wcp_thread *T = &st->th[tid], *K = &st->th[child];
    /* The receiver's P joins the sender's C (WCP), or its frozen H_t
     * goes (HB). */
    wcp_thread *from = is_join ? K : T, *to = is_join ? T : K;
    int sender = is_join ? child : tid, receiver = is_join ? tid : child;
    if (st->hb) {
        ct_drop(to);
    } else {
        i64 *c = ct_get(st, sender);
        if (c == NULL || merge_p(st, receiver, c) < 0) return -1;
    }
    if (mc_merge(&to->h, from->h.t, from->h.n) < 0) return -1;
    if (mc_assign(&to->h, receiver, to->nt)) return -1;
    /* Fork ends the parent's interval, join the child's. */
    from->prev = 1;
    return 0;
}

static int merge_h(wcp_state *st, int tid, const i64 *c) {
    /* H_t joins c; in the HB mode the frozen H_t goes when it grew. */
    wcp_thread *T = &st->th[tid];
    int changed = mc_merge(&T->h, FC_T(c), FC_N(c));
    if (changed > 0 && st->hb) ct_drop(T);
    return changed;
}

static int acc_join(i64 **acc, const i64 *t, i64 n) {
    /* An owned accumulator joins t[0..n) (NULL: it starts as a copy). */
    if (*acc == NULL) {
        *acc = fc_new(n);
        if (*acc == NULL) return -1;
        if (n) memcpy(FC_T(*acc), t, sizeof(i64) * (size_t)n);
        return 0;
    }
    return fc_join(acc, t, n);
}

static int acc_take(wcp_state *st, int tid, i64 **pacc, i64 **hacc) {
    /* P_t and H_t join an accumulator pair, which goes (NULL: None). */
    int failed = (*pacc != NULL && merge_p(st, tid, *pacc) < 0)
                 || (*hacc != NULL && merge_h(st, tid, *hacc) < 0);
    fc_drop(*pacc);
    fc_drop(*hacc);
    *pacc = *hacc = NULL;
    return failed ? -1 : 0;
}

static i64 rsec_find(const wcp_thread *T, int lock) {
    for (i64 k = 0; k < T->nrsec; k++)
        if (T->rsecs[k].lock == lock) return k;
    return -1;
}

static int wcp_racq_r(wcp_state *st, int lock, int tid) {
    /* Ordered after the last exclusive release only; the lock joins
     * the thread's read-held sections with empty sets (a repeat keeps
     * its place, as a dict key does). */
    wcp_lock *L = &st->locks[lock];
    wcp_thread *T = &st->th[tid];
    if (!st->hb && lock_create(st, L)) return -1;
    if (L->hl != NULL && merge_h(st, tid, L->hl) < 0) return -1;
    if (!st->hb && L->pl != NULL && merge_p(st, tid, L->pl) < 0) return -1;
    i64 k = rsec_find(T, lock);
    if (k < 0) {
        if (GROW(T->rsecs, T->caprsec, T->nrsec + 1)) return -1;
        k = T->nrsec++;
        T->rsecs[k].lock = lock;
    }
    ids_clear(&T->rsecs[k].reads);
    ids_clear(&T->rsecs[k].writes);
    return 0;
}

static int wcp_racq_w(wcp_state *st, int lock, int tid) {
    /* An acquire that also takes (and clears) the read accumulators. */
    wcp_lock *L = &st->locks[lock];
    if (st->hb) {
        if (L->hl != NULL && merge_h(st, tid, L->hl) < 0) return -1;
        return acc_take(st, tid, &L->rpl, &L->rhl);
    }
    if (lock_create(st, L) || acc_take(st, tid, &L->rpl, &L->rhl))
        return -1;
    return wcp_acquire(st, lock, tid);
}

static int wcp_rrel(wcp_state *st, int lock, int tid) {
    /* Closing a read section publishes into the read cells and the read
     * accumulators; closing a write section is a release. */
    wcp_lock *L = &st->locks[lock];
    wcp_thread *T = &st->th[tid];
    i64 k = rsec_find(T, lock);
    int failed = 0;
    if (k < 0) {
        failed = wcp_release(st, lock, tid);
    } else {
        wcp_section closed = T->rsecs[k];
        memmove(&T->rsecs[k], &T->rsecs[k + 1],
                sizeof(wcp_section) * (size_t)(T->nrsec - 1 - k));
        T->rsecs[--T->nrsec] = closed;
        if (st->hb) {
            if (L->rhl == NULL) L->rseq = ++st->seq;
            failed = acc_join(&L->rhl, T->h.t, T->h.n);
        } else if (lock_create(st, L)) {
            failed = 1;
        } else {
            if (closed.reads.n || closed.writes.n) {
                i64 *snap = mc_freeze(&T->h);
                if (snap == NULL) return -1;
                failed = publish(st, lock, &closed.reads, 2, tid, snap)
                         || publish(st, lock, &closed.writes, 3, tid, snap);
                fc_drop(snap);
            }
            failed = failed || acc_join(&L->rhl, T->h.t, T->h.n)
                     || acc_join(&L->rpl, T->p.t, T->p.n);
        }
        ids_clear(&T->rsecs[T->nrsec].reads);
        ids_clear(&T->rsecs[T->nrsec].writes);
    }
    st->th[tid].prev = 1;
    return failed ? -1 : 0;
}

static int wait_wake(wcp_state *st, int lock, int tid) {
    /* The wake-side re-acquire plus the notify edge. */
    wcp_lock *L = &st->locks[lock];
    if (st->hb) {
        if (L->hl != NULL && merge_h(st, tid, L->hl) < 0) return -1;
        return L->nhl != NULL && merge_h(st, tid, L->nhl) < 0 ? -1 : 0;
    }
    if (lock_create(st, L)) return -1;
    if (L->nhl != NULL && merge_h(st, tid, L->nhl) < 0) return -1;
    if (L->npl != NULL && merge_p(st, tid, L->npl) < 0) return -1;
    return wcp_acquire(st, lock, tid);
}

static int wcp_notify(wcp_state *st, int lock, int tid) {
    /* C_t and H_t join the monitor's never-cleared notify accumulators. */
    wcp_lock *L = &st->locks[lock];
    wcp_thread *T = &st->th[tid];
    if (st->hb) {
        if (L->nhl == NULL) L->nseq = ++st->seq;
    } else {
        i64 *ct = ct_get(st, tid);
        if (lock_create(st, L) || ct == NULL
                || acc_join(&L->npl, FC_T(ct), FC_N(ct)))
            return -1;
    }
    T->prev = 1;
    return acc_join(&L->nhl, T->h.t, T->h.n);
}

static void wait_drop(wcp_thread *T, int barrier) {
    for (i64 k = 0; k < T->nwait; k++) {
        if (T->waits[k].barrier != barrier) continue;
        memmove(&T->waits[k], &T->waits[k + 1],
                sizeof(wcp_wait) * (size_t)(T->nwait - 1 - k));
        T->nwait--;
        return;
    }
}

static int join_open_barriers(wcp_state *st, int tid) {
    /* A blocked arriver re-joins each open generation that grew. */
    wcp_thread *T = &st->th[tid];
    for (i64 k = 0; k < T->nwait; k++) {
        const wcp_barrier *B = &st->barriers[T->waits[k].barrier];
        if (B->version == T->waits[k].seen) continue;
        T->waits[k].seen = B->version;
        if (B->accp != NULL && merge_p(st, tid, B->accp) < 0) return -1;
        if (B->acch != NULL && merge_h(st, tid, B->acch) < 0) return -1;
    }
    return 0;
}

static int barrier_arrive(wcp_state *st, int bar, int tid) {
    /* An arrival: a repeat arriver closes the generation (every
     * participant joins its accumulators), then the arriver joins the
     * open generation's and adds its own clocks. */
    wcp_barrier *B = &st->barriers[bar];
    if (!B->created) {
        if (GROW(st->barrier_order, st->capbarrier_order,
                 st->nbarrier_order + 1))
            return -1;
        st->barrier_order[st->nbarrier_order++] = bar;
        B->created = 1;
    }
    if (ids_has(&B->parts, tid)) {
        for (i64 k = 0; k < B->parts.n; k++) {
            int member = B->parts.items[k];
            if ((B->accp != NULL && merge_p(st, member, B->accp) < 0)
                    || (B->acch != NULL
                        && merge_h(st, member, B->acch) < 0))
                return -1;
            wait_drop(&st->th[member], bar);
        }
        fc_drop(B->accp);
        fc_drop(B->acch);
        B->accp = B->acch = NULL;
        ids_clear(&B->parts);
    }
    wcp_thread *T = &st->th[tid];
    if (B->acch != NULL && merge_h(st, tid, B->acch) < 0) return -1;
    if (B->accp != NULL && merge_p(st, tid, B->accp) < 0) return -1;
    if (!st->hb) {
        i64 *ct = ct_get(st, tid);
        if (ct == NULL || acc_join(&B->accp, FC_T(ct), FC_N(ct))) return -1;
    }
    if (acc_join(&B->acch, T->h.t, T->h.n) || ids_add(&B->parts, tid))
        return -1;
    B->version++;
    /* _barrier_waiting.setdefault(tid, {})[barrier] = version */
    if (!T->bw) {
        if (GROW(st->bw_order, st->capbw_order, st->nbw_order + 1))
            return -1;
        st->bw_order[st->nbw_order++] = tid;
        T->bw = 1;
    }
    i64 k = 0;
    while (k < T->nwait && T->waits[k].barrier != bar) k++;
    if (k == T->nwait) {
        if (GROW(T->waits, T->capwait, T->nwait + 1)) return -1;
        T->waits[T->nwait++].barrier = bar;
    }
    T->waits[k].seen = B->version;
    T->prev = 1;
    return 0;
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
     * it stopped: 0 all done, 1 the row needs the Python detector (it
     * would taint a lock, or names a thread-local lock in an rwlock,
     * wait or notify role), 2 a fork/join target is not interned yet,
     * 3 the row's location is a string not interned yet, -1 no memory,
     * -2 an id out of range.  out[1] counts thread-local accesses.
     * Each access row's location is span [starts, ends) of data, where
     * a negative start names the string decoded[~start] (an id, -1
     * none, -2 not interned), else loc_ids[row] (-1: none). */
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
        if (kind > 12) { reason = -2; break; }
        if (kind == 2 || kind == 3 || (kind >= 7 && kind != 10)) {
            if (target < 0 || target >= st->nlocks) { reason = -2; break; }
            const wcp_lock *L = &st->locks[target];
            if (!st->hb) {
                /* The acquire kinds taint a held lock, a release one the
                 * thread does not hold (a read-held rwlock's rrel does
                 * not); the census never makes such a lock local. */
                int acquire = kind == 2 || kind == 8 || kind == 11;
                int release = kind == 3
                    || (kind == 9 && !(tid < st->nth && st->th[tid].nt
                                       && rsec_find(&st->th[tid], target)
                                          >= 0));
                if (L->local ? kind >= 7
                        : (acquire && L->holder >= 0)
                          || (release && L->holder != tid)) {
                    reason = 1;
                    break;
                }
            }
        } else if (kind == 10) {
            if (target < 0 || target >= st->nbarriers) {
                reason = -2;
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
        /* The prologue: initialise, the deferred N_t bump, then the
         * barrier re-join. */
        wcp_thread *T = thread_at(st, tid);
        if (T == NULL) { reason = -1; break; }
        if (T->prev) {
            T->nt++;
            if (mc_assign(&T->h, tid, T->nt)) { reason = -1; break; }
            ct_drop(T);
            T->prev = 0;
        }
        if (T->nwait && join_open_barriers(st, tid)) { reason = -1; break; }
        int failed = 0;
        switch (kind) {
        case 0: case 1:
            if (st->vars[target].local) { local++; continue; }
            failed = wcp_access(st, target, kind, tid, index, loc);
            break;
        case 2: failed = wcp_acquire(st, target, tid); break;
        case 3:
            failed = wcp_release(st, target, tid);
            st->th[tid].prev = 1;
            break;
        case 4: case 5:
            failed = fork_join(st, tid, target, kind == 5);
            break;
        case 7: failed = wcp_racq_r(st, target, tid); break;
        case 8: failed = wcp_racq_w(st, target, tid); break;
        case 9: failed = wcp_rrel(st, target, tid); break;
        case 10: failed = barrier_arrive(st, target, tid); break;
        case 11: failed = wait_wake(st, target, tid); break;
        case 12: failed = wcp_notify(st, target, tid); break;
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
        return ("cffi (compiled STD decode, lock validator and WCP "
                "kernels; HB runs in the WCP kernel's HB mode)")
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
