"""Hot loops: the collapsed Gibbs sweep and its count tables, coherence's log
fold, the JSON text of float arrays, the log-likelihood's log-gamma terms and
the co-document counts of coherence and PMI.

All are small C functions, compiled on first import into a cache
directory and called through one ctypes handle. Without a C compiler their
twins run instead: ``_sweep_py``, ``_tabulate_py``, ``_log_sum_py``,
``json.dumps(a.tolist())``, ``_gammaln_py``, ``_gammaln_cells_py`` and
``_co_doc_py``, the ``scipy.sparse`` product X.T @ X. Each pair gives the
same bits: the sweep does the same arithmetic in the same order on pre-drawn
uniforms, and the fold adds libm's ``log`` (what ``math.log`` calls) left to
right. The JSON
writer walks an array once, giving each value of a row that it has not met
earlier in the row ``float.__repr__``'s shortest round-trip digits with
Ryu's digit loop, exact in 128-bit integers for zeros, non-finite values and
2^-45 <= |x| < 2^54, and copying the text of a repeat; a block of rows with
any finite value outside that range is written by ``json.dumps``. The
snapshot sweep's per-document step runs ``sweep_tokens`` too, on either
backend.

Log-gamma is Moshier's Cephes ``lgam`` (Cephes Math Library, "Methods and
Programs for Mathematical Functions", 1989), which ``scipy.special.gammaln``
runs, copied operation for operation for x > 0; scipy is imported by the
twins alone, ``scipy.special`` here and ``scipy.sparse`` for the counts.
Below 13 the rational approximation is taken at Cephes' ``x + (p - 2)``: at
u - 2, for the shifted u, the last bit of about a quarter of the values in
(0, 3) moves.

The sweep's word-topic counts are word-major (V x K), and the prior comes as its
R distinct rows, word-major (V x R), and each topic's row index, so the
weights a token's conditional reads lie next to each other in memory.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import logging
import math
import operator
import os
import subprocess
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# perfbench reads this to label the backend; no numba kernel remains.
HAVE_NUMBA = False

# lgam(x) is finite up to here and inf above it
LGAM_MAX = 2.556348e305

# sweep and tabulate first check every token's word, document and topic, and
# return the first bad token's index before they change anything. The sweep's
# tie rule is searchsorted(side="right"): the first k with cum[k] > u, capped
# at K-1. Topic k's weight for word w is eta[w * R + rows[k]], from the R
# distinct prior rows held word-major. cum holds 3K doubles: the running
# totals, then each topic's n_dk + alpha in the current document, refilled
# whenever the document changes, and its n_k + eta_sums, both updated for the
# two topics a token moves between. The K quotients are taken a pair at a time
# in 16-byte vectors, GCC's vector extension (scalar code where the target has
# no such registers), so two divisions overlap the running sum, which stays one
# left-to-right chain, as np.cumsum adds. These are the operations of the plain
# formula on the same values, so every bit is as it was; -ffp-contract=off
# keeps the compiler from fusing a multiply and an add.
# log_sum returns the index of its first entry <= 0, where math.log raises.
# json_floats writes json.dumps's text of rows lists of cols values, one list
# if not nested, in one pass into out, and returns its length. A value seen
# earlier in the same row is copied from where its text was first written, as
# one 24-byte move whose bytes past the text are overwritten later (out holds
# 24 bytes more than the text needs): its 64-bit pattern is probed for from
# the high bits of a multiplicative hash in a table of 1 << bits >= 2 * cols
# slots, whose slot holds the pattern and the offset and length of its text,
# and after them room for cols slot numbers: the slots a row filled, which are
# emptied after it, so the table is empty again on every return, as it must be
# on entry, and no row clears the whole table. It returns -1 at the first
# finite nonzero value outside 2^-45 <= |x| < 2^54, where the digit loop of
# Ryu (Adams, PLDI 2018) in repr is exact in 128-bit integers: there its binary
# exponent e2 is negative and i <= 31, so mv*5^i < 2^128 for mv < 2^55 (5^i is
# read from POW5), and the floors vr, vp and vm of x and of the bounds of its
# rounding interval, scaled by 5^i / 2^q, are exact. Digits are dropped, two
# at a time while two can go, while vp and vm differ above the last one; the last dropped
# digit rounds vr, half to even when x scaled was whole and every digit dropped
# before that 5 was 0, as repr rounds. Ryu's handling of a bound that is
# itself exact is left out, as in this range a bound is never the shortest,
# closest decimal: below 2^50 no bound is exact (q >= 2, and mm and mp have at
# most one trailing zero bit), and above it x has no more digits than its
# bounds x +- ulp/2 and x - ulp/4 and is closer. The digits, written two at a
# time from DIGIT_PAIRS, are then laid out as repr lays them out, in at most 23
# bytes ("-1.2345678901234567e-14").
# gammaln_cells writes cells lo..hi-1 of the (K, V) grid of the word-major
# counts, in C order, 0.0 where the count is 0, taking lgam of each weight from
# the table lgam_eta laid out as eta. It and gammaln return the index of the
# first value, or occupied cell, where an argument of lgam is not > 0: its
# shifting loops would never end on -inf or a huge negative x.
# co_doc returns the index of the first entry of rows outside [0, D); then it
# buckets the entries by document with a counting sort (ends[d] ends up where
# document d's run of column numbers ends) and adds 1 to counts[cols[a]][cols[b]]
# for each ordered pair (a, b) of positions in a run, a == b included: that is
# X.T @ X exactly, repeated rows within a column too.
# Mirroring the pairs a < b would halve the adds, but the mirror touches every
# page of the m x m result, which cost more than it saved at m = 1,500.
_POW5 = ", ".join(f"{{{p % 2**64}u, {p >> 64}u}}" for p in (5**i for i in range(32)))
_DIGIT_PAIRS = "".join(f"{i:02d}" for i in range(100))
_C_SOURCE = (f"#define LGAM_MAX {LGAM_MAX!r}\n#define POW5 {{{_POW5}}}\n"
             f'#define DIGIT_PAIRS "{_DIGIT_PAIRS}"\n') + r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double pair __attribute__((vector_size(16)));

static int64_t first_bad(const int32_t *tokens, const int32_t *doc_ix, const int32_t *z,
                         int64_t n, int64_t D, int64_t K, int64_t V)
{
    for (int64_t t = 0; t < n; t++)
        if (tokens[t] < 0 || tokens[t] >= V || doc_ix[t] < 0 || doc_ix[t] >= D
            || z[t] < 0 || z[t] >= K)
            return t;
    return -1;
}

int64_t tabulate(const int32_t *tokens, const int32_t *doc_ix, const int32_t *z, int64_t n,
                 int32_t *n_dk, int32_t *n_wk, int32_t *n_k, int64_t D, int64_t K, int64_t V)
{
    int64_t bad = first_bad(tokens, doc_ix, z, n, D, K, V);
    for (int64_t t = 0; bad < 0 && t < n; t++) {
        n_dk[doc_ix[t] * K + z[t]]++;
        n_wk[tokens[t] * K + z[t]]++;
        n_k[z[t]]++;
    }
    return bad;
}

int64_t sweep(const int32_t *tokens, const int32_t *doc_ix, int32_t *z, int64_t n,
              int32_t *n_dk, int32_t *n_wk, int32_t *n_k, const double *eta,
              const int64_t *rows, const double *eta_sums, double alpha,
              const double *uniforms, double *cum, int64_t D, int64_t K, int64_t V, int64_t R)
{
    int64_t bad = first_bad(tokens, doc_ix, z, n, D, K, V);
    if (bad >= 0)
        return bad;
    double *dterm = cum + K, *den = cum + 2 * K;
    for (int64_t k = 0; k < K; k++)
        den[k] = n_k[k] + eta_sums[k];
    for (int64_t t = 0, doc = -1; t < n; t++) {
        int64_t w = tokens[t], k = z[t], j = 0;
        int32_t *dk = n_dk + doc_ix[t] * K, *wk = n_wk + w * K;
        const double *ew = eta + w * R;
        if (doc_ix[t] != doc)
            for (doc = doc_ix[t]; j < K; j++)
                dterm[j] = dk[j] + alpha;
        dk[k]--; wk[k]--; n_k[k]--;
        dterm[k] = dk[k] + alpha, den[k] = n_k[k] + eta_sums[k];
        double total = 0.0;
        for (j = 0; j + 1 < K; j += 2) {
            pair a, c, b = {wk[j] + ew[rows[j]], wk[j + 1] + ew[rows[j + 1]]};
            memcpy(&a, dterm + j, sizeof a);
            memcpy(&c, den + j, sizeof c);
            pair quotient = a * b / c;
            cum[j] = total += quotient[0];
            cum[j + 1] = total += quotient[1];
        }
        if (j < K)
            cum[j] = total += dterm[j] * (wk[j] + ew[rows[j]]) / den[j];
        double u = uniforms[t] * total;
        for (k = 0; k < K - 1 && cum[k] <= u; k++)
            ;
        z[t] = (int32_t)k;
        dk[k]++; wk[k]++; n_k[k]++;
        dterm[k] = dk[k] + alpha, den[k] = n_k[k] + eta_sums[k];
    }
    return -1;
}

int64_t log_sum(const double *x, int64_t n, double *total)
{
    for (int64_t i = 0; i < n; i++) {
        if (x[i] <= 0)
            return i;
        *total += log(x[i]);
    }
    return -1;
}

static int64_t put(char *out, int64_t at, const char *s, int64_t len)
{
    memcpy(out + at, s, len);
    return at + len;
}

static int64_t repr(uint64_t bits, char *out)
{
    uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    int neg = bits >> 63, ex = (bits >> 52) & 0x7FF;
    if (ex == 0x7FF || (ex == 0 && !frac)) {  /* NaN, the infinities, the zeros */
        const char *s = ex ? (frac ? "NaN" : "-Infinity" + !neg) : "-0.0" + !neg;
        return put(out, 0, s, strlen(s));
    }
    if (ex < 978 || ex > 1076)
        return -1;
    int e2 = ex - 1077, q = ((-e2 * 732923) >> 20) - (e2 < -1), i = -e2 - q;
    static const uint64_t pow5[32][2] = POW5;  /* 5^i's low and high 64 bits */
    unsigned __int128 five = (unsigned __int128)pow5[i][1] << 64 | pow5[i][0];
    uint64_t mv = 4 * (frac | (UINT64_C(1) << 52)), mm = mv - 1 - (frac != 0);
    unsigned __int128 r = mv * five;
    uint64_t vr = r >> q, vp = ((mv + 2) * five) >> q, vm = (mm * five) >> q;
    int exact = !(r & (((unsigned __int128)1 << q) - 1)), removed = 0, last = 0, n = 0;
    for (; vp / 100 > vm / 100; vr /= 100, vp /= 100, vm /= 100, removed += 2) {
        exact &= last == 0 && vr % 10 == 0;
        last = vr % 100 / 10;
    }
    while (vp / 10 > vm / 10) {
        exact &= last == 0;
        last = vr % 10;
        vr /= 10, vp /= 10, vm /= 10, removed++;
    }
    if (exact && last == 5 && vr % 2 == 0)
        last = 4;
    uint64_t digits = vr + (vr == vm || last >= 5);
    char d[20];
    for (; digits >= 10; digits /= 100, n += 2)
        memcpy(d + 18 - n, DIGIT_PAIRS + 2 * (digits % 100), 2);
    if (digits)
        d[19 - n++] = '0' + digits;
    const char *s = d + 20 - n;
    int point = q + e2 + removed + n, e = point > 0 ? point - 1 : 1 - point;
    int64_t at = neg ? put(out, 0, "-", 1) : 0;
    if (point <= -4 || point > 16) {
        at = put(out, at, s, 1);
        if (n > 1)
            at = put(out, put(out, at, ".", 1), s + 1, n - 1);
        char tail[4] = {'e', point > 0 ? '+' : '-', '0' + e / 10, '0' + e % 10};
        return put(out, at, tail, 4);
    }
    if (point <= 0)
        return put(out, put(out, at, "0.000", 2 - point), s, n);
    if (point < n)
        return put(out, put(out, put(out, at, s, point), ".", 1), s + point, n - point);
    return put(out, put(out, put(out, at, s, n), "0000000000000000", point - n), ".0", 2);
}

int64_t json_floats(const uint64_t *x, int64_t rows, int64_t cols, int64_t nested,
                    uint64_t *table, int64_t bits, char *out)
{
    uint64_t mask = ((uint64_t)1 << bits) - 1, *used = table + 2 * (mask + 1);
    int64_t at = put(out, 0, "[", 1), n_used = 0;
    for (int64_t r = 0; r < rows; r++, x += cols) {
        while (n_used)  /* empty the slots the last row used */
            table[2 * used[--n_used] + 1] = 0;
        if (nested)
            at = r ? put(out, at, ",[", 2) : put(out, at, "[", 1);
        for (int64_t c = 0; c < cols; c++) {
            uint64_t s = (x[c] * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - bits);
            if (c)
                out[at++] = ',';
            while (table[2 * s + 1] && table[2 * s] != x[c])
                s = (s + 1) & mask;
            uint64_t *slot = table + 2 * s;  /* the pattern, and its text's offset << 5 | length */
            if (slot[1]) {  /* the 24 bytes are read before any is written */
                char text[24];
                memcpy(text, out + (slot[1] >> 5), 24);
                memcpy(out + at, text, 24);
                at += slot[1] & 31;
                continue;
            }
            int64_t len = repr(x[c], out + at);
            if (len < 0) {
                while (n_used)
                    table[2 * used[--n_used] + 1] = 0;
                return -1;
            }
            slot[0] = x[c], slot[1] = (uint64_t)at << 5 | len, used[n_used++] = s;
            at += len;
        }
        if (nested)
            at = put(out, at, "]", 1);
    }
    while (n_used)
        table[2 * used[--n_used] + 1] = 0;
    return put(out, at, "]", 1);
}

/* Cephes' coefficients; C's leading 1 makes polevl(x, C, 6) p1evl's x + C[1] exactly */
static const double A[] = {8.11614167470508450300e-4, -5.95061904284301438324e-4,
                           7.93650340457716943945e-4, -2.77777777730099687205e-3,
                           8.33333333333331927722e-2};
static const double B[] = {-1.37825152569120859100e3, -3.88016315134637840924e4,
                           -3.31612992738871184744e5, -1.16237097492762307383e6,
                           -1.72173700820839662146e6, -8.53555664245765465627e5};
static const double C[] = {1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
                           -2.20528590553854454839e5, -1.13933444367982507207e6,
                           -2.53252307177582951285e6, -2.01889141433532773231e6};

static double polevl(double x, const double *coef, int n)
{
    double ans = *coef++;
    while (n--)
        ans = ans * x + *coef++;
    return ans;
}

static double lgam(double x)
{
    if (x < 13.0) {
        double z = 1.0, p = 0.0, u = x;
        while (u >= 3.0) {
            p -= 1.0;
            u = x + p;
            z *= u;
        }
        while (u < 2.0) {
            z /= u;
            p += 1.0;
            u = x + p;
        }
        if (u == 2.0)
            return log(z);
        p -= 2.0;
        x = x + p;
        return log(z) + x * polevl(x, B, 5) / polevl(x, C, 6);
    }
    if (x > LGAM_MAX)
        return INFINITY;
    double q = (x - 0.5) * log(x) - x + 0.91893853320467274178;
    if (x > 1.0e8)
        return q;
    double p = 1.0 / (x * x);
    if (x >= 1000.0)
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x;
    return q + polevl(p, A, 4) / x;
}

int64_t gammaln(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        if (!(x[i] > 0))
            return i;
        out[i] = lgam(x[i]);
    }
    return -1;
}

int64_t gammaln_cells(const int32_t *n_wk, const double *eta, const double *lgam_eta,
                      const int64_t *rows, int64_t K, int64_t V, int64_t R,
                      double *cells, int64_t lo, int64_t hi)
{
    if (lo >= hi)
        return -1;
    for (int64_t at = lo, k = lo / V, v = lo % V; at < hi; at++) {
        double c = n_wk[v * K + k];
        int64_t e_at = v * R + rows[k];
        if (c == 0)
            cells[at - lo] = 0.0;
        else if (!(eta[e_at] > 0 && c + eta[e_at] > 0))
            return at;
        else
            cells[at - lo] = lgam(c + eta[e_at]) - lgam_eta[e_at];
        if (++v == V)
            v = 0, k++;
    }
    return -1;
}

int64_t co_doc(const int64_t *rows, const int64_t *indptr, int64_t m, int64_t D,
               int64_t *ends, int64_t *cols, int64_t *counts)
{
    int64_t nnz = indptr[m];
    for (int64_t e = 0; e < nnz; e++)
        if (rows[e] < 0 || rows[e] >= D)
            return e;
    for (int64_t e = 0; e < nnz; e++)
        ends[rows[e] + 1]++;
    for (int64_t d = 0; d < D; d++)
        ends[d + 1] += ends[d];
    for (int64_t j = 0; j < m; j++)
        for (int64_t e = indptr[j]; e < indptr[j + 1]; e++)
            cols[ends[rows[e]]++] = j;
    for (int64_t d = 0, lo = 0; d < D; lo = ends[d++])
        for (int64_t a = lo; a < ends[d]; a++) {
            int64_t *row = counts + cols[a] * m;
            for (int64_t b = lo; b < ends[d]; b++)
                row[cols[b]]++;
        }
    return -1;
}
"""
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build() -> Path:
    """Compile the C source into the cache, unless it is there already; libm
    is linked after the source.

    The library is named by a hash of the source and the command, and written
    under a temporary name first, so processes building at once do not
    break each other.
    """
    command = ["cc", *_CFLAGS, "-o", "kernels.so", "kernels.c", "-lm"]
    key = hashlib.sha256(" ".join([_C_SOURCE, *command]).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "priorlda"
    lib = cache / f"kernels-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        (Path(tmp) / "kernels.c").write_text(_C_SOURCE, encoding="utf-8")
        subprocess.run(command, cwd=tmp, check=True, capture_output=True, text=True)
        os.replace(Path(tmp) / "kernels.so", lib)
    return lib


def _load():
    """The compiled entry points in ``_ENTRIES`` order, or Nones after one
    warning."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except (subprocess.CalledProcessError, OSError) as exc:  # no compiler, or it failed
        log.warning("C kernels unavailable, using the Python twins: %s",
                    getattr(exc, "stderr", None) or exc)
        return (None,) * len(_ENTRIES)
    entries = []
    for name, argtypes in _ENTRIES.items():
        entry = getattr(lib, name)
        entry.argtypes, entry.restype = argtypes, ctypes.c_int64
        entries.append(entry)
    return entries


_ptr, _i64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_ENTRIES = {"sweep": [_ptr] * 3 + [_i64] + [_ptr] * 6 + [_f64, _ptr, _ptr] + [_i64] * 4,
            "tabulate": [_ptr] * 3 + [_i64] + [_ptr] * 3 + [_i64] * 3,
            "log_sum": [_ptr, _i64, _ptr],
            "json_floats": [_ptr, _i64, _i64, _i64, _ptr, _i64, _ptr],
            "gammaln": [_ptr, _i64, _ptr],
            "gammaln_cells": [_ptr] * 4 + [_i64] * 3 + [_ptr, _i64, _i64],
            "co_doc": [_ptr, _ptr, _i64, _i64, _ptr, _ptr, _ptr]}
(_sweep_c, _tabulate_c, _log_sum_c, _json_floats_c, _gammaln_c, _gammaln_cells_c,
 _co_doc_c) = _load()
BACKEND = "numpy" if _sweep_c is None else "c"


def _check_array(name, arr, dtype, ndim):
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == ndim
            and arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a {ndim}-D C-contiguous {np.dtype(dtype)} array")


def _address(a: np.ndarray):
    """a's data pointer for a C call: through the buffer protocol, 4x cheaper
    than ``a.ctypes.data``, where a is writable and not empty."""
    return (ctypes.byref(ctypes.c_char.from_buffer(a)) if a.flags.writeable and a.size
            else a.ctypes.data)


def log_sum(x: np.ndarray) -> float:
    """0.0 + log(x[0]) + log(x[1]) + ... for a 1-D C-contiguous float64 x, added left
    to right with ``math.log``'s bits: NaN and +inf pass through, entries <= 0 raise."""
    _check_array("x", x, np.float64, 1)
    total = ctypes.c_double(0.0)
    bad = (_log_sum_py(x, total) if _log_sum_c is None
           else _log_sum_c(_address(x), len(x), ctypes.byref(total)))
    if bad >= 0:
        raise ValueError(f"x[{bad}] = {float(x[bad])!r} is outside the domain of log")
    return total.value


def _log_sum_py(x, total):
    bad = np.flatnonzero(x <= 0)
    if bad.size:
        return int(bad[0])
    # a strict left fold: sum() compensates from Python 3.12, np.sum is pairwise
    total.value = functools.reduce(operator.add, map(math.log, x.tolist()), 0.0)
    return -1


def gammaln(x: np.ndarray) -> np.ndarray:
    """``scipy.special.gammaln`` of a 1-D C-contiguous float64 x, bit for bit;
    entries that are not > 0 raise."""
    _check_array("x", x, np.float64, 1)
    out = np.empty_like(x)
    bad = (_gammaln_py(x, out) if _gammaln_c is None
           else _gammaln_c(_address(x), len(x), _address(out)))
    if bad >= 0:
        raise ValueError(f"x[{bad}] = {float(x[bad])!r} is outside the domain of gammaln")
    return out


def _gammaln_py(x, out):
    from scipy.special import gammaln
    bad = np.flatnonzero(~(x > 0))
    if bad.size:
        return int(bad[0])
    gammaln(x, out=out)
    return -1


# the most cells gammaln_cell_sum and take_sum fill at a time: 64 KB of float64
CELL_LEAF = 8192


def gammaln_cell_sum(n_wk: np.ndarray, eta_wk: np.ndarray, gammaln_wk: np.ndarray,
                     topic_rows: np.ndarray) -> float:
    """``np.add.reduce`` over the (K, V) grid, in C order, of ``gammaln(n_wk[v, k] +
    eta) - gammaln(eta)``, eta = ``eta_wk[v, topic_rows[k]]``, 0.0 where the count
    is 0, for word-major int32 counts, the word-major (V, R) float64 weights of R
    prior rows and their ``gammaln`` in ``gammaln_wk``, bit for bit but with no K x V
    array. The first occupied cell, in C order, with an argument not > 0 raises."""
    _check_array("n_wk", n_wk, np.int32, 2)
    _check_array("eta_wk", eta_wk, np.float64, 2)
    _check_array("gammaln_wk", gammaln_wk, np.float64, 2)
    _check_rows(n_wk, eta_wk, topic_rows)
    if gammaln_wk.shape != eta_wk.shape:
        raise ValueError(f"gammaln_wk is {gammaln_wk.shape}, eta_wk is {eta_wk.shape}")
    if _gammaln_cells_c is None:
        return _gammaln_cells_py(n_wk, eta_wk, gammaln_wk, topic_rows)
    cells = np.empty(min(n_wk.size, CELL_LEAF))
    args = (_address(n_wk), _address(eta_wk), _address(gammaln_wk), _address(topic_rows),
            *n_wk.shape[::-1], eta_wk.shape[1], _address(cells))

    def fill(lo, hi):
        _check_cell(n_wk, eta_wk, topic_rows, _gammaln_cells_c(*args, lo, hi))
    return float(_pairwise(fill, cells, 0, n_wk.size))


def take_sum(table: np.ndarray, index: np.ndarray) -> float:
    """``table.take(index).sum()`` for a C-contiguous index of positions in
    table, bit for bit, but taking at most CELL_LEAF values at a time."""
    flat = index.reshape(-1)
    cells = np.empty(min(flat.size, CELL_LEAF))
    return float(_pairwise(lambda lo, hi: table.take(flat[lo:hi], out=cells[:hi - lo],
                                                     mode="clip"), cells, 0, flat.size))


def _pairwise(fill, cells, lo, hi):
    """np.add.reduce of the values lo..hi-1 of a grid that fill(lo, hi) writes
    into cells, if at most CELL_LEAF, else the sum of the halves numpy's
    pairwise sum splits n > 128 values into: the first n // 2 rounded down to a
    multiple of 8, and the rest. So the total has np.add.reduce's bits over the
    whole grid."""
    if hi - lo > CELL_LEAF:
        mid = lo + (hi - lo) // 2 // 8 * 8
        return _pairwise(fill, cells, lo, mid) + _pairwise(fill, cells, mid, hi)
    fill(lo, hi)
    return np.add.reduce(cells[:hi - lo])


def _check_rows(n_wk, eta_wk, topic_rows):
    """Raise ValueError unless topic_rows gives each of n_wk's K topics a column
    of eta_wk, and eta_wk covers n_wk's V words."""
    _check_array("topic_rows", topic_rows, np.int64, 1)
    if n_wk.shape != (len(eta_wk), len(topic_rows)):
        raise ValueError(f"n_wk is {n_wk.shape}, eta_wk is {eta_wk.shape} and topic_rows "
                         f"has {len(topic_rows)} topics")
    # one reduction: as unsigned, a negative row is above 2^63
    if topic_rows.size and not topic_rows.view(np.uint64).max() < eta_wk.shape[1]:
        raise ValueError(f"topic_rows has a row outside [0, {eta_wk.shape[1]})")


def _check_cell(n_wk, eta_wk, topic_rows, at):
    if at >= 0:
        k, w = divmod(at, n_wk.shape[0])
        raise ValueError(f"cell ({k}, {w}): count {n_wk[w, k]} and weight "
                         f"{eta_wk[w, topic_rows[k]]!r} are outside the domain of gammaln")


def _gammaln_cells_py(n_wk, eta_wk, gammaln_wk, topic_rows):
    from scipy.special import gammaln
    counts = np.ravel(n_wk.T)  # the (K, V) grid in C order
    occupied = np.flatnonzero(counts != 0)  # faster on bools than on int32
    e, g = (np.ravel(a.T[topic_rows])[occupied] for a in (eta_wk, gammaln_wk))
    args = counts[occupied] + e
    bad = np.flatnonzero(~((e > 0) & (args > 0)))
    _check_cell(n_wk, eta_wk, topic_rows, int(occupied[bad[0]]) if bad.size else -1)
    cells = np.zeros(counts.size)
    cells[occupied] = gammaln(args) - g
    return float(cells.sum())


def co_doc_counts(index, lengths, ids, n_docs: int) -> np.ndarray:
    """X.T @ X, exactly, as an int64 (m, m) array, where column j of the n_docs x m
    matrix X counts each document index in word ids[j]'s run of the int64 ``index``,
    the lengths[ids[j]] entries after the runs of words 0..ids[j]-1: for runs of
    distinct indices, entry (i, j) is the number of documents in both runs. The first id
    not an integer in [0, len(lengths)), else index outside [0, n_docs), raises ValueError.
    """
    _check_array("index", index, np.int64, 1)
    v, a = len(lengths), np.asarray(ids)
    if a.size and not (a.ndim == 1 and a.dtype.kind in "iu" and 0 <= a.min() <= a.max() < v):
        for i in ids:  # types before the cast, which would cut 1.5 to 1
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < v:
                raise ValueError(f"word id {i} is not an integer in [0, {v})")
    ids = a.astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths[ids])])
    starts = (np.cumsum(lengths) - lengths)[ids]  # where each id's run starts in index
    rows = index[np.repeat(starts - indptr[:-1], lengths[ids]) + np.arange(indptr[-1])]
    counts = np.zeros((ids.size, ids.size), np.int64)
    if _co_doc_c is None:
        bad = _co_doc_py(rows, indptr, n_docs, counts)
    else:
        ends, cols = np.zeros(n_docs + 1, np.int64), np.empty_like(rows)
        bad = _co_doc_c(_address(rows), _address(indptr), ids.size, n_docs,
                        _address(ends), _address(cols), _address(counts))
    if bad >= 0:
        raise ValueError(f"document index {rows[bad]} is outside D={n_docs}")
    return counts


def _co_doc_py(rows, indptr, n_docs, counts):
    from scipy import sparse
    bad = np.flatnonzero((rows < 0) | (rows >= n_docs))
    if bad.size:
        return int(bad[0])
    x = sparse.csc_array((np.ones(rows.size, dtype=np.int64), rows, indptr),
                         shape=(n_docs, len(counts)))
    counts[...] = (x.T @ x).toarray()
    return -1


def json_floats(a: np.ndarray) -> Iterator[bytes | memoryview]:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` as ASCII pieces, for a
    1-D or 2-D float64 array: "[", each block of rows' text without its outer
    brackets, "," between blocks, "]". A block is as many rows as fit in 2^14
    values, or one row; a 1-D array is one row. The kernel formats each
    distinct bit pattern of a row once, so -0.0 and every NaN keep their own
    text, into one buffer all blocks reuse: write a piece before drawing the
    next. A block with a finite nonzero value outside the range it formats
    exactly, 2^-45 <= |x| < 2^54, goes to the twin, ``json.dumps`` itself."""
    if a.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {a.dtype}")
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D or 2-D array, got {a.ndim}-D")
    return _json_blocks(a, _json_floats_c)


def _json_blocks(a, kernel):
    rows, cols = a.shape if a.ndim == 2 else (1, a.size)
    step = max(1, (1 << 14) // max(1, cols))  # rows per block: about 400 KB of text
    table_bits = max(1, (2 * cols - 1).bit_length())
    table = np.zeros((2 << table_bits) + cols, np.uint64)  # the kernel leaves it empty
    # a value's text and its comma take at most 24 bytes, a row's brackets and
    # comma 3, the outer brackets 2, and a repeat's 24-byte copy 24 more
    out = np.empty((24 * cols + 3) * min(step, rows) + 26, np.uint8)
    yield b"["
    for lo in range(0, rows, step):
        x = np.ascontiguousarray(a[lo:lo + step] if a.ndim == 2 else a)
        n = -1 if kernel is None else kernel(_address(x), len(x) if a.ndim == 2 else 1, cols,
                                             a.ndim == 2, _address(table), table_bits,
                                             _address(out))
        if lo:
            yield b","
        yield (out[1:n - 1].data if n >= 0
               else json.dumps(x.tolist(), separators=(",", ":"))[1:-1].encode())
    yield b"]"


def _check_sweep_args(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, topic_rows, eta_sums,
                      uniforms):
    """Raise ValueError unless the arrays have the dtypes, layout and shapes
    the kernel indexes them by."""
    arrays = {"tokens": tokens, "doc_ix": doc_ix, "z": z, "n_dk": n_dk, "n_wk": n_wk,
              "n_k": n_k, "eta_wk": eta_wk, "eta_sums": eta_sums, "uniforms": uniforms}
    for name, arr in arrays.items():
        _check_array(name, arr, np.float64 if name in ("eta_wk", "eta_sums", "uniforms")
                     else np.int32, 2 if name in ("n_dk", "n_wk", "eta_wk") else 1)
    if not n_dk.shape[1] == n_wk.shape[1] == len(n_k) == len(eta_sums):
        raise ValueError("n_dk, n_wk, n_k and eta_sums disagree about the topic count")
    _check_rows(n_wk, eta_wk, topic_rows)
    if not len(uniforms) == len(tokens) == len(doc_ix) == len(z):
        raise ValueError("uniforms, tokens, doc_ix and z differ in length")


def _check_tokens(first_bad, tokens, doc_ix, z, n_docs, k_total, vocab_size):
    if first_bad >= 0:
        raise ValueError(
            f"token {first_bad}: word {tokens[first_bad]}, document {doc_ix[first_bad]} "
            f"or topic {z[first_bad]} is outside V={vocab_size}, D={n_docs}, K={k_total}")


def _first_bad_py(tokens, doc_ix, z, n_docs, k_total, vocab_size):
    bad = ((tokens < 0) | (tokens >= vocab_size) | (doc_ix < 0) | (doc_ix >= n_docs)
           | (z < 0) | (z >= k_total))
    return int(bad.argmax()) if bad.any() else -1


def tabulate(tokens, doc_ix, z, n_docs: int, n_topics: int, vocab_size: int):
    """The counts n_dk (D, K), n_wk (V, K, word-major, as the sweep takes it)
    and n_k (K,) of the int32 assignments z, as int32 arrays, in one pass.
    Raises ValueError, naming the first bad token, if a word, document or
    topic is out of range; every index is checked before any is counted."""
    for name, arr in (("tokens", tokens), ("doc_ix", doc_ix), ("z", z)):
        _check_array(name, arr, np.int32, 1)
    if not len(tokens) == len(doc_ix) == len(z):
        raise ValueError("tokens, doc_ix and z differ in length")
    counts = (np.zeros((n_docs, n_topics), np.int32), np.zeros((vocab_size, n_topics), np.int32),
              np.zeros(n_topics, np.int32))
    dims = (n_docs, n_topics, vocab_size)
    first_bad = (_tabulate_py(tokens, doc_ix, z, *counts, *dims) if _tabulate_c is None
                 else _tabulate_c(_address(tokens), _address(doc_ix), _address(z), len(z),
                                  *map(_address, counts), *dims))
    _check_tokens(first_bad, tokens, doc_ix, z, *dims)
    return counts


def _tabulate_py(tokens, doc_ix, z, n_dk, n_wk, n_k, n_docs, k_total, vocab_size):
    first_bad = _first_bad_py(tokens, doc_ix, z, n_docs, k_total, vocab_size)
    if first_bad < 0:
        np.add.at(n_dk, (doc_ix, z), 1)
        np.add.at(n_wk, (tokens, z), 1)
        np.add.at(n_k, z, 1)
    return first_bad


def sweep_tokens(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, topic_rows, eta_sums, alpha,
                 uniforms):
    """Resample every token once, in order, updating z and the counts in place.

    n_dk is (D, K); n_wk is word-major (V, K): row w holds word w's count in
    every topic. eta_wk holds R distinct prior rows word-major (V, R), and
    topic k's weights are its column topic_rows[k]; eta_sums are the K row
    sums. The C kernel keeps each topic's n_dk + alpha and n_k + eta_sums
    between tokens, and the Python twin recomputes them, with the same bits.
    Raises ValueError, changing nothing, if an argument is malformed or a
    token's word, document or topic is out of range.
    """
    _check_sweep_args(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, topic_rows, eta_sums,
                      uniforms)
    dims = (*n_dk.shape, n_wk.shape[0])
    if _sweep_c is None:
        first_bad = _first_bad_py(tokens, doc_ix, z, *dims)
        if first_bad < 0:
            _sweep_py(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, topic_rows, eta_sums, alpha,
                      uniforms)
    else:
        # the running totals, and the kernel's two cached terms per topic
        cum = np.empty(3 * len(n_k))
        first_bad = _sweep_c(_address(tokens), _address(doc_ix), _address(z), len(tokens),
                             _address(n_dk), _address(n_wk), _address(n_k), _address(eta_wk),
                             _address(topic_rows), _address(eta_sums), alpha,
                             _address(uniforms), _address(cum), *dims, eta_wk.shape[1])
    _check_tokens(first_bad, tokens, doc_ix, z, *dims)


def _sweep_py(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, topic_rows, eta_sums, alpha,
              uniforms):
    k_total = n_k.shape[0]
    for t in range(tokens.shape[0]):
        w = tokens[t]
        d = doc_ix[t]
        k_old = z[t]
        n_dk[d, k_old] -= 1
        n_wk[w, k_old] -= 1
        n_k[k_old] -= 1
        p = (n_dk[d] + alpha) * (n_wk[w] + eta_wk[w, topic_rows]) / (n_k + eta_sums)
        cum = np.cumsum(p)
        k_new = min(int(np.searchsorted(cum, uniforms[t] * cum[-1], side="right")),
                    k_total - 1)
        z[t] = k_new
        n_dk[d, k_new] += 1
        n_wk[w, k_new] += 1
        n_k[k_new] += 1


def sweep_doc_snapshot(tokens, z, n_dk_row, n_wk, n_k, wk_snap, k_snap,
                       eta_wk, topic_rows, eta_sums, alpha, uniforms):
    """Resample one document's tokens against the sweep-start counts.

    n_wk and n_k hold the snapshot wk_snap and k_snap on entry. The document
    runs through ``sweep_tokens`` on them, seeing only its own changes, and
    the rows of its words and the topic totals are then put back to the
    snapshot. n_dk_row and z are updated in place.
    """
    sweep_tokens(tokens, np.zeros(len(tokens), dtype=np.int32), z, n_dk_row[None],
                 n_wk, n_k, eta_wk, topic_rows, eta_sums, alpha, uniforms)
    n_wk[tokens] = wk_snap[tokens]
    n_k[:] = k_snap
