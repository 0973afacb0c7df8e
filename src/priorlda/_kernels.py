"""Hot loops: the collapsed Gibbs sweep, coherence's log fold, the JSON text
of float arrays and the log-likelihood's log-gamma terms.

All are small C functions, compiled on first import into a cache
directory and called through one ctypes handle. Without a C compiler their
twins run instead: ``_sweep_py``, ``_log_sum_py``, ``json.dumps(a.tolist())``,
``_gammaln_py`` and ``_gammaln_cells_py``. Each pair gives the same bits: the sweep does the
same arithmetic in the same order on pre-drawn uniforms, and the fold adds
libm's ``log`` (what ``math.log`` calls) left to right. The JSON writer walks
an array once, giving each value of a row that it has not met earlier in the
row ``float.__repr__``'s shortest round-trip digits with Ryu's digit loop,
exact in 128-bit integers for zeros, non-finite values and
2^-45 <= |x| < 2^54, and copying the text of a repeat; an array with any
finite value outside that range is written whole by ``json.dumps``. The
snapshot sweep's per-document step runs ``sweep_tokens`` too, on either
backend.

Log-gamma is Moshier's Cephes ``lgam`` (Cephes Math Library, "Methods and
Programs for Mathematical Functions", 1989), which ``scipy.special.gammaln``
runs, copied operation for operation for x > 0; scipy is imported by the
twins alone. Below 13 the rational approximation is taken at Cephes'
``x + (p - 2)``: at u - 2, for the shifted u, the last bit of about a
quarter of the values in (0, 3) moves.

The sweep's word-topic counts and prior weights are word-major (V x K), so the
K weights a token's conditional reads lie next to each other in memory.
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
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# perfbench reads this to label the backend; no numba kernel remains.
HAVE_NUMBA = False

# lgam(x) is finite up to here and inf above it
LGAM_MAX = 2.556348e305

# The tie rule is searchsorted(side="right"): the first k with cum[k] > u,
# capped at K-1. Running totals are summed in order, as np.cumsum does, and
# -ffp-contract=off keeps the compiler from fusing a multiply and an add.
# log_sum returns the index of its first entry <= 0, where math.log raises.
# json_floats writes json.dumps's text of rows lists of cols values, one list
# if not nested, in one pass into out, and returns its length. A value seen
# earlier in the same row is copied from where its text was first written:
# its 64-bit pattern is probed for from the high bits of a multiplicative hash
# in a table of 1 << bits >= 2 * cols slots, emptied at the start of each row,
# whose slot holds the pattern and the offset and length of its text. It
# returns -1 at the first finite nonzero value outside 2^-45 <= |x| < 2^54,
# where the digit loop of Ryu (Adams, PLDI 2018) in repr is exact in 128-bit
# integers: there its binary exponent e2 is negative and i <= 31, so
# mv*5^i < 2^128 for mv < 2^55, and the floors vr, vp and vm of x and of the
# bounds of its rounding interval, scaled by 5^i / 2^q, are exact. Digits are
# dropped while vp and vm differ above the last one; the last dropped digit
# rounds vr, half to even when x scaled was whole and every digit dropped
# before that 5 was 0, as repr rounds. Ryu's handling of a bound that is
# itself exact is left out, as in this range a bound is never the shortest,
# closest decimal: below 2^50 no bound is exact (q >= 2, and mm and mp have at
# most one trailing zero bit), and above it x has no more digits than its
# bounds x +- ulp/2 and x - ulp/4 and is closer. The digits are then laid out
# as repr lays them out, in at most 23 bytes ("-1.2345678901234567e-14").
# gammaln and gammaln_cells (0.0 where the count is 0) return the index of
# the first value, or occupied cell, where an argument of lgam is not > 0:
# its shifting loops would never end on -inf or a huge negative x.
_C_SOURCE = f"#define LGAM_MAX {LGAM_MAX!r}\n" + r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

int64_t sweep(const int32_t *tokens, const int32_t *doc_ix, int32_t *z, int64_t n,
              int32_t *n_dk, int32_t *n_wk, int32_t *n_k,
              const double *eta, const double *eta_sums, double alpha,
              const double *uniforms, double *cum, int64_t D, int64_t K, int64_t V)
{
    for (int64_t t = 0; t < n; t++)
        if (tokens[t] < 0 || tokens[t] >= V || doc_ix[t] < 0 || doc_ix[t] >= D
            || z[t] < 0 || z[t] >= K)
            return t;
    for (int64_t t = 0; t < n; t++) {
        int64_t w = tokens[t], k = z[t];
        int32_t *dk = n_dk + doc_ix[t] * K;
        int32_t *wk = n_wk + w * K;
        const double *ew = eta + w * K;
        dk[k]--; wk[k]--; n_k[k]--;
        double total = 0.0;
        for (k = 0; k < K; k++) {
            total += (dk[k] + alpha) * (wk[k] + ew[k]) / (n_k[k] + eta_sums[k]);
            cum[k] = total;
        }
        double u = uniforms[t] * total;
        for (k = 0; k < K - 1 && cum[k] <= u; k++)
            ;
        z[t] = (int32_t)k;
        dk[k]++; wk[k]++; n_k[k]++;
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
    unsigned __int128 five = 1;
    while (i--)
        five *= 5;
    uint64_t mv = 4 * (frac | (UINT64_C(1) << 52)), mm = mv - 1 - (frac != 0);
    unsigned __int128 r = mv * five;
    uint64_t vr = r >> q, vp = ((mv + 2) * five) >> q, vm = (mm * five) >> q;
    int exact = !(r & (((unsigned __int128)1 << q) - 1)), removed = 0, last = 0, n = 0;
    while (vp / 10 > vm / 10) {
        exact &= last == 0;
        last = vr % 10;
        vr /= 10, vp /= 10, vm /= 10, removed++;
    }
    if (exact && last == 5 && vr % 2 == 0)
        last = 4;
    uint64_t digits = vr + (vr == vm || last >= 5);
    char d[20];
    for (; digits; digits /= 10)
        d[19 - n++] = '0' + digits % 10;
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
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    int64_t at = put(out, 0, "[", 1);
    for (int64_t r = 0; r < rows; r++, x += cols) {
        memset(table, 0, 2 * (mask + 1) * sizeof *table);
        if (nested)
            at = r ? put(out, at, ",[", 2) : put(out, at, "[", 1);
        for (int64_t c = 0; c < cols; c++) {
            uint64_t s = (x[c] * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - bits);
            if (c)
                at = put(out, at, ",", 1);
            while (table[2 * s + 1] && table[2 * s] != x[c])
                s = (s + 1) & mask;
            uint64_t *slot = table + 2 * s;  /* the pattern, and its text's offset << 5 | length */
            if (slot[1]) {
                at = put(out, at, out + (slot[1] >> 5), slot[1] & 31);
                continue;
            }
            int64_t len = repr(x[c], out + at);
            if (len < 0)
                return -1;
            slot[0] = x[c], slot[1] = (uint64_t)at << 5 | len;
            at += len;
        }
        if (nested)
            at = put(out, at, "]", 1);
    }
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

int64_t gammaln_cells(const int32_t *n_wk, const double *eta, int64_t K, int64_t V,
                      double *cells)
{
    for (int64_t k = 0; k < K; k++)
        for (int64_t v = 0; v < V; v++) {
            int64_t at = k * V + v;
            double c = n_wk[v * K + k], e = eta[at];
            if (c == 0) {
                cells[at] = 0.0;
                continue;
            }
            if (!(e > 0 && c + e > 0))
                return at;
            cells[at] = lgam(c + e) - lgam(e);
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
_ENTRIES = {"sweep": [_ptr] * 3 + [_i64] + [_ptr] * 5 + [_f64, _ptr, _ptr, _i64, _i64, _i64],
            "log_sum": [_ptr, _i64, _ptr],
            "json_floats": [_ptr, _i64, _i64, _i64, _ptr, _i64, _ptr],
            "gammaln": [_ptr, _i64, _ptr],
            "gammaln_cells": [_ptr, _ptr, _i64, _i64, _ptr]}
_sweep_c, _log_sum_c, _json_floats_c, _gammaln_c, _gammaln_cells_c = _load()
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


def gammaln_cells(n_wk: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (K, V) array of ``gammaln(n_wk[v, k] + eta[k, v]) - gammaln(eta[k, v])``
    where the word-major int32 count n_wk[v, k] is not 0, and 0.0 where it is;
    the first occupied cell, in C order, with an argument not > 0 raises."""
    _check_array("n_wk", n_wk, np.int32, 2)
    _check_array("eta", eta, np.float64, 2)
    if n_wk.shape[::-1] != eta.shape:
        raise ValueError(f"n_wk is {n_wk.shape}, eta is {eta.shape}")
    cells = np.empty(eta.shape)
    bad = (_gammaln_cells_py(n_wk, eta, cells) if _gammaln_cells_c is None
           else _gammaln_cells_c(_address(n_wk), _address(eta), *eta.shape, _address(cells)))
    if bad >= 0:
        k, w = divmod(bad, eta.shape[1])
        raise ValueError(f"cell ({k}, {w}): count {n_wk[w, k]} and weight {eta[k, w]!r} "
                         "are outside the domain of gammaln")
    return cells


def _gammaln_cells_py(n_wk, eta, cells):
    from scipy.special import gammaln
    counts = np.ravel(n_wk.T)
    occupied = np.flatnonzero(counts != 0)  # faster on bools than on int32
    e = eta.ravel()[occupied]
    args = counts[occupied] + e
    bad = np.flatnonzero(~((e > 0) & (args > 0)))
    if bad.size:
        return int(occupied[bad[0]])
    cells.fill(0.0)
    cells.ravel()[occupied] = gammaln(args) - gammaln(e)
    return -1


def json_floats(a: np.ndarray) -> bytes | memoryview:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` as ASCII bytes, for a
    1-D or 2-D float64 array.

    The kernel formats each distinct bit pattern of a row once, so -0.0 and
    every NaN keep their own text; a 1-D array is one row. If a finite nonzero
    value lies outside the range it formats exactly, 2^-45 <= |x| < 2^54,
    the whole array goes to the twin, ``json.dumps`` itself.
    """
    if a.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {a.dtype}")
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D or 2-D array, got {a.ndim}-D")
    if _json_floats_c is not None:
        x = np.ascontiguousarray(a)
        rows, cols = a.shape if a.ndim == 2 else (1, a.size)
        table_bits = max(1, (2 * cols - 1).bit_length())
        table = np.empty(2 << table_bits, np.uint64)
        # a value's text and its comma take at most 24 bytes, a row's brackets
        # and comma 3, the outer brackets 2
        out = np.empty(24 * a.size + 3 * rows + 2, np.uint8)
        n = _json_floats_c(_address(x), rows, cols, a.ndim == 2,
                           _address(table), table_bits, _address(out))
        if n >= 0:
            return out[:n].data
    return json.dumps(a.tolist(), separators=(",", ":")).encode()


def _check_sweep_args(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, eta_sums, uniforms):
    """Raise ValueError unless the arrays have the dtypes, layout and shapes
    the kernel indexes them by."""
    arrays = {"tokens": tokens, "doc_ix": doc_ix, "z": z, "n_dk": n_dk, "n_wk": n_wk,
              "n_k": n_k, "eta_wk": eta_wk, "eta_sums": eta_sums, "uniforms": uniforms}
    for name, arr in arrays.items():
        _check_array(name, arr, np.float64 if name in ("eta_wk", "eta_sums", "uniforms")
                     else np.int32, 2 if name in ("n_dk", "n_wk", "eta_wk") else 1)
    if not n_dk.shape[1] == n_wk.shape[1] == len(n_k) == len(eta_sums):
        raise ValueError("n_dk, n_wk, n_k and eta_sums disagree about the topic count")
    if eta_wk.shape != n_wk.shape:
        raise ValueError(f"eta_wk is {eta_wk.shape}, n_wk is {n_wk.shape}")
    if not len(uniforms) == len(tokens) == len(doc_ix) == len(z):
        raise ValueError("uniforms, tokens, doc_ix and z differ in length")


def sweep_tokens(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, eta_sums, alpha, uniforms):
    """Resample every token once, in order, updating z and the counts in place.

    n_dk is (D, K); n_wk and eta_wk are word-major (V, K): row w holds word
    w's count and prior weight in every topic. Raises ValueError, changing
    nothing, if an argument is malformed or a token's word, document or
    topic is out of range.
    """
    _check_sweep_args(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, eta_sums, uniforms)
    (n_docs, k_total), vocab_size = n_dk.shape, n_wk.shape[0]
    if _sweep_c is None:
        bad = ((tokens < 0) | (tokens >= vocab_size) | (doc_ix < 0) | (doc_ix >= n_docs)
               | (z < 0) | (z >= k_total))
        first_bad = int(bad.argmax()) if bad.any() else -1
        if first_bad < 0:
            _sweep_py(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, eta_sums, alpha, uniforms)
    else:
        # the kernel checks every index before it changes anything
        cum = np.empty(k_total)
        first_bad = _sweep_c(_address(tokens), _address(doc_ix), _address(z),
                             len(tokens), _address(n_dk), _address(n_wk),
                             _address(n_k), _address(eta_wk), _address(eta_sums),
                             alpha, _address(uniforms), _address(cum),
                             n_docs, k_total, vocab_size)
    if first_bad >= 0:
        raise ValueError(
            f"token {first_bad}: word {tokens[first_bad]}, document {doc_ix[first_bad]} "
            f"or topic {z[first_bad]} is outside V={vocab_size}, D={n_docs}, K={k_total}")


def _sweep_py(tokens, doc_ix, z, n_dk, n_wk, n_k, eta_wk, eta_sums, alpha, uniforms):
    k_total = n_k.shape[0]
    for t in range(tokens.shape[0]):
        w = tokens[t]
        d = doc_ix[t]
        k_old = z[t]
        n_dk[d, k_old] -= 1
        n_wk[w, k_old] -= 1
        n_k[k_old] -= 1
        p = (n_dk[d] + alpha) * (n_wk[w] + eta_wk[w]) / (n_k + eta_sums)
        cum = np.cumsum(p)
        k_new = min(int(np.searchsorted(cum, uniforms[t] * cum[-1], side="right")),
                    k_total - 1)
        z[t] = k_new
        n_dk[d, k_new] += 1
        n_wk[w, k_new] += 1
        n_k[k_new] += 1


def sweep_doc_snapshot(tokens, z, n_dk_row, n_wk, n_k, wk_snap, k_snap,
                       eta_wk, eta_sums, alpha, uniforms):
    """Resample one document's tokens against the sweep-start counts.

    n_wk and n_k hold the snapshot wk_snap and k_snap on entry. The document
    runs through ``sweep_tokens`` on them, seeing only its own changes, and
    the rows of its words and the topic totals are then put back to the
    snapshot. n_dk_row and z are updated in place.
    """
    sweep_tokens(tokens, np.zeros(len(tokens), dtype=np.int32), z, n_dk_row[None],
                 n_wk, n_k, eta_wk, eta_sums, alpha, uniforms)
    n_wk[tokens] = wk_snap[tokens]
    n_k[:] = k_snap
