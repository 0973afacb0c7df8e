"""Hot loops for the collapsed Gibbs sweeps.

The sequential sweep runs as a small C kernel, compiled on first import into
a cache directory and called through ctypes (which releases the GIL during
the call). Without a C compiler the pure-numpy twin ``_sweep_py`` runs
instead. Both consume pre-drawn uniforms and perform the same arithmetic in
the same order, so a fixed seed yields bit-identical chains either way. The
snapshot sweep's per-document step runs ``sweep_tokens`` too, on either
backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# perfbench reads this to label the backend; no numba kernel remains.
HAVE_NUMBA = False

# The tie rule is searchsorted(side="right"): the first k with cum[k] > u,
# capped at K-1. Running totals are summed in order, as np.cumsum does, and
# -ffp-contract=off keeps the compiler from fusing a multiply and an add.
_C_SOURCE = r"""
#include <stdint.h>

int64_t sweep(const int32_t *tokens, const int32_t *doc_ix, int32_t *z, int64_t n,
              int32_t *n_dk, int32_t *n_kw, int32_t *n_k,
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
        dk[k]--; n_kw[k * V + w]--; n_k[k]--;
        double total = 0.0;
        for (k = 0; k < K; k++) {
            total += (dk[k] + alpha) * (n_kw[k * V + w] + eta[k * V + w])
                     / (n_k[k] + eta_sums[k]);
            cum[k] = total;
        }
        double u = uniforms[t] * total;
        for (k = 0; k < K - 1 && cum[k] <= u; k++)
            ;
        z[t] = (int32_t)k;
        dk[k]++; n_kw[k * V + w]++; n_k[k]++;
    }
    return -1;
}
"""
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build() -> Path:
    """Compile the C source into the cache, unless it is there already.

    The library is named by a hash of the source and the flags, and written
    under a temporary name first, so processes building at once do not
    break each other.
    """
    key = hashlib.sha256(" ".join((_C_SOURCE,) + _CFLAGS).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "priorlda"
    lib = cache / f"sweep-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src, out = Path(tmp) / "sweep.c", Path(tmp) / "sweep.so"
        src.write_text(_C_SOURCE, encoding="utf-8")
        subprocess.run(["cc", *_CFLAGS, "-o", str(out), str(src)],
                       check=True, capture_output=True, text=True)
        os.replace(out, lib)
    return lib


def _load():
    """The compiled sweep function, or None after one warning."""
    try:
        fn = ctypes.CDLL(str(_build())).sweep
    except subprocess.CalledProcessError as exc:
        log.warning("C sweep kernel failed to build, using the numpy twin: %s",
                    exc.stderr.strip())
        return None
    except OSError as exc:
        log.warning("C sweep kernel unavailable, using the numpy twin: %s", exc)
        return None
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, f64, ptr, ptr, i64, i64, i64]
    fn.restype = i64
    return fn


_sweep_c = _load()
BACKEND = "numpy" if _sweep_c is None else "c"


def _check_sweep_args(tokens, doc_ix, z, n_dk, n_kw, n_k, eta, eta_sums, uniforms):
    """Raise ValueError unless the arrays have the dtypes, layout and shapes
    the kernel indexes them by."""
    arrays = {"tokens": tokens, "doc_ix": doc_ix, "z": z, "n_dk": n_dk, "n_kw": n_kw,
              "n_k": n_k, "eta": eta, "eta_sums": eta_sums, "uniforms": uniforms}
    for name, arr in arrays.items():
        want = np.float64 if name in ("eta", "eta_sums", "uniforms") else np.int32
        if not isinstance(arr, np.ndarray) or arr.dtype != want:
            raise ValueError(f"{name} must be a {np.dtype(want)} array")
        if arr.ndim != (2 if name in ("n_dk", "n_kw", "eta") else 1):
            raise ValueError(f"{name} has {arr.ndim} dimensions")
        if not arr.flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous")
    if not n_dk.shape[1] == n_kw.shape[0] == len(n_k) == len(eta_sums):
        raise ValueError("n_dk, n_kw, n_k and eta_sums disagree about the topic count")
    if eta.shape != n_kw.shape:
        raise ValueError(f"eta is {eta.shape}, n_kw is {n_kw.shape}")
    if not len(uniforms) == len(tokens) == len(doc_ix) == len(z):
        raise ValueError("uniforms, tokens, doc_ix and z differ in length")


def sweep_tokens(tokens, doc_ix, z, n_dk, n_kw, n_k, eta, eta_sums, alpha, uniforms):
    """Resample every token once, in order, updating z and the counts in place.

    Raises ValueError, changing nothing, if an argument is malformed or a
    token's word, document or topic is out of range.
    """
    _check_sweep_args(tokens, doc_ix, z, n_dk, n_kw, n_k, eta, eta_sums, uniforms)
    (n_docs, k_total), vocab_size = n_dk.shape, n_kw.shape[1]
    if _sweep_c is None:
        bad = ((tokens < 0) | (tokens >= vocab_size) | (doc_ix < 0) | (doc_ix >= n_docs)
               | (z < 0) | (z >= k_total))
        first_bad = int(bad.argmax()) if bad.any() else -1
        if first_bad < 0:
            _sweep_py(tokens, doc_ix, z, n_dk, n_kw, n_k, eta, eta_sums, alpha, uniforms)
    else:
        # the kernel checks every index before it changes anything
        cum = np.empty(k_total)
        first_bad = _sweep_c(tokens.ctypes.data, doc_ix.ctypes.data, z.ctypes.data,
                             len(tokens), n_dk.ctypes.data, n_kw.ctypes.data,
                             n_k.ctypes.data, eta.ctypes.data, eta_sums.ctypes.data,
                             alpha, uniforms.ctypes.data, cum.ctypes.data,
                             n_docs, k_total, vocab_size)
    if first_bad >= 0:
        raise ValueError(
            f"token {first_bad}: word {tokens[first_bad]}, document {doc_ix[first_bad]} "
            f"or topic {z[first_bad]} is outside V={vocab_size}, D={n_docs}, K={k_total}")


def _sweep_py(tokens, doc_ix, z, n_dk, n_kw, n_k, eta, eta_sums, alpha, uniforms):
    k_total = n_k.shape[0]
    for t in range(tokens.shape[0]):
        w = tokens[t]
        d = doc_ix[t]
        k_old = z[t]
        n_dk[d, k_old] -= 1
        n_kw[k_old, w] -= 1
        n_k[k_old] -= 1
        p = (n_dk[d] + alpha) * (n_kw[:, w] + eta[:, w]) / (n_k + eta_sums)
        cum = np.cumsum(p)
        k_new = min(int(np.searchsorted(cum, uniforms[t] * cum[-1], side="right")),
                    k_total - 1)
        z[t] = k_new
        n_dk[d, k_new] += 1
        n_kw[k_new, w] += 1
        n_k[k_new] += 1


def sweep_doc_snapshot(tokens, z, n_dk_row, n_kw, n_k, kw_snap, k_snap,
                       eta, eta_sums, alpha, uniforms):
    """Resample one document's tokens against the sweep-start counts.

    n_kw and n_k hold the snapshot kw_snap and k_snap on entry. The document
    runs through ``sweep_tokens`` on them, seeing only its own changes, and
    the columns of its words and the topic totals are then put back to the
    snapshot. n_dk_row and z are updated in place.
    """
    sweep_tokens(tokens, np.zeros(len(tokens), dtype=np.int32), z, n_dk_row[None],
                 n_kw, n_k, eta, eta_sums, alpha, uniforms)
    n_kw[:, tokens] = kw_snap[:, tokens]
    n_k[:] = k_snap
