"""Approximate sketches: HyperLogLog distinct counting.

At 100 TB an exact COUNT(DISTINCT text) needs a corpus-wide shuffle of
hashes; the HLL sketch answers the same question with a CONSTANT-size
register array per block and a driver-side max-merge — each block
reduces to 2^p bytes (4 KB at p=12) no matter how many rows it holds,
and merging sketches is an elementwise max, so the reduce is
associative, commutative and resumable.  Standard HLL with the
Flajolet et al. 2007 bias correction and the small-range linear
counting fallback; ~1.04/sqrt(2^p) relative error (1.6% at p=12).

Beyond-reference operator (the docling-graph reference has no sketch
machinery); hashes are the first 8 bytes of sha256, stable across runs
and processes.  sha256 (rather than blake2b) is deliberate: any uniform
64-bit hash gives HLL its accuracy guarantee, and sha256 is a DuckDB
builtin — so the register array AND the estimate are exactly
recomputable in SQL, which is what backs the ``doc_distinct_estimate``
oracle (r5 promotion of the sketch to the hard correctness signal).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _hash64(values: list) -> np.ndarray:
    return np.fromiter(
        (
            int.from_bytes(
                hashlib.sha256(
                    (v or "").encode("utf-8", "surrogatepass")
                ).digest()[:8],
                "big",
            )
            for v in values
        ),
        np.uint64,
        len(values),
    )


def hll_registers(values: list, p: int = 12) -> np.ndarray:
    """(2^p,) uint8 register array for one batch of string values."""
    m = 1 << p
    regs = np.zeros(m, np.uint8)
    if not values:
        return regs
    h = _hash64(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    # rho = position of the leftmost 1-bit in the remaining bits (1-based)
    # computed vectorized via bit-length of the left-aligned remainder
    nz = rest != 0
    rho = np.full(len(h), 64 - p + 1, np.uint8)
    r = rest[nz]
    # vectorized bit length via float64 exponent is unsafe >= 2^53; use
    # a binary search on integer comparisons instead
    out = np.zeros(r.shape, np.uint8)
    cur = r.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = cur >= (np.uint64(1) << np.uint64(shift))
        out[big] += shift
        cur[big] >>= np.uint64(shift)
    # bit_length = out + 1 for nonzero; rho = clz + 1 = 64 - bit_length + 1
    rho[nz] = (np.uint8(64) - out).astype(np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_merge(sketches: "list[np.ndarray]") -> np.ndarray:
    """Elementwise max — associative/commutative, so any merge tree
    (block order, partial trees, resumed runs) yields the same sketch."""
    out = sketches[0].copy()
    for s in sketches[1:]:
        np.maximum(out, s, out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimate with linear-counting small-range fallback."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(est)


def distinct_estimate(ds, *, col: str, p: int = 12):
    """Distributed approximate COUNT(DISTINCT col).

    One streaming pass: every block emits its 2^p-byte register row;
    the driver max-merges the tiny partials.  Returns
    ``(estimate, n_blocks)``.
    """

    def partial(batch: pa.Table) -> pa.Table:
        regs = hll_registers(batch.column(col).to_pylist(), p)
        return pa.table({"regs": pa.array([regs.tolist()], pa.list_(pa.uint8()))})

    rows = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if rows.empty:  # empty input: no partial rows, no 'regs' column
        return 0.0, 0
    sketches = [np.asarray(r, np.uint8) for r in rows["regs"]]
    return hll_estimate(hll_merge(sketches)), len(sketches)
