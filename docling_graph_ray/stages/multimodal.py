"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images/audio/video are carried as ``binary`` columns with a metadata
struct; decode / feature-extract run as an actor-pool
``map_batches`` stage (the pattern of the reference's
``VlmBackend`` GPU stage, docling_graph/core/extractors/backends/
vlm_backend.py:21-120: heavy state in ``__init__``, batches through
``__call__``).

Decode is REAL for PNG and WAV (stages/media_codec.py — zlib + paeth
unfiltering / RIFF PCM, no external codecs needed); formats this
container can't decode (JPEG, MP4, …) fall back to the deterministic
fake in ``_decode_stub`` — dispatch is by magic-byte sniff, never by
trusting metadata.  The Ray-side plumbing (schemas, batch sizing for
large payloads, actor signature, output layout) is identical on both
paths.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.stages.media_codec import (
    decode_png,
    decode_wav,
    encode_png,
    encode_wav,
    resize_nearest,
    sniff_format,
)

MEDIA_META_TYPE = pa.struct(
    [
        ("media_type", pa.string()),  # image | audio | video
        ("format", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)

FEATURE_DIM = 64


def _decode_stub(payload: bytes) -> np.ndarray:
    """STUB decode for formats with no in-container codec (JPEG, MP4…).

    Deterministic fake 'pixels': blake2b-seeded pseudo-image — same
    signature as the real path, so everything downstream (feature
    extraction, resize plumbing) is codec-agnostic."""
    seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)


def decode_pixels(payload: bytes) -> np.ndarray:
    """payload → (H, W, 3) uint8 pixels.  REAL decode for PNG (gray and
    alpha planes normalized to RGB); WAV renders its waveform onto a
    16×16 canvas (so the one feature stage serves both modalities);
    unknown formats fall back to the deterministic stub."""
    fmt = sniff_format(payload or b"")
    if fmt == "png":
        try:
            img = decode_png(payload)
        except ValueError:
            return _decode_stub(payload or b"")
        if img.shape[2] == 1:        # gray → RGB
            img = np.repeat(img, 3, axis=2)
        elif img.shape[2] == 2:      # gray+alpha → RGB (drop alpha)
            img = np.repeat(img[:, :, :1], 3, axis=2)
        elif img.shape[2] == 4:      # RGBA → RGB
            img = img[:, :, :3]
        return img
    if fmt == "wav":
        try:
            samples, _rate = decode_wav(payload)
        except Exception:  # truncated RIFF → stub, never a throw
            return _decode_stub(payload or b"")
        mono = samples.mean(axis=1).astype(np.float32)
        # resample to 768 points, scale to u8, paint as a 16x16x3 canvas
        if mono.size == 0:
            mono = np.zeros(1, np.float32)
        xs = np.linspace(0, mono.size - 1, 16 * 16 * 3)
        wave_u8 = np.interp(xs, np.arange(mono.size), mono)
        wave_u8 = ((wave_u8 / 32768.0) * 127.5 + 127.5).astype(np.uint8)
        return wave_u8.reshape(16, 16, 3)
    return _decode_stub(payload or b"")


class MediaFeatureActor:
    """Actor-pool stage: decode + fixed-dim feature vector per payload.

    Use small ``batch_size`` (large binary payloads × batch must fit the
    worker heap — SURVEY.md "Memory-aware")."""

    def __init__(self) -> None:
        # warm state: stands in for model load (once per actor)
        rng = np.random.Generator(np.random.PCG64(7))
        self._proj = rng.standard_normal((16 * 16 * 3, FEATURE_DIM)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        feats = []
        for p in payloads:
            img = decode_pixels(p or b"")
            if img.shape[:2] != (16, 16):
                img = resize_nearest(img, 16, 16)
            v = (img.reshape(-1).astype(np.float32) / 255.0) @ self._proj
            n = float(np.linalg.norm(v))
            feats.append((v / n if n else v).tolist())
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "meta": batch.column("meta"),
                "feature": pa.array(feats, pa.list_(pa.float32(), FEATURE_DIM)),
            }
        )


def media_features(ds, *, concurrency=(1, 4), batch_size: int = 8):
    """pages-of-media Dataset (media_id, payload, meta) → features."""
    return ds.map_batches(
        MediaFeatureActor,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def make_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic synthetic media table: REAL payloads where the
    engine has a real codec — image rows are genuine PNGs (24×16 RGB
    noise, seeded), audio rows genuine 16 kHz mono WAVs (400 int16
    samples) — and an opaque fake for video, so both decode paths stay
    covered end-to-end."""
    ids, payloads, metas = [], [], []
    for i in range(n):
        key = f"{seed}:media:{i}".encode()
        seed_i = int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "big")
        rng = np.random.Generator(np.random.PCG64(seed_i))
        kind = i % 3
        if kind == 0:  # image: real PNG
            img = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
            payload = encode_png(img)
            width, height, dur = 24, 16, 0
        elif kind == 1:  # audio: real WAV
            samples = rng.integers(-20000, 20000, size=400).astype(np.int16)
            payload = encode_wav(samples, rate=16000)
            width, height, dur = 0, 0, 1000 + i
        else:  # video: no in-container codec — opaque fake payload
            payload = hashlib.blake2b(key, digest_size=32).digest() * (8 + i % 5)
            width, height, dur = 640, 480, 1000 + i
        ids.append(i)
        payloads.append(payload)
        metas.append(
            {
                "media_type": ["image", "audio", "video"][kind],
                "format": ["png", "wav", "mp4"][kind],
                "width": width,
                "height": height,
                "duration_ms": dur,
            }
        )
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, MEDIA_META_TYPE),
        }
    )


# ---------------------------------------------------------------------------
# perceptual-hash (dHash) image near-duplicate detection


def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash (dHash — standard perceptual-hash family,
    widely documented public algorithm): grayscale → block-mean resize
    to 9×8 → horizontal gradient bits.  Robust to small pixel
    perturbations and re-encodes that break exact byte dedup."""
    g = img.astype(np.float64).mean(axis=2)
    h, w = g.shape
    rows = (np.arange(h) * 8) // h
    cols = (np.arange(w) * 9) // w
    cells = np.zeros((8, 9), np.float64)
    counts = np.zeros((8, 9), np.float64)
    np.add.at(cells, (rows[:, None], cols[None, :]), g)
    np.add.at(counts, (rows[:, None], cols[None, :]),
              np.ones_like(g))
    cells /= counts
    bits = (cells[:, 1:] > cells[:, :-1]).ravel()
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    # keep the hash in signed-int64 range (Arrow int64 column)
    return out & ((1 << 63) - 1)


class MediaPHashActor:
    """Actor-pool stage: PNG payload → (media_id, phash).  Real decode
    for PNGs; non-PNG payloads hash their bytes' blake2b (opaque-lane
    fallback) so the stage is total."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, hashes = [], []
        for mid, p in zip(batch.column("media_id").to_pylist(),
                          batch.column("payload").to_pylist()):
            p = p or b""
            if sniff_format(p) == "png":
                try:
                    h = dhash64(decode_png(p))
                except ValueError:
                    h = int.from_bytes(
                        hashlib.blake2b(p, digest_size=8).digest(),
                        "big") >> 1
            else:
                h = int.from_bytes(
                    hashlib.blake2b(p, digest_size=8).digest(),
                    "big") >> 1
            ids.append(int(mid))
            hashes.append(h)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "phash": pa.array(hashes, pa.int64()),
        })


def media_phash_clusters(ds, *, concurrency=(1, 4),
                         batch_size: int = 16,
                         num_partitions: int = 32):
    """Media dataset → perceptual-duplicate clusters: dHash per item
    (actor pool — decode state none, but the pool bounds concurrent
    decode memory), then one bucketed fold keyed by hash emitting
    ``(phash, n_members, member_ids)`` with members comma-joined in
    id order (deterministic)."""
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    hashed = ds.map_batches(MediaPHashActor, batch_format="pyarrow",
                            batch_size=batch_size,
                            concurrency=concurrency)
    def fold(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("phash", "ascending"), ("media_id", "ascending")])
        g = g.take(idx).combine_chunks()
        starts, lens = run_starts(g, ["phash"])
        ids = g.column("media_id").to_numpy(zero_copy_only=False) \
            .astype("U")
        ends = starts + lens
        return pa.table({
            "phash": g.column("phash").take(pa.array(starts)),
            "n_members": pa.array(lens, pa.int64()),
            "member_ids": pa.array(
                [",".join(ids[s:e]) for s, e in zip(starts, ends)],
                pa.string()),
        })

    return bucketed_map(hashed, ["phash"], fold,
                        num_partitions=num_partitions)


def make_media_dup_table(n: int, seed: int = 42) -> pa.Table:
    """PNG-only media table with PLANTED near-duplicates: every row
    with ``i % 5 == 1`` is the previous image with one pixel nudged by
    +1 — byte-level different (exact dedup misses it), perceptually
    identical (dHash must cluster the pair)."""
    ids, payloads = [], []
    prev_img = None
    for i in range(n):
        key = f"{seed}:dupmedia:{i}".encode()
        seed_i = int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "big")
        rng = np.random.Generator(np.random.PCG64(seed_i))
        if i % 5 == 1 and prev_img is not None:
            img = prev_img.copy()
            img[0, 0, 0] = np.uint8((int(img[0, 0, 0]) + 1) % 256)
        else:
            img = rng.integers(0, 256, size=(16, 24, 3),
                               dtype=np.uint8)
        prev_img = img
        ids.append(i)
        payloads.append(encode_png(img))
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
    })
