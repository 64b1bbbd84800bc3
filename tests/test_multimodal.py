"""Multimodal plumbing: schema, actor stage, determinism (decode stubbed)."""

import numpy as np

import ray.data

from docling_graph_ray.stages.multimodal import (
    FEATURE_DIM,
    MediaFeatureActor,
    make_media_table,
    media_features,
)


def test_media_table_schema():
    t = make_media_table(9)
    assert t.column_names == ["media_id", "payload", "meta"]
    meta0 = t.column("meta")[0].as_py()
    assert meta0["media_type"] == "image"


def test_actor_stage_features(ray_session):
    ds = ray.data.from_arrow(make_media_table(12))
    out = media_features(ds, concurrency=(1, 2), batch_size=4).take_all()
    assert len(out) == 12
    for r in out:
        v = np.asarray(r["feature"])
        assert v.shape == (FEATURE_DIM,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-5


def test_features_deterministic():
    actor = MediaFeatureActor()
    t = make_media_table(5)
    a = actor(t).column("feature").to_pylist()
    b = MediaFeatureActor()(t).column("feature").to_pylist()
    assert a == b


def test_png_roundtrip_exact():
    from docling_graph_ray.stages.media_codec import decode_png, encode_png

    rng = np.random.Generator(np.random.PCG64(3))
    for shape in [(5, 7, 3), (4, 4, 4), (6, 3, 1), (2, 9, 2)]:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert (decode_png(encode_png(img)) == img).all()
    # deterministic bytes
    img = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    assert encode_png(img) == encode_png(img)


def test_png_filtered_scanlines_decode():
    """Decode PNGs using Sub/Up/Average/Paeth filters (what real encoders
    emit), built by hand-filtering a known image."""
    import struct
    import zlib as _z

    from docling_graph_ray.stages.media_codec import PNG_MAGIC, decode_png

    rng = np.random.Generator(np.random.PCG64(11))
    img = rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8)
    h, w, ch = img.shape
    stride = w * ch
    flat = img.reshape(h, stride).astype(np.int64)
    raw = bytearray()
    for y, ftype in enumerate([1, 2, 3, 4, 0]):  # one of each filter
        cur = flat[y]
        prev = flat[y - 1] if y else np.zeros(stride, np.int64)
        left = np.concatenate([np.zeros(ch, np.int64), cur[:-ch]])
        ul = np.concatenate([np.zeros(ch, np.int64), prev[:-ch]])
        if ftype == 0:
            enc = cur
        elif ftype == 1:
            enc = cur - left
        elif ftype == 2:
            enc = cur - prev
        elif ftype == 3:
            enc = cur - ((left + prev) >> 1)
        else:
            p = left + prev - ul
            pred = np.where(
                (np.abs(p - left) <= np.abs(p - prev))
                & (np.abs(p - left) <= np.abs(p - ul)), left,
                np.where(np.abs(p - prev) <= np.abs(p - ul), prev, ul))
            enc = cur - pred
        raw += bytes([ftype]) + bytes((enc & 0xFF).astype(np.uint8))

    def chunk(ctype, body):
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", _z.crc32(ctype + body) & 0xFFFFFFFF))

    pdf_bytes = (PNG_MAGIC
                 + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
                 + chunk(b"IDAT", _z.compress(bytes(raw)))
                 + chunk(b"IEND", b""))
    assert (decode_png(pdf_bytes) == img).all()


def test_wav_roundtrip_and_decode_pixels():
    from docling_graph_ray.stages.media_codec import decode_wav, encode_wav
    from docling_graph_ray.stages.multimodal import decode_pixels

    samples = (np.sin(np.linspace(0, 20, 300)) * 15000).astype(np.int16)
    data = encode_wav(samples, rate=16000)
    back, rate = decode_wav(data)
    assert rate == 16000
    assert (back[:, 0] == samples).all()
    canvas = decode_pixels(data)
    assert canvas.shape == (16, 16, 3)
    # real content, not the stub: a different waveform gives different pixels
    other = encode_wav((samples // 2).astype(np.int16), rate=16000)
    assert not (decode_pixels(other) == canvas).all()


def test_decode_pixels_real_vs_stub_dispatch():
    from docling_graph_ray.stages.media_codec import encode_png
    from docling_graph_ray.stages.multimodal import decode_pixels

    img = np.zeros((4, 4, 3), np.uint8)
    img[:2] = 200
    assert (decode_pixels(encode_png(img)) == img).all()  # real decode
    fake = decode_pixels(b"\xff\xd8\xff not-a-real-jpeg")
    assert fake.shape == (16, 16, 3)  # stub path


def _jpeg_header(width, height, comps=3):
    """Structurally valid JPEG header (SOI, APP0, SOF0, EOI) — enough
    for the probe, which never touches entropy data."""
    import struct
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x02\x00" \
        + b"\x00\x01\x00\x01\x00\x00"
    sof_body = b"\x08" + struct.pack(">HH", height, width) \
        + bytes([comps]) + b"\x01\x11\x00\x02\x11\x01\x03\x11\x01"[:comps * 3]
    sof = b"\xff\xc0" + struct.pack(">H", 2 + len(sof_body)) + sof_body
    return b"\xff\xd8" + app0 + sof + b"\xff\xd9"


def test_probe_media_formats():
    import struct

    from docling_graph_ray.stages.media_codec import (
        encode_png, encode_wav, probe_media,
    )
    import numpy as np

    png = encode_png(np.zeros((7, 9, 3), dtype=np.uint8))
    p = probe_media(png)
    assert (p["format"], p["width"], p["height"], p["channels"]) == \
        ("png", 9, 7, 3)

    wav = encode_wav(np.zeros(320, dtype=np.int16), rate=8000)
    w = probe_media(wav)
    assert (w["format"], w["sample_rate"], w["n_samples"], w["channels"]) \
        == ("wav", 8000, 320, 1)

    j = probe_media(_jpeg_header(640, 480))
    assert (j["format"], j["width"], j["height"], j["channels"]) == \
        ("jpeg", 640, 480, 3)
    # progressive (SOF2) dims also probe
    prog = _jpeg_header(31, 17).replace(b"\xff\xc0", b"\xff\xc2")
    j2 = probe_media(prog)
    assert (j2["width"], j2["height"]) == (31, 17)

    gif = b"GIF89a" + struct.pack("<HH", 320, 200) + b"\x00\x00\x00"
    g = probe_media(gif)
    assert (g["format"], g["width"], g["height"]) == ("gif", 320, 200)

    # lossy WebP key-frame header
    vp8 = (b"RIFF" + struct.pack("<I", 40) + b"WEBP" + b"VP8 "
           + struct.pack("<I", 20) + b"\x00" * 3
           + b"\x9d\x01\x2a" + struct.pack("<HH", 200, 100) + b"\x00" * 8)
    wp = probe_media(vp8)
    assert (wp["format"], wp["width"], wp["height"]) == ("webp", 200, 100)

    mp4 = struct.pack(">I", 24) + b"ftypisom" + b"\x00" * 16
    assert probe_media(mp4)["format"] == "mp4"

    # truncated/corrupt headers never raise
    for junk in (b"", b"\xff\xd8\xff", b"GIF89a\x01", png[:20], b"RIFF1234"):
        out = probe_media(junk)
        assert isinstance(out["format"], str)


# ---------------------------------------------------------------------------
# perceptual-hash (dHash) near-duplicate clustering


def test_dhash_invariant_to_single_pixel_nudge():
    import numpy as np

    from docling_graph_ray.stages.multimodal import dhash64

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
    nudged = img.copy()
    nudged[0, 0, 0] = np.uint8((int(nudged[0, 0, 0]) + 1) % 256)
    assert dhash64(img) == dhash64(nudged)
    # a genuinely different image hashes differently
    other = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
    assert dhash64(img) != dhash64(other)
    assert 0 <= dhash64(img) < (1 << 63)


def test_phash_clusters_catch_all_planted_pairs(ray_session):
    import ray

    from docling_graph_ray.stages.multimodal import (
        make_media_dup_table,
        media_phash_clusters,
    )

    n = 50
    out = media_phash_clusters(
        ray.data.from_arrow(make_media_dup_table(n)).repartition(4)
    ).to_pandas()
    pairs = [(i - 1, i) for i in range(1, n) if i % 5 == 1]
    members = [set(m.split(",")) for m in out["member_ids"]]
    for a, b in pairs:
        assert any({str(a), str(b)} <= m for m in members), (a, b)
    # exact byte dedup would NOT merge the planted pairs
    t = make_media_dup_table(n)
    payloads = t.column("payload").to_pylist()
    for a, b in pairs:
        assert payloads[a] != payloads[b]
