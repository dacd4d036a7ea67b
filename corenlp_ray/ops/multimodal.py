"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images/audio/video are ``binary`` columns with a metadata struct; decode /
feature-extract / resize / frame-sample run as plain-task ``map_batches``
stages with SMALL batch sizes (payload bytes × batch_size × tasks per
node must fit the worker heap — the memory-aware sizing rule).

The decode kernels are STUBS (no image/audio libraries in this
container): ``DecodeImage`` raises ``NotImplementedError`` unless
``fake=True``, in which case a deterministic fake decoder produces stable
shapes/features so the Ray-side plumbing (schema, batch sizing, stage
signature, output layout) is real and tested end-to-end.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # image | audio | video
    ("payload", pa.binary()),
    ("mime", pa.string()),
    ("width", pa.int32()),          # -1 unknown
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])

# recommended map_batches sizing for binary payload stages
MEDIA_BATCH_SIZE = 32


def synth_media_table(n: int = 16, seed: int = 0) -> pa.Table:
    """Deterministic fake media rows (payload = seeded bytes)."""
    rows = []
    for i in range(n):
        payload = hashlib.sha256(f"{seed}:{i}".encode()).digest() * 64
        rows.append({
            "media_id": i, "kind": ("image", "audio", "video")[i % 3],
            "payload": payload, "mime": "application/octet-stream",
            "width": 64 + (i % 8) * 16, "height": 48 + (i % 6) * 16,
            "duration_ms": -1 if i % 3 == 0 else 1000 + i * 250,
        })
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


class DecodeImage:
    """map_batches stage: + img_feat (list<float>, a fixed-dim feature).

    Real decoders (PIL/cv2) plug into ``_decode``; this container has
    none, so fake=True uses a deterministic byte-histogram 'decoder'
    with the same signature and output schema."""

    FEAT_DIM = 16

    def __init__(self, fake: bool = False):
        self.fake = fake

    def _decode(self, payload: bytes, width: int, height: int) -> np.ndarray:
        if not self.fake:
            raise NotImplementedError(
                "image decoding requires PIL/cv2 (not in this container); "
                "construct with fake=True for plumbing tests")
        h = np.frombuffer(payload or b"\0", dtype=np.uint8)
        hist, _ = np.histogram(h, bins=self.FEAT_DIM, range=(0, 256))
        return (hist / max(hist.sum(), 1)).astype(np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for row in batch.select(["payload", "width", "height"]).to_pylist():
            feats.append(self._decode(row["payload"], row["width"],
                                      row["height"]).tolist())
        return batch.append_column(
            "img_feat", pa.array(feats, type=pa.list_(pa.float64())))


class FrameSampler:
    """map_batches stage for video rows: + frame_offsets_ms (uniform
    sampling plan over duration — the decode-side contract for a real
    ffmpeg-backed sampler)."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for kind, dur in zip(batch.column("kind").to_pylist(),
                             batch.column("duration_ms").to_pylist()):
            if kind != "video" or dur is None or dur <= 0:
                out.append([])
            else:
                step = dur // (self.n_frames + 1)
                out.append([step * (i + 1) for i in range(self.n_frames)])
        return batch.append_column(
            "frame_offsets_ms", pa.array(out, type=pa.list_(pa.int32())))


def decode_pipeline(media_ds, fake: bool = True):
    """media → decoded features + frame plans (the multimodal chain)."""
    ds = media_ds.map_batches(DecodeImage(fake), batch_format="pyarrow",
                              batch_size=MEDIA_BATCH_SIZE)
    return ds.map_batches(FrameSampler(), batch_format="pyarrow",
                          batch_size=MEDIA_BATCH_SIZE)
