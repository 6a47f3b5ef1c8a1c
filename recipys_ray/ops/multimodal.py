"""Multimodal (image/audio/video) column stages.

Media are opaque ``binary`` columns plus typed metadata columns. The Ray-side
plumbing — schema, actor-pool signatures, batch sizing, output layout — is
real and tested. Codec status (no image/audio libs exist in this sandbox):

- **REAL decoders** for formats parseable with stdlib + numpy alone:
  uncompressed 24-bit BMP and binary PPM/PGM images
  (``DecodeImage(fake=False)`` — header parse + one ``np.frombuffer``,
  emits true dimensions, per-channel means and an 8×8 grayscale thumbnail),
  **8-bit non-interlaced PNG** (:func:`_decode_png` — stdlib zlib inflate +
  per-scanline unfiltering, so one COMPRESSED codec decodes for real in any
  environment), and PCM WAV audio (:class:`DecodeWav` via the stdlib
  ``wave`` module — true sample rate, duration, RMS, peak, zero-crossing
  rate).
- Remaining compressed codecs (JPEG/16-bit or interlaced PNG/MP3/MP4) need
  PIL/ffmpeg: rows in those formats decode to nulls with
  ``decode_ok=False`` (never a crash mid-pipeline), and
  :class:`SampleFrames` remains an honest plumbing stub without ffmpeg.
- ``DecodeImage(fake=True)`` keeps the deterministic content-hash fake for
  end-to-end pipeline tests that don't care about pixels.

Batch-size guidance at scale: with ~1 MiB payloads use ``batch_size≈32`` and
raise ``DataContext.target_max_block_size`` so Arrow doesn't split blocks
absurdly small; binary columns must stay in ``batch_format="pyarrow"``
(pandas would object-box them).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import actor_pool_args


def _stable_u64(data: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(data).astype(np.uint64)


def _decode_ppm(buf: bytes):
    """Binary PPM (P6) / PGM (P5) → float32 HxWxC array in [0, 255].
    Pure numpy parse of the public netpbm format; None if malformed."""
    try:
        magic = buf[:2]
        if magic not in (b"P6", b"P5"):
            return None
        # header: magic, width, height, maxval as whitespace-separated
        # ASCII tokens ('#' comments allowed), then ONE whitespace byte
        pos, tokens = 2, []
        while len(tokens) < 3:
            while buf[pos : pos + 1].isspace():
                pos += 1
            if buf[pos : pos + 1] == b"#":
                pos = buf.index(b"\n", pos) + 1
                continue
            end = pos
            while not buf[end : end + 1].isspace():
                end += 1
            tokens.append(int(buf[pos:end]))
            pos = end
        pos += 1  # the single whitespace after maxval
        w, h, maxval = tokens[0], tokens[1], tokens[2]
        ch = 3 if magic == b"P6" else 1
        dt = np.uint8 if maxval < 256 else ">u2"
        arr = np.frombuffer(buf, dtype=dt, count=w * h * ch, offset=pos)
        arr = arr.reshape(h, w, ch).astype(np.float32)
        if maxval >= 256:
            arr *= 255.0 / maxval
        return arr
    except (ValueError, IndexError):
        return None


def _decode_bmp(buf: bytes):
    """Uncompressed 24-bit BMP (BITMAPINFOHEADER) → float32 HxWx3 RGB.
    Pure numpy parse of the public BMP layout (rows 4-byte padded,
    bottom-up, BGR order); None for other BMP variants or malformed."""
    try:
        if buf[:2] != b"BM":
            return None
        data_off = int.from_bytes(buf[10:14], "little")
        hdr_size = int.from_bytes(buf[14:18], "little")
        if hdr_size < 40:
            return None
        w = int.from_bytes(buf[18:22], "little", signed=True)
        h = int.from_bytes(buf[22:26], "little", signed=True)
        bpp = int.from_bytes(buf[28:30], "little")
        comp = int.from_bytes(buf[30:34], "little")
        if bpp != 24 or comp != 0 or w <= 0 or h == 0:
            return None
        flip = h > 0  # positive height = bottom-up rows
        h = abs(h)
        stride = (w * 3 + 3) // 4 * 4
        raw = np.frombuffer(buf, np.uint8, count=stride * h, offset=data_off)
        rows = raw.reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
        if flip:
            rows = rows[::-1]
        return rows[:, :, ::-1].astype(np.float32)  # BGR → RGB
    except (ValueError, IndexError):
        return None


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _decode_png(buf: bytes):
    """Pure stdlib+numpy PNG decode (public spec, RFC 2083): 8-bit depth,
    color types gray / RGB / palette / gray+alpha / RGBA, non-interlaced.
    zlib inflate + per-scanline unfiltering (None/Sub/Up/Average/Paeth).
    Returns float32 HxWxC (alpha dropped), or None for unsupported variants
    (16-bit, interlaced) / malformed input — PIL remains the fallback."""
    import zlib

    try:
        if buf[:8] != _PNG_SIG:
            return None
        pos, idat = 8, []
        w = h = depth = ct = interlace = None
        plte = None
        while pos + 8 <= len(buf):
            ln = int.from_bytes(buf[pos : pos + 4], "big")
            typ = buf[pos + 4 : pos + 8]
            data = buf[pos + 8 : pos + 8 + ln]
            pos += 12 + ln  # length + type + data + crc
            if typ == b"IHDR":
                w = int.from_bytes(data[0:4], "big")
                h = int.from_bytes(data[4:8], "big")
                depth, ct, interlace = data[8], data[9], data[12]
            elif typ == b"PLTE":
                plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
            elif typ == b"IDAT":
                idat.append(data)
            elif typ == b"IEND":
                break
        if not w or not h or depth != 8 or interlace != 0:
            return None
        nch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(ct)
        if nch is None or (ct == 3 and plte is None):
            return None
        raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
        stride = w * nch
        if len(raw) != h * (stride + 1):
            return None
        raw = raw.reshape(h, stride + 1)
        ftypes = raw[:, 0]
        out = np.zeros((h, stride), np.int32)
        prev = np.zeros(stride, np.int32)
        for y in range(h):
            f = int(ftypes[y])
            rec = raw[y, 1:].astype(np.int32)
            if f == 0:
                pass
            elif f == 2:  # Up — vectorized
                rec = (rec + prev) & 255
            elif f == 1:  # Sub — sequential along x
                for x in range(nch, stride):
                    rec[x] = (rec[x] + rec[x - nch]) & 255
            elif f == 3:  # Average
                for x in range(stride):
                    left = rec[x - nch] if x >= nch else 0
                    rec[x] = (rec[x] + ((left + prev[x]) >> 1)) & 255
            elif f == 4:  # Paeth
                for x in range(stride):
                    a = int(rec[x - nch]) if x >= nch else 0
                    b = int(prev[x])
                    c = int(prev[x - nch]) if x >= nch else 0
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = (
                        a if pa_ <= pb_ and pa_ <= pc_
                        else (b if pb_ <= pc_ else c)
                    )
                    rec[x] = (rec[x] + pred) & 255
            else:
                return None
            out[y] = rec
            prev = rec
        img = out.astype(np.uint8).reshape(h, w, nch)
        if ct == 3:
            return plte[img[:, :, 0]].astype(np.float32)
        if ct == 4:
            return img[:, :, :1].astype(np.float32)  # drop alpha → gray
        if ct == 6:
            return img[:, :, :3].astype(np.float32)  # drop alpha
        return img.astype(np.float32)
    except (ValueError, IndexError, OverflowError, zlib.error):
        return None


def _box_resize_plane(plane: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Exact box-average (area) resize of one 2-D plane to (th, tw) via an
    integral image — correct for ragged cell sizes, pure numpy, no codec
    deps. Output float64 (callers cast)."""
    h, w = plane.shape
    ylo = (np.arange(th) * h) // th
    yhi = np.maximum((np.arange(1, th + 1) * h) // th, ylo + 1)
    xlo = (np.arange(tw) * w) // tw
    xhi = np.maximum((np.arange(1, tw + 1) * w) // tw, xlo + 1)
    ii = np.zeros((h + 1, w + 1), np.float64)
    ii[1:, 1:] = plane.cumsum(0, dtype=np.float64).cumsum(1)
    s = (
        ii[yhi, :][:, xhi] - ii[ylo, :][:, xhi]
        - ii[yhi, :][:, xlo] + ii[ylo, :][:, xlo]
    )
    area = np.outer(yhi - ylo, xhi - xlo).astype(np.float64)
    return s / area


def box_resize(arr: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Area (box-average) resize to (th, tw); keeps channels. The real
    resize kernel every multimodal stage here shares — upscaling uses
    pixel replication via the same ragged-edge boxes (cells clamp to ≥ 1
    source pixel). Returns float32 (th, tw[, C])."""
    if arr.ndim == 2:
        return _box_resize_plane(arr, th, tw).astype(np.float32)
    return np.stack(
        [
            _box_resize_plane(arr[:, :, c], th, tw)
            for c in range(arr.shape[2])
        ],
        axis=2,
    ).astype(np.float32)


def _thumb8(arr: np.ndarray) -> np.ndarray:
    """8×8 grayscale thumbnail — grayscale reduce + box resize."""
    gray = arr.mean(axis=2) if arr.ndim == 3 else arr
    return box_resize(gray, 8, 8).reshape(-1)


class DecodeImage:
    """Actor-pool stage: binary image column → metadata + features.

    ``fake=False`` (REAL path): pure stdlib/numpy decode of uncompressed
    24-bit BMP, binary PPM/PGM and 8-bit non-interlaced PNG payloads —
    emits true ``img_width`` / ``img_height`` / ``img_mode``, per-channel
    means, an 8×8 grayscale ``thumb`` (64 float32), and ``decode_ok``.
    Formats needing external codecs (JPEG/…) yield nulls with
    ``decode_ok=False``. With a PIL install this class is where the codec
    loads once per actor.

    ``fake=True``: deterministic content-hash fake decodes (original
    plumbing-test behavior, unchanged schema)."""

    def __init__(self, binary_col: str = "image", fake: bool = True,
                 resize_to: tuple[int, int] | None = None):
        self.binary_col = binary_col
        self.fake = fake
        # optional (h, w) area-resize emitted as a flat h*w*3 float32 list
        # column "resized" (grayscale replicates to 3 channels so the
        # output width is schema-stable across mixed-mode batches)
        self.resize_to = resize_to
        # guarded import, once per actor: where PIL exists, compressed
        # codecs (JPEG/PNG/WebP/...) decode for real; without it, those
        # payloads keep the honest decode_ok=False fallback
        try:
            from PIL import Image as _PILImage  # noqa: N813

            self._pil = _PILImage
        except ImportError:
            self._pil = None

    def _decode_pil(self, p: bytes):
        """Compressed-codec decode via PIL (when installed) → HxWx3 or HxW
        uint8 ndarray, None if PIL is absent or the payload is undecodable."""
        if self._pil is None:
            return None
        import io as _io

        try:
            with self._pil.open(_io.BytesIO(p)) as im:
                im = im.convert("L") if im.mode in ("L", "1", "I;16") \
                    else im.convert("RGB")
                return np.asarray(im)
        except Exception:
            return None

    def __call__(self, tbl: pa.Table) -> pa.Table:
        col = tbl.column(self.binary_col)
        payloads = col.to_pylist()
        if self.fake:
            h = _stable_u64(
                np.array(
                    [p if p is not None else b"" for p in payloads],
                    dtype=object,
                )
            )
            width = (h % 1920 + 1).astype(np.int32)
            height = ((h >> np.uint64(16)) % 1080 + 1).astype(np.int32)
            nbytes = np.array(
                [len(p) if p is not None else 0 for p in payloads],
                dtype=np.int64,
            )
            tbl = tbl.append_column("img_width", pa.array(width))
            tbl = tbl.append_column("img_height", pa.array(height))
            tbl = tbl.append_column("img_bytes", pa.array(nbytes))
            return tbl
        n = len(payloads)
        width = np.full(n, -1, np.int32)
        height = np.full(n, -1, np.int32)
        mode: list = [None] * n
        means = np.full((n, 3), np.nan, np.float32)
        thumbs: list = [None] * n
        resized: list = [None] * n
        ok = np.zeros(n, bool)
        for i, p in enumerate(payloads):
            if not p:
                continue
            if p[:2] == b"BM":
                arr = _decode_bmp(p)
            elif p[:8] == _PNG_SIG:
                arr = _decode_png(p)
            else:
                arr = _decode_ppm(p)
            if arr is None:
                arr = self._decode_pil(p)
            if arr is None:
                continue
            ok[i] = True
            height[i], width[i] = arr.shape[0], arr.shape[1]
            mode[i] = "rgb" if arr.ndim == 3 and arr.shape[2] == 3 else "gray"
            m = arr.reshape(-1, arr.shape[2] if arr.ndim == 3 else 1).mean(0)
            means[i, : len(m)] = m
            if arr.ndim == 3 and arr.shape[2] == 1:
                means[i, 1:] = m[0]
            thumbs[i] = _thumb8(arr)
            if self.resize_to is not None:
                th, tw = self.resize_to
                r = box_resize(arr, th, tw)
                if r.ndim == 2:
                    r = np.repeat(r[:, :, None], 3, axis=2)
                elif r.shape[2] == 1:
                    r = np.repeat(r, 3, axis=2)
                resized[i] = r.reshape(-1)
        tbl = tbl.append_column(
            "img_width",
            pa.array([int(w) if o else None for w, o in zip(width, ok)],
                     pa.int32()),
        )
        tbl = tbl.append_column(
            "img_height",
            pa.array([int(h) if o else None for h, o in zip(height, ok)],
                     pa.int32()),
        )
        tbl = tbl.append_column("img_mode", pa.array(mode, pa.string()))
        for j, name in enumerate(("img_mean_r", "img_mean_g", "img_mean_b")):
            tbl = tbl.append_column(
                name, pa.array(means[:, j], pa.float32(), from_pandas=True)
            )
        tbl = tbl.append_column(
            "thumb", pa.array(
                [t.tolist() if t is not None else None for t in thumbs],
                pa.list_(pa.float32()),
            )
        )
        if self.resize_to is not None:
            tbl = tbl.append_column(
                "resized", pa.array(
                    [r.tolist() if r is not None else None for r in resized],
                    pa.list_(pa.float32()),
                )
            )
        return tbl.append_column("decode_ok", pa.array(ok))


class DecodeWav:
    """Actor-pool stage: REAL PCM WAV decode via the stdlib ``wave`` module
    (8/16/32-bit PCM) — emits true ``sample_rate``, ``n_channels``,
    ``duration_s``, ``rms``, ``peak`` and zero-crossing rate ``zcr``
    (numpy over the raw frames, no Python loop over samples). Non-WAV or
    compressed payloads yield nulls with ``decode_ok=False``."""

    _DTYPES = {1: np.uint8, 2: np.int16, 4: np.int32}

    def __init__(self, binary_col: str = "audio"):
        self.binary_col = binary_col

    def _decode(self, p: bytes):
        import io as _io
        import wave

        try:
            with wave.open(_io.BytesIO(p)) as wf:
                nch = wf.getnchannels()
                sw = wf.getsampwidth()
                sr = wf.getframerate()
                nf = wf.getnframes()
                dt = self._DTYPES.get(sw)
                if dt is None or nf == 0:
                    return None
                raw = np.frombuffer(wf.readframes(nf), dtype=dt)
        except (wave.Error, EOFError, ValueError):
            return None
        x = raw.astype(np.float64)
        if sw == 1:
            x = (x - 128.0) / 128.0
        else:
            x = x / float(2 ** (8 * sw - 1))
        x = x.reshape(-1, nch).mean(axis=1)  # downmix
        zc = np.count_nonzero(np.signbit(x[1:]) != np.signbit(x[:-1]))
        return (
            sr, nch, nf / sr, float(np.sqrt(np.mean(x * x))),
            float(np.abs(x).max()), zc / max(len(x) - 1, 1),
        )

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column(self.binary_col).to_pylist()
        n = len(payloads)
        cols = {
            "sample_rate": np.full(n, np.nan),
            "n_channels": np.full(n, np.nan),
            "duration_s": np.full(n, np.nan),
            "rms": np.full(n, np.nan),
            "peak": np.full(n, np.nan),
            "zcr": np.full(n, np.nan),
        }
        ok = np.zeros(n, bool)
        for i, p in enumerate(payloads):
            if not p:
                continue
            dec = self._decode(p)
            if dec is None:
                continue
            ok[i] = True
            for name, v in zip(cols, dec):
                cols[name][i] = v
        for name in ("sample_rate", "n_channels"):
            tbl = tbl.append_column(
                name,
                pa.array(
                    [int(v) if o else None for v, o in zip(cols[name], ok)],
                    pa.int32(),
                ),
            )
        for name in ("duration_s", "rms", "peak", "zcr"):
            tbl = tbl.append_column(
                name, pa.array(cols[name], pa.float64(), from_pandas=True)
            )
        return tbl.append_column("decode_ok", pa.array(ok))


class ByteHistogramFeatures:
    """REAL (non-stub) feature extraction on binary payloads: a 16-bin byte
    histogram per row, vectorized via numpy frombuffer — the honest
    stand-in for learned embeddings over media bytes."""

    def __init__(self, binary_col: str = "image", bins: int = 16):
        self.binary_col = binary_col
        self.bins = bins

    def __call__(self, tbl: pa.Table) -> pa.Table:
        col = tbl.column(self.binary_col).combine_chunks()
        chunk = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
        n = len(chunk)
        out = np.zeros((n, self.bins), dtype=np.float32)
        width = 256 // self.bins
        if n:
            # zero-copy over the Arrow buffers: one frombuffer for the whole
            # batch + a segmented bincount via np.add.at on (row, bin) —
            # never boxes payload bytes into Python objects
            odt = (
                np.int64 if pa.types.is_large_binary(chunk.type)
                else np.int32
            )
            offs = np.frombuffer(
                chunk.buffers()[1], dtype=odt, count=n + 1 + chunk.offset
            )[chunk.offset:].astype(np.int64)
            data_buf = chunk.buffers()[2]
            if data_buf is not None and offs[-1] > offs[0]:
                data = np.frombuffer(data_buf, dtype=np.uint8)[
                    offs[0]:offs[-1]
                ]
                lens = np.diff(offs)
                rows = np.repeat(np.arange(n), lens)
                flat = rows * self.bins + (data // width)
                counts = np.bincount(flat, minlength=n * self.bins)
                out = (
                    counts.reshape(n, self.bins).astype(np.float32)
                    / np.maximum(lens, 1)[:, None]
                )
        return tbl.append_column(
            "byte_hist", pa.array(list(out))
        )


class SampleFrames:
    """Video frame sampling: one row per sampled frame (flat_map-style row
    multiplication).

    ``fake=True``: deterministic frame indices from payload size (plumbing
    test mode, no decode). ``fake=False``: REAL extraction via an ffmpeg
    subprocess once per payload (guarded by ``shutil.which`` — this sandbox
    has no ffmpeg, so construction raises ``NotImplementedError`` here;
    wherever ffmpeg exists each sampled frame also gets ``frame_png``
    bytes). The actor holds no per-batch state; ffmpeg availability is
    probed once per actor in ``__init__``."""

    def __init__(self, binary_col: str = "video", every_n: int = 30,
                 max_frames: int = 8, fake: bool = True):
        self.binary_col = binary_col
        self.every_n = every_n
        self.max_frames = max_frames
        self.fake = fake
        if not fake:
            import shutil

            self._ffmpeg = shutil.which("ffmpeg")
            if self._ffmpeg is None:
                raise NotImplementedError(
                    "Frame extraction requires ffmpeg (not on PATH here); "
                    "use fake=True for plumbing tests."
                )

    def _extract(self, payload: bytes) -> list[bytes]:
        """ffmpeg: select every Nth frame, emit PNG images to stdout
        (image2pipe); returns up to max_frames PNG byte strings."""
        import subprocess

        proc = subprocess.run(
            [
                self._ffmpeg, "-loglevel", "error", "-i", "pipe:0",
                "-vf", f"select=not(mod(n\\,{self.every_n}))",
                "-vsync", "vfr", "-frames:v", str(self.max_frames),
                "-f", "image2pipe", "-vcodec", "png", "pipe:1",
            ],
            input=payload, capture_output=True,
        )
        if proc.returncode != 0 or not proc.stdout:
            return []
        sig = b"\x89PNG\r\n\x1a\n"
        parts = proc.stdout.split(sig)
        return [sig + p for p in parts[1:]]

    def __call__(self, tbl: pa.Table) -> pa.Table:
        payloads = tbl.column(self.binary_col).to_pylist()
        if self.fake:
            n_frames = np.array(
                [
                    min(self.max_frames,
                        max(1, (len(p) if p else 0)
                            // (self.every_n * 1024) + 1))
                    for p in payloads
                ],
                dtype=np.int64,
            )
            frames = None
        else:
            per_row = [self._extract(p) if p else [] for p in payloads]
            n_frames = np.array([len(f) for f in per_row], dtype=np.int64)
            frames = [png for fs in per_row for png in fs]
        idx = np.repeat(np.arange(len(payloads)), n_frames)
        frame_no = np.concatenate(
            [np.arange(k) for k in n_frames]
        ) if len(n_frames) else np.empty(0, np.int64)
        base = tbl.take(pa.array(idx))
        base = base.append_column(
            "frame_no", pa.array(frame_no.astype(np.int32))
        )
        if frames is not None:
            base = base.append_column(
                "frame_png", pa.array(frames, pa.binary())
            )
        return base


def decode_images(ds, binary_col: str = "image", concurrency: int = 4,
                  batch_size: int = 32, fake: bool = True):
    """Actor-pool decode stage with media-appropriate batch sizing."""
    return ds.map_batches(
        DecodeImage,
        fn_constructor_kwargs={"binary_col": binary_col, "fake": fake},
        batch_format="pyarrow",
        **actor_pool_args(concurrency),
        batch_size=batch_size,
    )


# --------------------------------------------------------------------- #
# WebDataset-style tar shard source
# --------------------------------------------------------------------- #
def read_webdataset(paths, suffixes=None, meta_suffixes=("txt", "json", "cls")):
    """Read WebDataset-style tar shards into a Dataset of samples.

    The WebDataset convention (public format): a shard is a POSIX tar whose
    members are named ``<key>.<suffix>`` — all members sharing a key form
    one sample (e.g. ``000123.jpg`` + ``000123.txt``). This reader composes
    Ray's ``read_binary_files`` (one task per shard, streams shard bytes
    through the object store) with a stdlib ``tarfile`` flat_map: each task
    parses ITS shard only, so shards are the unit of parallelism and
    resume, exactly like the sharded-parquet layout elsewhere in the repo.

    Output columns: ``__key__`` (string), ``__shard__`` (source path), one
    ``binary`` column per payload suffix, one ``string`` column per
    ``meta_suffixes`` entry found. Missing members are null.

    ``suffixes``: restrict which payload suffixes become columns (default:
    every suffix encountered in the shard).
    """
    import io as _io
    import tarfile

    import ray.data as rd

    src = rd.read_binary_files(paths, include_paths=True)

    def parse_shard(row: dict):
        shard_path = row["path"]
        samples: dict[str, dict] = {}
        with tarfile.open(fileobj=_io.BytesIO(row["bytes"])) as tf:
            for member in tf.getmembers():
                if not member.isfile():
                    continue
                name = member.name.rsplit("/", 1)[-1]
                if "." not in name:
                    continue
                key, suffix = name.split(".", 1)
                suffix = suffix.lower()
                if suffixes is not None and suffix not in set(
                    suffixes
                ) | set(meta_suffixes):
                    continue
                data = tf.extractfile(member).read()
                samples.setdefault(key, {})[suffix] = data
        out = []
        for key in sorted(samples):
            rec = {"__key__": key, "__shard__": shard_path}
            for suffix, data in samples[key].items():
                if suffix in meta_suffixes:
                    rec[suffix] = data.decode("utf-8", "replace")
                else:
                    rec[suffix] = data
            out.append(rec)
        return out

    return src.flat_map(parse_shard)
