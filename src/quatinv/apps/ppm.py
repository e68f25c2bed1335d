"""RGB images as purely imaginary quaternion matrices, plus PPM I/O.

An image X = R*i + G*j + B*k lives in H^{h x w} with zero real part; the
channels ride on the three imaginary units.  Files use the portable pixmap
formats P6 (binary) and P3 (ASCII) with maxval 255, mapped linearly to [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qcore import QMatrix

__all__ = [
    "ColorImage",
    "PpmFormatError",
    "read_ppm",
    "write_ppm",
    "image_to_qmat",
    "qmat_to_image",
]


class PpmFormatError(Exception):
    """Malformed or unsupported PPM data."""


@dataclass(frozen=True)
class ColorImage:
    """Three real h x w channel planes with samples in [0, 1]."""

    r: np.ndarray
    g: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.r, dtype=float))
        g = np.ascontiguousarray(np.asarray(self.g, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if not (r.ndim == 2 and r.shape == g.shape == b.shape):
            raise ValueError(
                f"channel shapes differ: {r.shape}, {g.shape}, {b.shape}")
        for name, plane in (("r", r), ("g", g), ("b", b)):
            if not np.all(np.isfinite(plane)):
                raise ValueError(f"non-finite samples in channel {name}")
            if plane.size and (plane.min() < 0.0 or plane.max() > 1.0):
                raise ValueError(f"channel {name} has samples outside [0, 1]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "b", b)

    @property
    def h(self) -> int:
        return self.r.shape[0]

    @property
    def w(self) -> int:
        return self.r.shape[1]

    def planes(self) -> np.ndarray:
        """Channels stacked as a (3, h, w) array."""
        return np.stack([self.r, self.g, self.b])


def image_to_qmat(img: ColorImage) -> QMatrix:
    """Embed an image as the purely imaginary matrix R*i + G*j + B*k."""
    return QMatrix(1j * img.r, img.g + 1j * img.b)


def qmat_to_image(x: QMatrix) -> ColorImage:
    """Project onto the imaginary parts, discarding the real component.

    The real part is dropped by construction; sampling back to a displayable
    image clamps each channel into [0, 1].
    """
    return ColorImage(*(np.clip(t, 0.0, 1.0)
                        for t in (x.q1.imag, x.q2.real, x.q2.imag)))


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            end = pos
            while end < n and not data[end:end + 1].isspace() \
                    and data[end:end + 1] != b"#":
                end += 1
            yield data[pos:end], end
            pos = end


def read_ppm(path) -> ColorImage:
    """Read a P6 (binary) or P3 (ASCII) pixmap with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise PpmFormatError("empty file") from None
    if magic not in (b"P6", b"P3"):
        raise PpmFormatError(f"unsupported magic {magic!r}")
    try:
        (w_tok, _), (h_tok, _), (max_tok, max_end) = (
            next(toks), next(toks), next(toks))
        w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError):
        raise PpmFormatError("truncated or non-numeric header") from None
    if w < 1 or h < 1:
        raise PpmFormatError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise PpmFormatError(f"maxval {maxval} unsupported (need 255)")

    count = h * w * 3
    if magic == b"P6":
        # exactly one whitespace byte separates the header from the raster
        raster = data[max_end + 1:]
        if len(raster) < count:
            raise PpmFormatError(
                f"raster truncated: {len(raster)} bytes, expected {count}")
        flat = np.frombuffer(raster[:count], dtype=np.uint8)
    else:
        vals = []
        for tok, _ in toks:
            vals.append(tok)
            if len(vals) == count:
                break
        if len(vals) < count:
            raise PpmFormatError(
                f"raster truncated: {len(vals)} samples, expected {count}")
        try:
            flat = np.array([int(v) for v in vals], dtype=np.int64)
        except ValueError:
            raise PpmFormatError("non-numeric raster sample") from None
        if flat.min() < 0 or flat.max() > 255:
            raise PpmFormatError("sample out of range 0..255")
        flat = flat.astype(np.uint8)

    pix = flat.reshape(h, w, 3).astype(float) / 255.0
    return ColorImage(pix[:, :, 0], pix[:, :, 1], pix[:, :, 2])


def write_ppm(path, img: ColorImage, binary: bool = True) -> None:
    """Write P6 (default) or P3; samples are clipped and scaled to 0..255."""
    pix = np.stack([img.r, img.g, img.b], axis=-1)
    raw = np.rint(np.clip(pix, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"{'P6' if binary else 'P3'}\n{img.w} {img.h}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(raw.tobytes())
        else:
            for row in raw.reshape(img.h, img.w * 3):
                fh.write(" ".join(str(int(v)) for v in row).encode("ascii"))
                fh.write(b"\n")
