"""Binary container: JSON header + raw little-endian float64 arrays.

Layout: a 4-byte little-endian unsigned header length, the UTF-8 JSON
header, then the arrays back to back. The header carries a magic string,
a format version, caller metadata, and per-array name/shape/offset
(offsets relative to the start of the data section, each array starting
where the previous one ends, the last one ending the file). Round-trips
are bitwise exact; a header whose array entries do not describe that
layout or name one array twice raises ``FormatError``, as do bytes after
the last array.

Every output file of the package goes through :func:`replacing`, which
renames a complete temporary file over its target. Reads and writes
stream array by array, so neither holds the file image as well as the
arrays: :func:`write` sends the header and then each array's own buffer
through :func:`replacing`. :func:`read` and :func:`unpack` share one
parser, which checks the whole header against the file's size before it
allocates any array, then reads each array straight into its own buffer.
A file with no size (a pipe) is read whole, as :func:`unpack` parses it.
Each loader hands :func:`check` its format's name -> shape table: a file
holds exactly the format's metadata keys and the table's arrays, each at
its table shape with finite entries.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import stat
import struct
from typing import Mapping

import numpy as np

from . import numkit
from .errors import FormatError

VERSION = 1


def _scalar(value):
    """A numpy scalar in ``meta`` (say an ``np.int64`` seed) as its Python value."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def layout(magic: str, meta: dict, arrays: Mapping[str, np.ndarray]
           ) -> tuple[bytes, list[np.ndarray]]:
    """The length-prefixed header and the arrays as written, in file order.

    The arrays come back C-contiguous little-endian float64, so their
    buffers are the data section's bytes without a further copy.
    """
    entries = []
    datas = []
    offset = 0
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        datas.append(data)
        offset += data.nbytes
    header = {
        "magic": magic,
        "version": VERSION,
        "meta": meta,
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, default=_scalar).encode("utf-8")
    return struct.pack("<I", len(header_bytes)) + header_bytes, datas


def pack(magic: str, meta: dict, arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize metadata and named float64 arrays."""
    prefix, datas = layout(magic, meta, arrays)
    return b"".join([prefix, *map(memoryview, datas)])


def _check_entry(entry, offset: int) -> tuple[str, tuple[int, ...]]:
    """(name, shape) of one header array entry that must start at ``offset``.

    Arrays lie back to back in header order, as :func:`layout` writes them.
    """
    if not isinstance(entry, dict):
        raise FormatError(f"array entry must be an object, got {entry!r}")
    name, shape = entry.get("name"), entry.get("shape")
    if not isinstance(name, str):
        raise FormatError(f"array entry name must be a string, got {name!r}")
    if not (isinstance(shape, list) and all(
            type(dim) is int and dim >= 0 for dim in shape)):
        raise FormatError(
            f"array {name!r}: shape must be a list of non-negative ints, got {shape!r}"
        )
    if type(entry.get("offset")) is not int or entry["offset"] != offset:
        raise FormatError(
            f"array {name!r}: offset {entry.get('offset')!r} does not follow "
            f"the previous array (expected {offset})"
        )
    return name, tuple(shape)


def _parse(fh, size: int, expected_magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of the ``size``-byte container that ``fh`` reads from
    its start. Raises FormatError."""
    if size < 4:
        raise FormatError("container shorter than the 4-byte header length")
    (header_len,) = struct.unpack("<I", fh.read(4))
    if size < 4 + header_len:
        raise FormatError(
            f"truncated header: need {header_len} bytes, have {size - 4}"
        )
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    magic = header.get("magic")
    if magic != expected_magic:
        raise FormatError(f"bad magic: expected {expected_magic!r}, got {magic!r}")
    version = header.get("version")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version!r} (expected {VERSION})")
    entries = header.get("arrays", [])
    if not isinstance(entries, list):
        raise FormatError("header 'arrays' must be a list")
    start = 4 + header_len
    shapes = {}
    offset = 0
    for entry in entries:
        name, shape = _check_entry(entry, offset)
        if name in shapes:
            raise FormatError(f"array {name!r} is named twice in the header")
        end = offset + math.prod(shape) * 8
        if start + end > size:
            raise FormatError(
                f"truncated data: array {name!r} needs bytes up to {end}, "
                f"data section has {size - start}"
            )
        shapes[name] = shape
        offset = end
    if start + offset != size:
        raise FormatError(f"{size - start - offset} bytes trail the last array")
    # the header fits the file, so every buffer below is one the file fills
    arrays = {}
    for name, shape in shapes.items():
        arr = arrays[name] = np.empty(shape, dtype="<f8")
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise FormatError(f"truncated data: array {name!r} ends early")
    return header.get("meta", {}), arrays


def unpack(blob: bytes, expected_magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a container held in memory; returns (meta, arrays). Raises FormatError."""
    return _parse(io.BytesIO(blob), len(blob), expected_magic)


def check(meta: dict, keys: set, arrays: Mapping[str, np.ndarray],
          table: Mapping[str, tuple[int, ...]], what: str) -> None:
    """Raise FormatError unless ``meta`` holds exactly ``keys`` and
    ``arrays`` exactly the names of ``table``, each at its table shape with
    finite entries: a key or an array outside the format would load, then
    vanish on the next save."""
    if meta.keys() != keys:
        raise FormatError(f"{what} metadata holds the keys {sorted(meta)}, "
                          f"expected {sorted(keys)}")
    if arrays.keys() != table.keys():
        raise FormatError(f"{what} arrays differ from its table, among them "
                          f"{sorted(arrays.keys() ^ table.keys())[:3]}")
    for name, shape in table.items():
        if arrays[name].shape != shape:
            raise FormatError(f"{what} array {name!r} has shape {arrays[name].shape}, "
                              f"expected {shape}")
        if not numkit.all_finite(arrays[name]):
            raise FormatError(f"{what} array {name!r} is not finite")


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_kwargs):
    """A handle opened with ``mode`` ("wb" or "w") and ``open_kwargs``
    whose writes become the file at ``path`` when the block ends.

    They go to a temporary file beside the target (the file a link names),
    which takes the old file's permission bits and is renamed over it, so
    on any error the old file stays as it was and the temporary file goes.
    A new file gets the default mode. A pipe or a device is written in
    place. Nothing is fsync'd.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        target, opens = None, [(path, mode)]
    else:
        target = os.path.realpath(path)
        opens = ((f"{target}.{os.getpid()}-{i}.tmp", mode.replace("w", "x"))
                 for i in itertools.count())
    for name, how in opens:
        with contextlib.suppress(FileExistsError):  # taken, by a live or a killed writer
            fh = open(name, how, **open_kwargs)
            break
    try:
        with fh:
            if target is not None:  # before the first byte, which may be private
                with contextlib.suppress(FileNotFoundError):  # a new file
                    os.chmod(name, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        if target is not None:
            os.replace(name, target)
    except BaseException:
        if target is not None:
            os.unlink(name)
        raise


def write(path, magic: str, meta: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write a container to ``path`` through :func:`replacing`."""
    prefix, datas = layout(magic, meta, arrays)
    with replacing(path) as fh:
        for chunk in (prefix, *datas):
            fh.write(chunk)


def read(path, expected_magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to check against
            return unpack(fh.read(), expected_magic)
        return _parse(fh, info.st_size, expected_magic)
