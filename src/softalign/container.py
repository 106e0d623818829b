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
renames a complete temporary file over its target. :func:`read` maps a
regular file read-only; a pipe or an empty file is read whole. The one
parser, :func:`unpack`, takes that buffer or bytes held in memory, checks
the whole header against its size, then returns each array as a
read-only view of it: loading copies no array. A file must therefore not
be rewritten in place while arrays read from it are alive (reading a
truncated mapping faults); the package's own writers always rename, so
they never do this.

Every whole pass over an array walks it in blocks of rows
(:func:`row_blocks`): the finite test of :func:`check`, :func:`write`,
and in :mod:`softalign.synthgen` the ROI pooling and the dataset hash.
After each block of a mapped array the walk releases the block's pages,
so a pass holds about one block of the file. Each loader hands
:func:`check` its format's name -> shape table: a file holds exactly the
format's metadata keys and the table's arrays, each at its table shape
with finite entries.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import mmap
import os
import stat
import struct
from typing import Mapping

import numpy as np

from . import numkit
from .errors import FormatError

VERSION = 1

# bytes per block of a whole pass over an array (row_blocks)
_BLOCK_BYTES = 8 << 20
# absent where the platform cannot release a mapping's pages; passes then keep them
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


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


def unpack(buf, expected_magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of the container that ``buf`` (a mapping or bytes)
    holds, each array a read-only view of ``buf``: the one parser, which
    checks the whole header against the buffer's size. Raises FormatError."""
    size = len(buf)
    if size < 4:
        raise FormatError("container shorter than the 4-byte header length")
    (header_len,) = struct.unpack_from("<I", buf)
    if size < 4 + header_len:
        raise FormatError(
            f"truncated header: need {header_len} bytes, have {size - 4}"
        )
    try:
        header = json.loads(buf[4:4 + header_len].decode("utf-8"))
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
    arrays = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        arrays[name] = np.frombuffer(buf, "<f8", count, start).reshape(shape)
        start += 8 * count
    return header.get("meta", {}), arrays


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
        if not all(map(numkit.all_finite, row_blocks(arrays[name]))):
            raise FormatError(f"{what} array {name!r} is not finite")


def _mapping(arr: np.ndarray):
    """The mapping whose memory ``arr`` views, or None."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    if isinstance(arr, memoryview):
        arr = arr.obj
    return arr if isinstance(arr, mmap.mmap) else None


def row_blocks(arr: np.ndarray):
    """``arr`` as consecutive blocks of whole rows, about 8 MB each.

    A 0-d array is one block of one entry. After each block of an array
    that a mapping backs, the block's whole pages are released, so one
    pass over a mapped file holds about one block of it: reading the
    pages again faults them back in from the file. Raises TypeError
    unless ``arr`` is an array.
    """
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"expected an array, got {type(arr).__name__}")
    rows = arr.reshape(-1) if arr.ndim == 0 else arr
    step = max(1, _BLOCK_BYTES // max(1, rows[:1].nbytes))
    mapping = _mapping(arr) if _DONTNEED is not None else None
    if mapping is not None:
        origin = np.frombuffer(mapping, np.uint8).ctypes.data
    for r0 in range(0, len(rows), step):
        block = rows[r0:r0 + step]
        try:
            yield block
        finally:
            if mapping is not None:  # the pages wholly inside the block
                start, page = block.ctypes.data - origin, mmap.PAGESIZE
                first, end = -(-start // page), (start + block.nbytes) // page
                if end > first:
                    mapping.madvise(_DONTNEED, first * page, (end - first) * page)


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
        fh.write(prefix)
        for data in datas:
            for block in row_blocks(data):
                fh.write(block)


def read(path, expected_magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of the container at ``path``; raises FormatError.

    A regular file is mapped read-only; a pipe, or an empty file, which
    cannot be mapped, is read whole. Either buffer goes to :func:`unpack`,
    so each array is a read-only view of it.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            buf = fh.read()
    return unpack(buf, expected_magic)
