"""Binary twins of the CSV files the command line writes.

``geoknot sample`` and ``geoknot graph`` write a CSV file and, beside
it, its twin ``<path>.twin``: the arrays that reading the CSV back
returns, so a later read loads them instead of parsing the text.  A twin
is one raw blob, read in one ``read()``:

    magic     8 bytes   b"GKTWIN1\\n"
    key       32 bytes  sha256 of the format tag, the points (graph
                        twins only: shape as two int64, then their
                        float64 bytes) and the CSV file's exact bytes
    digest    32 bytes  sha256 of everything after the counts
    counts    8 bytes   per array, its element count, int64
    arrays              little-endian, each padded with zeros to a
                        multiple of 8 bytes

A reader takes a twin only if it is whole and its key is the key of the
CSV file's bytes, hashed a block at a time as they are read, and then
checks what the arrays must satisfy; anything else (no twin, an older
CSV, other points, a torn or corrupt file) sends it to the CSV.  Nothing
here parses or checks the arrays' meaning: that is the reader's.
"""

import contextlib
import hashlib
import itertools
import os

import numpy as np

MAGIC = b"GKTWIN1\n"

# Lines of text joined per write while a CSV file is written.
LINE_BLOCK = 4096

# Bytes of a CSV file read per step while its key is computed.
HASH_BLOCK = 1 << 16


def twin_path(csv_path: str) -> str:
    return csv_path + ".twin"


def csv_key(tag: bytes, points=None):
    """The sha256 object a twin's key comes from, fed the format ``tag``
    and, for a graph, its points; the CSV bytes go in last, through
    ``update``, as they are written or read."""
    h = hashlib.sha256(tag)
    if points is not None:
        points = np.ascontiguousarray(points, dtype="<f8")
        h.update(np.array(points.shape, dtype="<i8").tobytes())
        h.update(points)
    return h


def write_csv(path: str, lines, key):
    """Write the text ``lines`` to ``path`` as UTF-8, a block of lines at
    a time, and feed the same bytes to the hash ``key``."""
    lines = iter(lines)
    with open(path, "wb") as fh:
        while block := "".join(itertools.islice(lines, LINE_BLOCK)).encode("utf-8"):
            fh.write(block)
            key.update(block)


def write_twin(csv_path: str, key: bytes, arrays, dtypes):
    """Write ``arrays``, each as the matching dtype, as the twin of
    ``csv_path`` bound to ``key``.  The file is written under a
    temporary name and moved into place, so a reader finds the old twin,
    the new one or none, never a part of one."""
    arrays = [np.ascontiguousarray(a, dtype=d).reshape(-1) for a, d in zip(arrays, dtypes)]
    pads = [bytes(-a.nbytes % 8) for a in arrays]
    digest = hashlib.sha256()
    for a, pad in zip(arrays, pads):
        digest.update(a)
        digest.update(pad)
    twin = twin_path(csv_path)
    tmp = f"{twin}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + key + digest.digest())
            fh.write(np.array([len(a) for a in arrays], dtype="<i8").tobytes())
            for a, pad in zip(arrays, pads):
                fh.write(a)
                fh.write(pad)
        os.replace(tmp, twin)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def read_twin(csv_path: str, tag: bytes, dtypes, points=None):
    """(head, arrays) of ``csv_path``'s twin: the CSV file's first line
    (up to HASH_BLOCK bytes, its line end included) and one 1-D array per
    dtype, sharing one writable buffer.  None unless the twin is whole,
    holds exactly that many arrays and is bound to the CSV file's bytes
    under the format ``tag`` and the ``points`` (:func:`csv_key`).

    The CSV file is only hashed, HASH_BLOCK bytes at a time, so a read
    from the twin never holds the file's bytes; the head is read as the
    first of those blocks, so it comes from the bytes the key binds.
    """
    try:
        with open(twin_path(csv_path), "rb") as fh:
            blob = bytearray(os.fstat(fh.fileno()).st_size)
            whole = fh.readinto(blob) == len(blob)
    except OSError:
        return None
    counts_at = len(MAGIC) + 64
    start = counts_at + 8 * len(dtypes)
    if not whole or len(blob) < start or blob[:len(MAGIC)] != MAGIC:
        return None
    key = csv_key(tag, points)
    try:
        with open(csv_path, "rb") as fh:
            head = fh.readline(HASH_BLOCK)
            key.update(head)
            while block := fh.read(HASH_BLOCK):
                key.update(block)
    except OSError:
        return None
    if blob[len(MAGIC):len(MAGIC) + 32] != key.digest():
        return None
    counts = [int(c) for c in np.frombuffer(blob, "<i8", len(dtypes), counts_at)]
    sizes = [c * np.dtype(d).itemsize for c, d in zip(counts, dtypes)]
    if min(counts, default=0) < 0 or start + sum(s + -s % 8 for s in sizes) != len(blob):
        return None
    if hashlib.sha256(memoryview(blob)[start:]).digest() != blob[len(MAGIC) + 32:counts_at]:
        return None
    arrays, at = [], start
    for count, dtype, size in zip(counts, dtypes, sizes):
        arrays.append(np.frombuffer(blob, dtype, count, at))
        at += size + -size % 8
    return head, arrays
