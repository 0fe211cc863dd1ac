"""graph6 codec (McKay's format) plus a plain edge-list text format.

graph6 packs the upper triangle of the adjacency matrix in column order
(0,1),(0,2),(1,2),(0,3),... into 6-bit groups, each printed as one byte
in the range 63..126.  That is base64 with another alphabet: the same
big-endian sextets, so the codec converts whole bodies with ``base64``
and ``bytes.translate``.  Encoding lays the columns out as one string of
ASCII '0'/'1'; decoding writes them below the diagonal of an n*n such
matrix and reads each row back from its row and column slices.  The
optional ``>>graph6<<`` header is accepted on decode and never emitted.

The secondary text format is one integer header line with the vertex
count followed by one ``u v`` edge per line, 0-indexed.  Blank lines and
lines starting with ``#`` are ignored on parse.
"""

from __future__ import annotations

import base64

from .core import Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


_HEADER = ">>graph6<<"
# the graph6 body is base64 with the sextets printed as bytes 63..126
_ALPHABET = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, _ALPHABET)
_TO_BASE64 = bytes.maketrans(_ALPHABET, _BASE64)


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise Graph6Error("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes(
            [126, 126]
            + [((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0)]
        )
    raise Graph6Error("vertex count too large for graph6")


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, number of bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise Graph6Error("truncated long-form size", len(data))
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        return n, 8
    if len(data) < 4:
        raise Graph6Error("truncated medium-form size", len(data))
    n = 0
    for byte in data[1:4]:
        n = (n << 6) | (byte - 63)
    return n, 4


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 string (no header)."""
    n = g.n
    nbits = n * (n - 1) // 2
    if not nbits:
        return _encode_size(n).decode("ascii")
    # column c contributes bits 0..c-1 of row c, lowest first; pad to whole
    # base64 quanta of 24 bits
    padded = -(-nbits // 24) * 24
    buf = bytearray(b"0") * padded
    at = 0
    for c in range(1, n):
        buf[at:at + c] = format(g.adj[c] & ((1 << c) - 1), f"0{c}b")[::-1].encode("ascii")
        at += c
    body = base64.b64encode(int(buf, 2).to_bytes(padded // 8, "big"))
    body = body[:(nbits + 5) // 6].translate(_FROM_BASE64)
    return (_encode_size(n) + body).decode("ascii")


def decode_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally ``>>graph6<<``-headed)."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 input") from exc
    bad = data.translate(None, _ALPHABET)
    if bad:
        raise Graph6Error(f"byte {bad[0]!r} outside graph6 alphabet", data.index(bad[0]))
    n, consumed = _decode_size(data)
    body = data[consumed:]
    nbits = n * (n - 1) // 2
    needed = (nbits + 5) // 6
    if len(body) != needed:
        raise Graph6Error(
            f"expected {needed} data bytes for n={n}, got {len(body)}",
            consumed + min(len(body), needed),
        )
    # trailing padding must be zero
    if nbits % 6:
        tail = (body[-1] - 63) & ((1 << (6 - nbits % 6)) - 1)
        if tail:
            raise Graph6Error("non-zero padding bits", consumed + len(body) - 1)
    return Graph(n, _decode_rows(n, body))


def _decode_rows(n: int, body: bytes) -> tuple[int, ...]:
    """Adjacency rows of a graph6 body that has passed every check.

    The body's bits fill the lower triangle of an n*n matrix of ASCII
    '0'/'1' (column c of the upper triangle is row c below the diagonal);
    row r is then its row slice, bits below r, joined with its column
    slice, bits above r.
    """
    if n < 2:
        return (0,) * n
    quanta = body.translate(_TO_BASE64) + b"A" * (-len(body) % 4)
    raw = base64.b64decode(quanta)
    bitstr = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b").encode("ascii")
    flat = bytearray(b"0") * (n * n)
    at = 0
    for c in range(1, n):
        flat[c * n:c * n + c] = bitstr[at:at + c]
        at += c
    return tuple(
        int(flat[r * n:(r + 1) * n][::-1], 2) | int(flat[r::n][::-1], 2) for r in range(n)
    )


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; malformed lines raise Graph6Error."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = [int(part) for part in line.split()]
        except ValueError:
            nums = []
        if n is None:
            if len(nums) != 1:
                raise Graph6Error(f"line {lineno}: expected vertex-count header")
            n = nums[0]
        elif len(nums) != 2:
            raise Graph6Error(f"line {lineno}: expected 'u v'")
        else:
            edges.append((nums[0], nums[1]))
    if n is None:
        raise Graph6Error("missing vertex-count header line")
    return Graph.from_edges(n, edges)
