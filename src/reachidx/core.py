"""The query side: what a loaded index and the bulk query path read.

`reachidx query` over a valid bundle rebuilds the condensed graph from its
rows (`_csr_graph`), checks it against the index (`graph_checksum`), reads
the pairs file (`load_pairs`) and holds the index's columns
(`LevelAssignment`, `ExtTopOrder`, `SupportSet`).  All of that is here, and
the build stages are not: the parsers, Tarjan's condensation, the
components, levels and folds stay in graph, the ordering DFS in toporder
and the support selection in supportive.  A command loads those three
modules only when it builds an index or parses a graph, so a query never
compiles them (a process without bytecode compiles every module it
imports, whether it runs its code or not).  The observation spec that
reads the columns, and its one evaluator, live in index.

A graph is one layout: compressed sparse rows (CSR) in each direction, an
offsets array of n + 1 cells and a targets array of m cells, all four
array('I').  Python loops walk a vertex's neighbours as a slice of the
targets; numpy code reads whole arrays in place through np.frombuffer.
Beside the 4(2n + 2m + 2) bytes of cells there is no per-vertex or
per-edge object, so a large graph costs the collector nothing and a
forked process shares its pages until it writes them.

Every input file, an edge list, a gra file or a query file, is read as
bytes, once, and tokenized whole on numpy arrays (`_tokenize`) into what
str.split() gives for each line of the file as text mode reads it with the
utf-8-sig codec.  Ids are read from the tokens by `_parse_ids` (graph
reads a plain edge list by one np.fromstring call instead).
"""

from __future__ import annotations

import operator
import zlib
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph or query file."""


class DiGraph:
    """Simple directed graph (no self-loops, no parallel edges) in compressed
    sparse rows, both directions.

    The out-neighbours of v are out_tg[out_off[v]:out_off[v + 1]], ascending,
    and its in-neighbours in_tg[in_off[v]:in_off[v + 1]], ascending, so that
    equal graphs have identical representations regardless of edge input
    order.  All four are array('I'); numpy reads them in place through
    np.frombuffer.  Build one with `from_edges`; the parsers and
    `scc_condense` return graphs as well.  `checksum` caches
    `graph_checksum`'s value: None until its first call.
    """

    __slots__ = ("out_off", "out_tg", "in_off", "in_tg", "n", "m", "checksum")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        """The graph on vertices 0..n-1 with the given (u, v) edges; raises
        ValueError on n < 0, an id that is not an integer or not in [0, n),
        a self-loop or a parallel edge."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        pairs = list(edges)
        e = _index_array(chain.from_iterable(pairs), n)
        if len(e) != 2 * len(pairs):
            raise ValueError("edges must be (u, v) pairs")
        return _digraph(n, e[0::2], e[1::2])

    def reverse(self) -> "DiGraph":
        """The transposed graph, sharing this graph's arrays."""
        g = DiGraph.__new__(DiGraph)
        g.out_off, g.out_tg, g.in_off, g.in_tg = self.in_off, self.in_tg, self.out_off, self.out_tg
        g.n, g.m = self.n, self.m
        g.checksum = None
        return g

    def __eq__(self, other: object) -> bool:
        """Equal graphs have equal out-rows (the in-rows follow from them);
        the cached checksum takes no part.  A DiGraph is thus unhashable."""
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (self.n, self.m, self.out_off, self.out_tg) == (
            other.n, other.m, other.out_off, other.out_tg
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"DiGraph(n={self.n}, m={self.m})"


def check_ids(n: int, s: int, t: int) -> None:
    """Raise IndexError unless s and t are both vertex ids in [0, n)."""
    if not (0 <= s < n and 0 <= t < n):
        bad = t if 0 <= s < n else s
        raise IndexError(f"vertex id {bad} out of range for n={n}")


def _vertex_id(x) -> int:
    try:
        return operator.index(x)  # refuses floats, which int64 would truncate
    except TypeError:
        raise ValueError(f"vertex id {x!r} is not an integer") from None


def _index_array(values: Iterable[int], n: int) -> np.ndarray:
    try:
        return np.fromiter(map(_vertex_id, values), np.int64)
    except OverflowError:
        raise ValueError(f"vertex id out of range 0..{n - 1}") from None


def _digraph(n: int, u: np.ndarray, v: np.ndarray) -> DiGraph:
    """The one path from edges to a graph: validate the edges (u[i], v[i])
    and sort them into rows.  The first error is the one a scan of the
    sources in input order, then of the edges in (u, v) order, meets."""
    bad = (u < 0) | (u >= n)
    if bad.any():
        raise ValueError(f"edge source {u[bad.argmax()]} out of range 0..{n - 1}")
    in_range = bool(((v >= 0) & (v < n)).all())
    # with every target in range, u * n + v orders edges as (u, v) does
    order = np.argsort(u * n + v, kind="stable") if in_range else np.lexsort((v, u))
    u, v = u[order], v[order]
    bad = v == u
    bad[1:] |= (v[1:] == v[:-1]) & (u[1:] == u[:-1])
    if not in_range or bad.any():
        bad |= (v < 0) | (v >= n)
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if not 0 <= b < n:
            raise ValueError(f"edge target {b} out of range 0..{n - 1}")
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        raise ValueError(f"parallel edge ({a}, {b})")
    return _csr_graph(_offsets(np.bincount(u, minlength=n)), v)


def _csr_graph(off: np.ndarray, tg: np.ndarray) -> DiGraph:
    """The graph on len(off) - 1 vertices whose out-rows are tg[off[v]:off[v + 1]].

    The caller vouches for the rows: off starts at 0, never decreases and
    ends at len(tg); each row is strictly increasing, in range and free of
    its own vertex.  The edges are then in (source, target) order, so a
    stable sort of the targets lists each in-row's sources ascending.  That
    sort is a least-significant-digit radix sort on 16-bit digits, as
    numpy's stable argsort of uint16 is a counting sort: one pass when every
    target fits in 16 bits, else a second on the high digit.  On 2^18 random
    uint32 targets (numpy 2.4, min of 9) one stable argsort took 18.4 ms;
    the one pass took 1.7-2.0 ms on targets below 2^16, and the two passes
    4.0-4.5 ms on targets below 2^17, with the same permutation."""
    n = len(off) - 1
    tg = np.asarray(tg).astype(np.uint32, copy=False)
    src = np.repeat(np.arange(n, dtype=np.uint32), np.diff(off))
    order = np.argsort(tg.astype(np.uint16), kind="stable")  # the low digit
    if n > 1 << 16:
        order = order[np.argsort((tg[order] >> 16).astype(np.uint16), kind="stable")]
    g = DiGraph.__new__(DiGraph)
    g.out_off, g.out_tg = _uint_array(off), _uint_array(tg)
    g.in_off = _uint_array(_offsets(np.bincount(tg, minlength=n)))
    g.in_tg = _uint_array(src[order])
    g.n = n
    g.m = len(tg)
    g.checksum = None
    return g


def _offsets(degrees: np.ndarray) -> np.ndarray:
    return np.r_[0, np.cumsum(degrees)]


assert array("I").itemsize == 4  # CSR arrays and index columns are read and written as <u4


def _uint_array(values: np.ndarray) -> array:
    out = array("I")
    out.frombytes(np.asarray(values, dtype=np.uint32).tobytes())
    return out


def _checksum(off: array, tg: array) -> int:
    """CRC32 of n and m as <u8, the out-degrees as <u4, then the out-rows,
    concatenated, as <u4."""
    h = zlib.crc32(np.array([len(off) - 1, len(tg)], dtype="<u8").tobytes())
    h = zlib.crc32(np.diff(np.frombuffer(off, np.uint32)).astype("<u4").tobytes(), h)
    return zlib.crc32(np.frombuffer(tg, np.uint32).astype("<u4").tobytes(), h)


def graph_checksum(g: DiGraph) -> int:
    """CRC32 over a canonical little-endian encoding of (n, m, adjacency),
    computed on the first call and cached on the graph (racing first calls
    store the same value)."""
    if g.checksum is None:
        g.checksum = _checksum(g.out_off, g.out_tg)
    return g.checksum


@dataclass
class LevelAssignment:
    """A DAG's two level columns; a stage that needs a top level reads it."""

    fwd: array  # longest-path distance from any source
    bwd: array  # longest-path distance to any sink


# ---------------------------------------------------------------------------
# input files


# The code points that str.split() and str.strip() treat as whitespace,
# those for which chr(c).isspace() holds (a test pins the list to that
# set); none lies above U+3000.  The table's last slot stands for every
# code point above that.
_WHITESPACE = [
    0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20,
    0x85, 0xA0, 0x1680, 0x2000, 0x2001, 0x2002, 0x2003, 0x2004, 0x2005, 0x2006,
    0x2007, 0x2008, 0x2009, 0x200A, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
]
_WS_TABLE = np.zeros(0x3002, dtype=bool)
_WS_TABLE[_WHITESPACE] = True
_MAX_DIGITS = 18  # any 18-digit decimal fits an int64
_BOM = b"\xef\xbb\xbf"  # a UTF-8 byte order mark


@dataclass
class _Tokens:
    """The tokens of a text, line by line, as str.split() returns them."""

    text: str | bytes  # bytes when they are plain (see _tokenize)
    codes: np.ndarray  # per code point; those above U+3000 read as U+3001
    line_starts: np.ndarray  # per line: offset of its first code point
    starts: np.ndarray  # per token: offset of its first code point
    ends: np.ndarray  # per token: offset past its last code point
    counts: np.ndarray  # per line: its tokens

    @cached_property
    def line(self) -> np.ndarray:
        """Per token: its line, ascending."""
        return np.repeat(np.arange(len(self.counts)), self.counts)

    def line_text(self, i: int) -> str:
        """Line i, stripped."""
        ls = self.line_starts
        text = self.text[ls[i] : ls[i + 1] if i + 1 < len(ls) else len(self.text)]
        return (text.decode("ascii") if isinstance(text, bytes) else text).strip()


def _codes(data: bytes) -> tuple[str | bytes, np.ndarray, np.ndarray, np.ndarray]:
    """(text, codes, word, newlines) of a file's bytes: its text (see
    _tokenize), an array of its codes (those above U+3000 read as U+3001),
    which of them are token codes, and where the '\\n' are.  Bytes that are
    not UTF-8 are a GraphFormatError naming the line of the first bad one."""
    if data.startswith(_BOM):
        data = data[len(_BOM):]
    codes = np.frombuffer(data, np.uint8)
    low = np.flatnonzero(codes < 28)  # in plain bytes '\t', '\n', '\v' and '\f'
    if codes.max(initial=0) < 128 and (codes[low] - np.uint8(9) < 4).all():
        return data, codes, codes > 32, low[codes[low] == 10]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data[: e.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise GraphFormatError(f"line {line}: not UTF-8 (byte 0x{data[e.start]:02x})") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        codes = np.frombuffer(text.encode("latin-1"), np.uint8)
    except UnicodeEncodeError:
        codes = np.minimum(np.frombuffer(text.encode("utf-32-le"), np.uint32), 0x3001)
    return text, codes, ~_WS_TABLE[codes], np.flatnonzero(codes == 10)


def _tokenize(data: bytes, comments: str) -> _Tokens:
    """The tokens of a file's bytes, split into lines at '\\n'; a line whose
    first token starts with a character of comments holds none.

    One leading UTF-8 byte order mark is skipped, as
    open(path, encoding="utf-8-sig") skips it, and the rest is read.  Plain
    bytes (ASCII with no '\\r' and no control byte 0-8 or 14-27) are their
    own text, and a token byte is one above 32.  Other bytes are decoded as
    that open() reads them, '\\r\\n' and a lone '\\r' as '\\n', and a token
    code is one the whitespace table does not hold.  Tokens start and end where the token mask changes, found in one
    pass, and each line's first token by one search of the token starts."""
    text, codes, word, newlines = _codes(data)
    line_starts = np.r_[0, newlines + 1]
    bounds = np.flatnonzero(np.diff(word, prepend=False, append=False))
    del word
    starts, ends = bounds[0::2], bounds[1::2]
    first = np.searchsorted(starts, line_starts)  # per line: its first token
    counts = np.diff(first, append=len(starts))
    held = np.flatnonzero(counts)
    comment = held[np.isin(codes[starts[first[held]]], [ord(c) for c in comments])]
    if len(comment):
        keep = np.ones(len(line_starts), dtype=bool)
        keep[comment] = False
        keep = np.repeat(keep, counts)
        starts, ends = starts[keep], ends[keep]
        counts[comment] = 0
    return _Tokens(text, codes, line_starts, starts, ends, counts)


def _parse_ids(
    text: str | bytes, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, int]:
    """(vals, i): vals[j] is int() of the token text[starts[j]:ends[j]], for
    each j before i, the first token int() refuses (len(starts) when none
    does).  Tokens of an optional sign and up to 18 ASCII digits are
    converted digit column by digit column; int() converts the rest one by
    one (it reads plain bytes as their text).  vals holds objects when some
    id needs more than 64 bits."""
    sign = np.isin(codes[starts], (ord("+"), ord("-")))
    first = starts + sign
    n_digits = ends - first
    simple = (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
    vals = np.zeros(len(starts), dtype=np.int64)
    for k in range(min(int(n_digits.max(initial=0)), _MAX_DIGITS)):
        live = n_digits > k
        d = codes.take(first + k, mode="clip").astype(np.int64) - ord("0")
        simple &= ~live | ((d >= 0) & (d <= 9))
        vals = np.where(live, vals * 10 + d, vals)
    vals[codes[starts] == ord("-")] *= -1
    fixes = []
    for i in np.flatnonzero(~simple).tolist():
        try:
            fixes.append((i, int(text[starts[i]:ends[i]])))
        except ValueError:
            return vals, i
    if any(not -(2**63) <= x < 2**63 for _, x in fixes):
        vals = vals.astype(object)  # ids beyond 64 bits compare as Python ints
    for i, x in fixes:
        vals[i] = x
    return vals, len(starts)


def load_pairs(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The query file at path, read at once, as (S, T, expected): the pair
    (S[i], T[i]) and its expected bit, 1 or 0, or -1 when it has none.

    One pair per line, 's t [expected]': two ids as int() reads them, then
    an optional 0 or 1.  Blank lines and lines whose first non-blank
    character is '#' are skipped.  S and T hold objects when some id needs
    more than 64 bits.  Raises GraphFormatError for the first line that is
    not a pair, as a line-by-line reading meets it."""
    try:
        with open(path, "rb") as f:
            tk = _tokenize(f.read(), "#")
    except GraphFormatError as e:  # not UTF-8: 'line N: ...' as 'path:N: ...'
        raise GraphFormatError(f"{path}:{str(e).removeprefix('line ')}") from None
    n_lines, counts, line = len(tk.counts), tk.counts, tk.line
    shape_bad = (counts != 0) & (counts != 2) & (counts != 3)
    col = np.arange(len(line)) - (np.cumsum(counts) - counts)[line]  # place in its line
    shaped = ~shape_bad[line]
    bit = shaped & (col == 2)
    bit_bad = bit & ((tk.ends - tk.starts != 1) | ~np.isin(tk.codes[tk.starts], (48, 49)))
    first = int(shape_bad.argmax()) if shape_bad.any() else n_lines
    if bit_bad.any():
        first = min(first, int(line[bit_bad.argmax()]))
    ids = shaped & (col < 2) & (line < first)
    vals, i = _parse_ids(tk.text, tk.codes, tk.starts[ids], tk.ends[ids])
    if i < len(vals):
        first = int(line[ids][i])
    if first < n_lines:
        if shape_bad[first]:
            got = tk.line_text(first)
            raise GraphFormatError(f"{path}:{first + 1}: expected 's t [expected]', got {got!r}")
        raise GraphFormatError(f"{path}:{first + 1}: bad token")
    expected = np.full(len(vals) // 2, -1, dtype=np.int8)
    expected[counts[line[col == 0]] == 3] = tk.codes[tk.starts[bit]] - ord("0")
    return vals[0::2], vals[1::2], expected


def graph_format(path: str, fmt: str | None = None) -> str:
    """fmt, or when it is None the format named by path's suffix."""
    if fmt is not None:
        return fmt
    return "gra" if str(path).endswith(".gra") else "edge-list"


# ---------------------------------------------------------------------------
# the index's columns


# The mask codec: a bitmask column (one int per vertex, bit i = the i-th
# support or candidate) as (n, w) uint8 rows of w little-endian bytes, for
# the index's stored masks and _fold_run's multi-word rows.  Ints become
# rows by one int.to_bytes each; rows become ints by the faster method at
# their width: numpy over 64-bit word columns, or one int.from_bytes per
# row.  In ms for 2^16 rows (min of 9; a 2-core Xeon, Python 3.11, numpy 2.4):
#
#   words   to ints: word columns / per row   to rows: word columns / per row
#     1          1.3 / 10.1                       1.7 / 4.4
#     2          5.4 /  9.8                       7.6 / 4.3
#     3         10.3 / 10.1                      12.3 / 4.8
#     4         13.1 / 10.4                      13.9 / 5.1
#    19         80.2 / 14.9                      74.6 / 10.5
#
# Word columns encode one word faster, but _fold_run, the one encoder, has
# one-word rows only for a pool of at most 64 candidates (k * p = 1200 by
# default: 19 words).  A row of 1, 2, 4 or 8 bytes is one unsigned cell,
# read in place as one column on its way to ints: the two mask directions
# of a G(2^16, 2^18) index at k = 16 took 0.66 against 1.13 ms through
# zero-padded words (min of 31).


def mask_rows(masks: list[int], w: int) -> np.ndarray:
    """The (len(masks), w) uint8 rows holding each mask in w little-endian
    bytes; raises ValueError for a mask that is negative or does not fit."""
    try:
        buf = b"".join([m.to_bytes(w, "little") for m in masks])
    except OverflowError:
        raise ValueError(f"mask does not fit in {w} bytes") from None
    return np.frombuffer(buf, np.uint8).reshape(len(masks), w)


def masks_from_rows(rows: np.ndarray) -> list[int]:
    """Inverse of mask_rows: the masks held in (n, w) little-endian byte rows."""
    n, w = rows.shape
    if w == 0:
        return [0] * n
    if w in (1, 2, 4, 8):  # each row one unsigned cell, read in place
        return np.ascontiguousarray(rows).view(f"<u{w}")[:, 0].tolist()
    nwords = -(-w // 8)
    if nwords > 3:  # per row
        buf = rows.tobytes()
        return [int.from_bytes(buf[i : i + w], "little") for i in range(0, n * w, w)]
    padded = np.zeros((n, 8 * nwords), dtype=np.uint8)
    padded[:, :w] = rows
    words = padded.view("<u8")
    if nwords == 1:
        return words[:, 0].tolist()
    big = words[:, 0].astype(object)
    for j in range(1, nwords):
        big |= words[:, j].astype(object) << (64 * j)
    return big.tolist()


@dataclass(frozen=True)
class SupportSet:
    """Every vertex's two support masks, as the index file holds them.

    fwd_rows and bwd_rows are n rows of mask_bytes little-endian bytes,
    vertex by vertex, which the bulk paths read as numpy rows (see rows).
    fwd_mask and bwd_mask are the same masks as one Python int per vertex
    for the scalar path, where any k keeps S1-S3 a single `&`; each is
    derived from its rows on first read, so the two forms cannot disagree
    and a build or load that runs no scalar query never makes them.  The
    rows determine the supports: bit i's support is the one vertex whose
    rows both have bit i set.
    """

    fwd_rows: bytes  # bit i of vertex w's row: support i reaches w
    bwd_rows: bytes  # bit i of vertex w's row: w reaches support i
    k: int  # requested support count; fewer bits may have a support
    n: int  # vertices, one row each

    def __post_init__(self) -> None:
        for data in (self.fwd_rows, self.bwd_rows):
            self.rows(data)  # raises ValueError unless data holds n * mask_bytes bytes

    # On first read, not at construction: the scalar pass reads both lists
    # once a bind (index._bind_observations), not once a query, so a lazy
    # attribute costs a query nothing.
    @cached_property
    def fwd_mask(self) -> list[int]:
        return masks_from_rows(self.rows(self.fwd_rows))

    @cached_property
    def bwd_mask(self) -> list[int]:
        return masks_from_rows(self.rows(self.bwd_rows))

    def __getstate__(self) -> dict:
        """The fields, not the int masks: a copy derives them from its rows."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def mask_bytes(self) -> int:
        return (self.k + 7) // 8

    def rows(self, data: bytes) -> np.ndarray:
        """data, fwd_rows or bwd_rows, as a read-only (n, mask_bytes) uint8
        array over its bytes."""
        return np.frombuffer(data, np.uint8).reshape(self.n, self.mask_bytes)


FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class ExtTopOrder:
    pos: array
    hi: array  # High, in the ordering's own graph
    mx: array  # Max, in the ordering's own graph
    flavor: str  # FORWARD: of the DAG; BACKWARD: of its reverse
    seed: int | None = field(default=None, compare=False)  # not in the index file
