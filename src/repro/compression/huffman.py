"""Canonical Huffman codec over integer symbol streams.

SZ's third pipeline stage (Section 2.3 / 4.2, Solution A and B) entropy-codes
the quantization codes with Huffman coding before the final lossless pass.
This module provides a small, self-contained canonical-Huffman implementation
used by :mod:`repro.compression.sz` and :mod:`repro.compression.sz_complex`.

The codec owns the *format*: code-book construction, canonicalisation, wire
(de)serialisation and code-book validation.  The code tree is built with the
linear two-queue merge over count-sorted leaves (see :func:`_build_lengths`),
which yields exactly the tree of the classic heap construction with its
(count, creation order) tiebreak, so code lengths — and every encoded byte —
are those of the seed encoder.  Symbols map to their code words through one
dense table gather whenever the symbol values span at most
``_DENSE_SPAN_FACTOR`` times the stream length (always the case for SZ's
bounded delta codes), and through a binary search otherwise.  The hot loops —
packing the variable-width code words on encode and walking the bit stream
on decode — are delegated to a pluggable kernel engine
(:mod:`repro.compression.engines`): the default ``"numpy"`` engine runs the
table-driven vectorised decoder (window lookup table + jump composition +
anchor-ladder wavefront), the optional ``"numba"`` engine runs the
naturally-sequential loop as JIT-compiled machine code.  Both produce
bit-identical streams; select one with ``HuffmanCodec(engine=...)``.

The wire format is unchanged from the seed implementation: little-endian
``count`` / code book (symbols + lengths) / ``total_bits`` / MSB-first packed
code stream.  Blobs produced by any engine decode identically with every
other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .engines import CodecEngine, engine_name, resolve_engine
from .interface import CompressorError

__all__ = ["HuffmanCodec", "encode", "decode", "DECODE_WINDOW_BITS"]

#: Width (bits) of the numpy engine's window lookup table.  Codes no longer
#: than this resolve with one table gather; rarer, longer codes take the
#: searchsorted slow path.  2^W table entries are built per decode call; 16
#: is the widest window a uint16 table index supports and keeps the
#: slow-path fraction negligible even for the wide-alphabet books SZ's
#: 65536-bin quantization produces (the table is clamped to the book's
#: maximum code length, so small books build small tables).
DECODE_WINDOW_BITS = 16

#: The encoder maps symbols to code words through a table indexed by
#: ``symbol - min`` when ``max - min + 1`` is at most this multiple of the
#: stream length, so the table never outgrows the stream by more than a
#: constant however large the symbol values are.  SZ's delta codes span at
#: most the quantization-bin range plus the escape symbol; 2x covers every
#: simulator block (up to 54k values over 32k symbols).
_DENSE_SPAN_FACTOR = 2


@dataclass
class _CodeBook:
    """Canonical code book: symbols, code lengths and code values."""

    symbols: np.ndarray  # int64 symbols, sorted by (length, symbol)
    lengths: np.ndarray  # uint8 code lengths, same order
    codes: np.ndarray  # uint64 canonical code values, same order


def _build_lengths(counts: np.ndarray) -> np.ndarray:
    """Return Huffman code lengths for each symbol given its frequency.

    Linear two-queue merge (van Leeuwen): leaves sorted once by count — stably,
    so equal counts keep index order — form one queue, merged internal nodes a
    FIFO second queue whose counts never decrease.  Each step takes the two
    smallest fronts, and a leaf wins a tie with an internal node.  That is the
    exact pop order of a heap keyed ``(count, tiebreak)`` where leaves carry
    their index and internal nodes ``n + creation order``, so the tree — and
    every code length — is the heap construction's.  Depths come from the
    parent links: internal nodes are created after their children, so a walk
    from the root down over creation order sees every parent first.
    """

    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    order = np.argsort(counts, kind="stable")
    leaves = counts[order].tolist()
    leaves.append(float("inf"))  # sentinel: an empty leaf queue never wins
    merged: list[int] = []  # internal node counts, in creation order
    leaf_parent = [0] * n  # parent (internal node number) of sorted leaf i
    node_parent = [0] * (n - 1)  # parent of internal node j
    i = j = 0
    for node in range(n - 1):  # one merge per internal node
        if j == node or leaves[i] <= merged[j]:
            first = leaves[i]
            leaf_parent[i] = node
            i += 1
        else:
            first = merged[j]
            node_parent[j] = node
            j += 1
        if j == node or leaves[i] <= merged[j]:
            second = leaves[i]
            leaf_parent[i] = node
            i += 1
        else:
            second = merged[j]
            node_parent[j] = node
            j += 1
        merged.append(first + second)
    depth = [0] * (n - 1)  # the root, node n - 2, has depth 0
    for node in range(n - 3, -1, -1):  # root down: parents come first
        depth[node] = depth[node_parent[node]] + 1
    lengths = np.empty(n, dtype=np.uint8)
    lengths[order] = np.array(depth, dtype=np.int64)[leaf_parent] + 1
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values for code *lengths* sorted ascending.

    Each code, left-justified to ``max_len`` bits, starts exactly where the
    previous code's ``2^(max_len - length)``-wide span ends — so the code
    values are an exclusive cumulative sum of span widths, computed without
    a per-entry loop.
    """

    if lengths.size == 0:
        return np.zeros(0, dtype=np.uint64)
    max_len = int(lengths[-1])
    shifts = (max_len - lengths).astype(np.uint64)
    spans = np.uint64(1) << shifts
    left_justified = np.zeros(lengths.size, dtype=np.uint64)
    np.cumsum(spans[:-1], out=left_justified[1:])
    return left_justified >> shifts


def _canonicalize(symbols: np.ndarray, lengths: np.ndarray) -> _CodeBook:
    """Assign canonical code values given symbols and their code lengths.

    The canonical ordering is ascending code length, symbol as tie-breaker.
    """

    order = np.lexsort((symbols, lengths))
    lengths = lengths[order]
    return _CodeBook(
        symbols=symbols[order], lengths=lengths, codes=_canonical_codes(lengths)
    )


def _code_book_and_fields(symbols: np.ndarray) -> tuple[_CodeBook, np.ndarray, np.ndarray]:
    """The canonical code book of *symbols*, and each symbol's code and width.

    Kept apart from :meth:`HuffmanCodec.encode` so the span-sized
    temporaries are freed before the bit packing allocates its own.
    """

    low = int(symbols.min())
    span = int(symbols.max()) - low + 1
    dense = span <= _DENSE_SPAN_FACTOR * symbols.size
    if dense:
        offsets = symbols - low
        histogram = np.bincount(offsets, minlength=span)
        present = np.flatnonzero(histogram)
        unique, counts = present + low, histogram[present]
        del histogram  # span-sized: freed before the span-sized tables below
    else:
        unique, counts = np.unique(symbols, return_counts=True)
    lengths = _build_lengths(counts)
    # `unique` is sorted, so a stable sort by length alone is the canonical
    # (length, symbol) order.
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    book = _CodeBook(
        symbols=unique[order],
        lengths=sorted_lengths,
        codes=_canonical_codes(sorted_lengths),
    )
    # Symbol -> (code, length): one gather from span-sized tables, or a
    # binary search into the sorted alphabet when the span is too wide.
    if dense:
        code_table = np.empty(span, dtype=np.uint64)
        code_table[present[order]] = book.codes
        length_table = np.empty(span, dtype=np.uint8)
        length_table[present] = lengths
        codes, widths = code_table[offsets], length_table[offsets]
    else:
        codes_by_symbol = np.empty_like(book.codes)
        codes_by_symbol[order] = book.codes
        rank = np.searchsorted(unique, symbols)
        codes, widths = codes_by_symbol[rank], lengths[rank]
    return book, codes, widths.astype(np.int64)


class HuffmanCodec:
    """Encode/decode int64 symbol arrays with canonical Huffman codes.

    Parameters
    ----------
    window_bits:
        Width of the numpy engine's decode lookup table (ignored by other
        engines; the decoded stream never depends on it).
    engine:
        Kernel engine for the hot loops — an engine name from
        :data:`repro.compression.engines.KNOWN_ENGINES`, an already-resolved
        :class:`~repro.compression.engines.CodecEngine`, or ``None`` for the
        default.
    """

    def __init__(
        self,
        window_bits: int = DECODE_WINDOW_BITS,
        engine: str | CodecEngine | None = None,
    ) -> None:
        if not 1 <= window_bits <= 16:
            raise CompressorError("window_bits must be in [1, 16]")
        self._window_bits = window_bits
        self._engine_name = engine_name(engine)
        self._engine_impl = resolve_engine(engine)

    @property
    def engine(self) -> str:
        """The *requested* engine name (``"numpy"`` when none was given).

        Deliberately the requested name, not the resolved one: a codec pickled
        with ``engine="numba"`` on a host without numba re-resolves — and gets
        the real numba engine — when unpickled on a worker that has it.
        """

        return self._engine_name

    def __getstate__(self) -> dict:
        # Constructor arguments only (cheap process-pool pickling); decode
        # tables are always built per call, never held on the instance.
        return {"window_bits": self._window_bits, "engine": self._engine_name}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode a 1-D integer array into a self-describing byte string."""

        symbols = np.ascontiguousarray(symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise CompressorError("Huffman encoder expects a 1-D symbol array")
        header = struct.pack("<Q", symbols.size)
        if symbols.size == 0:
            return header + struct.pack("<I", 0)

        book, codes, widths = _code_book_and_fields(symbols)
        packed, total_bits = self._engine_impl.pack_bitfields(codes, widths)

        # Serialise the code book: number of entries, symbols, lengths.
        book_blob = (
            struct.pack("<I", book.symbols.size)
            + book.symbols.astype("<i8").tobytes()
            + book.lengths.astype("<u1").tobytes()
        )
        return (
            header
            + struct.pack("<I", len(book_blob))
            + book_blob
            + struct.pack("<Q", total_bits)
            + packed.tobytes()
        )

    def decode(self, blob: bytes) -> np.ndarray:
        """Inverse of :meth:`encode`."""

        # Every header field is checked against the bytes actually present
        # before it sizes a read, so a truncated or overstated blob raises
        # CompressorError rather than struct.error or ValueError.
        if len(blob) < 12:
            raise CompressorError("Huffman blob truncated (header)")
        count, book_len = struct.unpack_from("<QI", blob, 0)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        offset = 12
        if offset + book_len + 8 > len(blob):
            raise CompressorError("Huffman blob truncated (code book)")
        (num_entries,) = struct.unpack_from("<I", blob, offset)
        if 4 + 9 * num_entries != book_len:
            raise CompressorError(
                f"Huffman code book of {book_len} bytes cannot hold "
                f"{num_entries} entries"
            )
        sym_off = offset + 4
        symbols = np.frombuffer(
            blob, dtype="<i8", count=num_entries, offset=sym_off
        ).astype(np.int64)
        lengths = np.frombuffer(
            blob, dtype="<u1", count=num_entries, offset=sym_off + 8 * num_entries
        ).astype(np.uint8)
        offset += book_len
        # Validate the (untrusted) code book before building decode tables:
        # lengths outside [1, 64] would drive undefined uint64 shifts, and a
        # Kraft-inequality violation would overflow the window table.  The
        # float Kraft sum is exact far beyond the 2^-16 violation the table
        # could ever be sensitive to.
        if num_entries == 0:
            raise CompressorError("invalid Huffman code book (empty)")
        if int(lengths.min()) < 1 or int(lengths.max()) > 64:
            raise CompressorError("invalid Huffman code book (bad code length)")
        if float((2.0 ** -lengths.astype(np.float64)).sum()) > 1.0 + 1e-9:
            raise CompressorError("invalid Huffman code book (Kraft violation)")
        book = _canonicalize(symbols, lengths)

        (total_bits,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        packed = np.frombuffer(blob, dtype=np.uint8, offset=offset)
        # Every code is at least one bit long, so a stream shorter than
        # `count` bits cannot hold the symbols its header claims.
        if packed.size * 8 < total_bits or total_bits < count:
            raise CompressorError("Huffman stream exhausted prematurely")
        return self._decode_stream(packed, int(total_bits), int(count), book)

    def _decode_stream(
        self, packed: np.ndarray, total_bits: int, count: int, book: _CodeBook
    ) -> np.ndarray:
        flat_idx = self._engine_impl.huffman_decode_indices(
            packed, total_bits, count, book.lengths, book.codes, self._window_bits
        )
        return book.symbols[flat_idx]


_DEFAULT_CODEC = HuffmanCodec()


def encode(symbols: np.ndarray) -> bytes:
    """Module-level convenience wrapper around :class:`HuffmanCodec.encode`."""

    return _DEFAULT_CODEC.encode(symbols)


def decode(blob: bytes) -> np.ndarray:
    """Module-level convenience wrapper around :class:`HuffmanCodec.decode`."""

    return _DEFAULT_CODEC.decode(blob)
