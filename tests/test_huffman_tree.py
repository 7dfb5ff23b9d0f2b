"""Differential tests: the two-queue Huffman tree build against the heap build.

The encoder's code lengths come from a linear two-queue merge.  The wire
format, though, was pinned by the classic heap construction, whose
``(count, tiebreak)`` keys decide every tie; the two must build the same
tree, or blobs change.  ``_heap_build_lengths`` below is the heap builder
the codec used before, kept verbatim as the oracle, and ``_oracle_encode``
the encoder around it (``np.unique`` alphabet, ``argsort`` + ``searchsorted``
symbol lookup).  Histograms are seeded and tie-heavy on purpose: ties are
where a merge order could diverge.

The decode half runs streams from ~1 to ~16 bits/symbol through every
engine, which makes the numpy engine pick each wavefront chunk width its
bits-per-symbol rule allows.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np
import pytest

from repro.compression import huffman
from repro.compression.bitpack import pack_bitfields
from repro.compression.engines import numpy_engine


def _heap_build_lengths(symbols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The heap-based Huffman code-length builder, as the seed codec had it."""

    n = symbols.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    # Classic heap-based Huffman; node = (count, tie_breaker, index or tree)
    heap: list[tuple[int, int, object]] = []
    for i in range(n):
        heap.append((int(counts[i]), i, i))
    heapq.heapify(heap)
    tie = n
    parents: dict[int, list[int]] = {}
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        parents[tie] = [n1, n2]  # type: ignore[list-item]
        heapq.heappush(heap, (c1 + c2, tie, tie))
        tie += 1
    # Depth-first traversal to assign lengths.
    lengths = np.zeros(n, dtype=np.uint8)
    _, _, root = heap[0]
    stack: list[tuple[object, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int) and node < n:
            lengths[node] = max(depth, 1)
        else:
            for child in parents[node]:  # type: ignore[index]
                stack.append((child, depth + 1))
    return lengths


def _oracle_encode(symbols: np.ndarray) -> bytes:
    """The seed encoder: heap tree, sorted-alphabet symbol lookup."""

    unique, counts = np.unique(symbols, return_counts=True)
    book = huffman._canonicalize(unique, _heap_build_lengths(unique, counts))
    sym_order = np.argsort(book.symbols)
    positions = sym_order[np.searchsorted(book.symbols[sym_order], symbols)]
    packed, total_bits = pack_bitfields(
        book.codes[positions], book.lengths[positions].astype(np.int64)
    )
    book_blob = (
        struct.pack("<I", book.symbols.size)
        + book.symbols.astype("<i8").tobytes()
        + book.lengths.astype("<u1").tobytes()
    )
    return (
        struct.pack("<Q", symbols.size)
        + struct.pack("<I", len(book_blob))
        + book_blob
        + struct.pack("<Q", total_bits)
        + packed.tobytes()
    )


def _histograms() -> dict[str, np.ndarray]:
    """Seeded histograms, tie-heavy ones first, alphabets up to 10^4."""

    rng = np.random.default_rng(20261018)
    cases = {
        "n1": np.array([5]),
        "n2_equal": np.array([3, 3]),
        "n2_skewed": np.array([1, 1000]),
        "n3_equal": np.array([7, 7, 7]),
    }
    for n in (5, 64, 100, 1000):
        cases[f"all_equal_{n}"] = np.full(n, 4)
        cases[f"all_ones_{n}"] = np.ones(n, dtype=np.int64)
    for n in (16, 200, 3000):
        cases[f"powers_of_two_{n}"] = 2 ** rng.integers(0, 12, n)
        cases[f"mostly_ones_{n}"] = np.where(
            rng.random(n) < 0.8, 1, rng.integers(2, 500, n)
        )
        cases[f"few_values_{n}"] = rng.choice([1, 2, 3, 6], n)
    cases["doubling_chain_30"] = 2 ** np.arange(30)
    cases["fibonacci_25"] = np.array(
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
         2584, 4181, 6765, 10946, 17711, 28657, 46368, 75025]
    )
    for n in (500, 10_000):
        cases[f"geometric_{n}"] = rng.geometric(0.002, n)
        cases[f"uniform_{n}"] = rng.integers(1, 60, n)
    return {name: counts.astype(np.int64) for name, counts in cases.items()}


HISTOGRAMS = _histograms()


def _stream(counts: np.ndarray, offset: int = 0) -> np.ndarray:
    """A shuffled stream in which symbol ``offset + i`` occurs ``counts[i]`` times."""

    symbols = np.repeat(np.arange(counts.size, dtype=np.int64) + offset, counts)
    return np.random.default_rng(counts.size).permutation(symbols)


class TestTreeBuildMatchesHeap:
    @pytest.mark.parametrize("case", sorted(HISTOGRAMS))
    def test_code_lengths_equal(self, case):
        counts = HISTOGRAMS[case]
        expected = _heap_build_lengths(np.arange(counts.size), counts)
        got = huffman._build_lengths(counts)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected), case

    def test_random_small_histograms(self):
        # Many small alphabets with counts from a tiny range: nearly every
        # merge step faces a tie, between leaves, internal nodes or both.
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(1, 40))
            counts = rng.integers(1, 4, n).astype(np.int64)
            expected = _heap_build_lengths(np.arange(n), counts)
            assert np.array_equal(huffman._build_lengths(counts), expected), counts

    @pytest.mark.parametrize(
        "case", [c for c in sorted(HISTOGRAMS) if HISTOGRAMS[c].sum() <= 3_000_000]
    )
    def test_encoded_bytes_equal(self, case):
        symbols = _stream(HISTOGRAMS[case])
        assert huffman.encode(symbols) == _oracle_encode(symbols), case


class TestSymbolLookupPaths:
    """The dense-table and sorted-alphabet lookups emit the oracle's bytes."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_paths_meet_at_the_span_bound(self, extra):
        # Span exactly 2x the stream length is the widest the dense table
        # serves (extra=0); one more takes the sorted lookup (extra=1).
        size = 10
        bound = huffman._DENSE_SPAN_FACTOR * size
        symbols = np.array([0] * (size - 1) + [bound - 1 + extra], dtype=np.int64)
        assert int(symbols.max() - symbols.min()) + 1 == bound + extra
        blob = huffman.encode(symbols)
        assert blob == _oracle_encode(symbols)
        assert np.array_equal(huffman.decode(blob), symbols)

    @pytest.mark.parametrize("offset", [-(2**62), -(2**40), 0, 2**40, 2**62 - 50_000])
    def test_both_paths_agree_with_oracle_at_extreme_values(self, offset):
        rng = np.random.default_rng(3)
        dense = _stream(rng.integers(1, 30, 200).astype(np.int64), offset)
        sparse = np.concatenate([dense, [offset + 10**12 if offset <= 0 else offset - 10**12]])
        for symbols in (dense, sparse):
            blob = huffman.encode(symbols)
            assert blob == _oracle_encode(symbols)
            assert np.array_equal(huffman.decode(blob), symbols)

    def test_full_int64_range(self):
        info = np.iinfo(np.int64)
        symbols = np.array([info.min, info.max, 0, info.min, -1], dtype=np.int64)
        assert huffman.encode(symbols) == _oracle_encode(symbols)
        assert np.array_equal(huffman.decode(huffman.encode(symbols)), symbols)


def _stream_at_bits(rng: np.random.Generator, bits: float, size: int) -> np.ndarray:
    """A stream whose Huffman code costs roughly *bits* per symbol."""

    if bits <= 1.0:
        # Entropy below one bit still codes at one bit per symbol.
        return (rng.random(size) < 0.1).astype(np.int64)
    return rng.integers(0, int(round(2**bits)), size).astype(np.int64)


class TestDecodeAcrossBitsPerSymbol:
    BITS = (0.5, 1.0, 3.0, 6.0, 12.0, 16.0)

    def test_every_chunk_width_is_exercised(self):
        rng = np.random.default_rng(11)
        widths = set()
        for bits in self.BITS:
            symbols = _stream_at_bits(rng, bits, 1 << 16)
            blob = huffman.encode(symbols)
            (book_len,) = struct.unpack_from("<I", blob, 8)
            (total_bits,) = struct.unpack_from("<Q", blob, 12 + book_len)
            widths.add(numpy_engine._chunk_log2(symbols.size, total_bits))
        chunk_log2s = range(numpy_engine._MIN_CHUNK_LOG2, numpy_engine._MAX_CHUNK_LOG2 + 1)
        assert widths == set(chunk_log2s)

    @pytest.mark.parametrize("bits", BITS)
    @pytest.mark.parametrize("size", [1, 2, 5, 33, 4097, 1 << 16])
    def test_round_trip_on_every_engine(self, bits, size, engine):
        rng = np.random.default_rng(int(bits * 100) + size)
        symbols = _stream_at_bits(rng, bits, size)
        blob = huffman.encode(symbols)
        codec = huffman.HuffmanCodec(engine=engine)
        assert codec.encode(symbols) == blob
        assert np.array_equal(codec.decode(blob), symbols)
