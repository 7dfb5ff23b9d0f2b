"""Unit tests for the canonical Huffman codec.

The ``huff`` fixture builds the codec with the module-scoped ``engine``
fixture from conftest, so every round-trip here runs once per kernel engine
(the numba leg xfails when numba is not installed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import ErrorBoundMode, SZCompressor, huffman
from repro.compression.interface import CompressorError
from repro.compression.sz import compress_absolute_stream, decompress_absolute_stream


@pytest.fixture(scope="module")
def huff(engine) -> huffman.HuffmanCodec:
    """A Huffman codec bound to the current kernel engine."""

    return huffman.HuffmanCodec(engine=engine)


class TestRoundTrip:
    def test_small_alphabet(self, huff):
        symbols = np.array([0, 0, 0, 1, 1, 2] * 50, dtype=np.int64)
        blob = huff.encode(symbols)
        assert np.array_equal(huff.decode(blob), symbols)

    def test_single_symbol_stream(self, huff):
        symbols = np.full(1000, 7, dtype=np.int64)
        blob = huff.encode(symbols)
        assert np.array_equal(huff.decode(blob), symbols)
        # Highly redundant stream should be tiny.
        assert len(blob) < 200

    def test_two_symbols(self, huff):
        symbols = np.array([5, -5] * 100, dtype=np.int64)
        assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_negative_and_large_symbols(self, huff):
        symbols = np.array([-(2**40), 0, 2**40, 17, -3] * 20, dtype=np.int64)
        assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_empty_stream(self, huff):
        symbols = np.zeros(0, dtype=np.int64)
        assert huff.decode(huff.encode(symbols)).size == 0

    def test_single_element(self, huff):
        symbols = np.array([42], dtype=np.int64)
        assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_random_streams(self, huff, rng):
        for alphabet in (2, 16, 300):
            symbols = rng.integers(-alphabet, alphabet, size=5000).astype(np.int64)
            assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_skewed_distribution_compresses(self, huff, rng):
        # Geometric-ish distribution: most symbols are 0, a few are large.
        symbols = rng.geometric(0.7, size=20000).astype(np.int64)
        blob = huff.encode(symbols)
        assert len(blob) < symbols.nbytes / 4

    def test_rejects_2d_input(self, huff):
        with pytest.raises(CompressorError):
            huff.encode(np.zeros((3, 3), dtype=np.int64))

    def test_truncated_stream_raises(self, huff):
        symbols = np.arange(100, dtype=np.int64)
        blob = huff.encode(symbols)
        with pytest.raises(CompressorError):
            huff.decode(blob[: len(blob) // 2])

    def test_codec_class_and_module_functions_agree(self, huff):
        symbols = np.array([1, 2, 3, 1, 2, 1], dtype=np.int64)
        codec = huffman.HuffmanCodec()
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)
        assert np.array_equal(huffman.decode(codec.encode(symbols)), symbols)
        # Cross-engine: module functions (default engine) read the fixture
        # codec's blobs and vice versa.
        assert np.array_equal(huffman.decode(huff.encode(symbols)), symbols)
        assert np.array_equal(huff.decode(huffman.encode(symbols)), symbols)


class TestTruncatedBlobs:
    """Every cut of a blob decodes or raises CompressorError, nothing else."""

    @staticmethod
    def _assert_prefixes_typed(decode, blob, expected):
        for cut in range(len(blob)):
            try:
                decoded = decode(blob[:cut])
            except CompressorError:
                continue
            assert np.array_equal(decoded, expected), cut

    def test_every_huffman_prefix(self, huff, rng):
        symbols = rng.integers(-20, 20, size=300).astype(np.int64)
        blob = huff.encode(symbols)
        self._assert_prefixes_typed(huff.decode, blob, symbols)

    def test_overstated_book_entries(self, huff):
        blob = bytearray(huff.encode(np.array([1, 2, 3] * 40, dtype=np.int64)))
        for entries in (4, 1000, 2**32 - 1):
            blob[12:16] = entries.to_bytes(4, "little")
            with pytest.raises(CompressorError, match="code book"):
                huff.decode(bytes(blob))

    def test_overstated_symbol_count(self, huff):
        # More symbols than stream bits is impossible (codes are >= 1 bit).
        blob = bytearray(huff.encode(np.arange(64, dtype=np.int64)))
        blob[0:8] = (2**40).to_bytes(8, "little")
        with pytest.raises(CompressorError, match="exhausted"):
            huff.decode(bytes(blob))

    def test_every_sz_absolute_stream_prefix(self, engine, rng):
        data = np.cumsum(rng.normal(0.0, 1e-2, 400))
        blob = compress_absolute_stream(data, 1e-3, 16, "zlib", 6, engine=engine)
        expected = decompress_absolute_stream(blob, data.size, "zlib", engine=engine)
        self._assert_prefixes_typed(
            lambda cut: decompress_absolute_stream(cut, data.size, "zlib", engine=engine),
            blob,
            expected,
        )

    @pytest.mark.parametrize("mode", [ErrorBoundMode.ABSOLUTE, ErrorBoundMode.RELATIVE])
    def test_every_sz_blob_prefix(self, engine, mode, rng):
        compressor = SZCompressor(bound=1e-3, mode=mode, engine=engine)
        blob = compressor.compress(rng.normal(0.0, 1.0, 300))
        self._assert_prefixes_typed(
            compressor.decompress, blob, compressor.decompress(blob)
        )
