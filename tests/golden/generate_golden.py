"""Regenerate the golden codec blobs under ``tests/golden/``.

The blobs checked in next to this script were produced by the *seed* codecs
(the implementations as of PR 1, commit fc291b9) and pin the wire format:
every later decoder must decode them bit-identically, and every later encoder
must keep producing streams the seed decoder would accept.  Run this script
only when the wire format is *intentionally* revised (which also requires a
blob-tag bump); never regenerate to paper over a decode mismatch.  The
``sz_rel_qft16_*`` cases, blocks of a mid-circuit QFT-16 state, were added
later and written by the heap-based Huffman tree build, before the two-queue
build replaced it; they pin the encoder on the data the simulator produces.
Re-running the script rewrites every case except the seed-layout ones
(``SEED_LAYOUT_CASES``) and must leave every checked-in file unchanged.

Usage::

    PYTHONPATH=src python tests/golden/generate_golden.py

For each case ``NAME`` it writes ``NAME.blob`` (the encoded bytes) and
``NAME.expected.npy`` (the array the encoding-time decoder produced for that
blob, i.e. the bit-exact decode target).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.compression import (
    ErrorBoundMode,
    LosslessCompressor,
    SZCompressor,
    XorBitplaneCompressor,
    ZFPLikeCompressor,
    huffman,
)
from repro.circuits import QuantumCircuit, prepare_basis_state, qft_circuit
from repro.statevector import simulate_statevector

GOLDEN_DIR = Path(__file__).parent

#: Cases whose checked-in blob is the seed's layout, which the current
#: encoder intentionally no longer writes: the blob is kept as a decode-only
#: fixture, so regenerating never overwrites it.
SEED_LAYOUT_CASES = frozenset({"sz_rel_empty_seed_layout"})


def _skewed_symbols(rng: np.random.Generator, size: int) -> np.ndarray:
    """Geometric-ish SZ-delta-like symbol stream (small alphabet, skewed)."""

    return (rng.geometric(0.35, size=size) - rng.geometric(0.35, size=size)).astype(
        np.int64
    )


def _long_code_symbols() -> np.ndarray:
    """Stream whose Huffman tree is a degenerate chain: code lengths 1..15.

    Doubling frequencies force a maximally unbalanced tree, so the rarest
    symbols get codes longer than a 12-bit lookup window — this blob
    exercises a table-driven decoder's long-code slow path.
    """

    counts = 2 ** np.arange(16, dtype=np.int64)
    symbols = np.repeat(np.arange(16, dtype=np.int64) - 8, counts)
    return np.random.default_rng(11).permutation(symbols)


def _escape_heavy_stream(rng: np.random.Generator, size: int) -> np.ndarray:
    """Floats whose SZ grid deltas overflow the bin range at many positions."""

    smooth = np.cumsum(rng.normal(0.0, 1e-3, size=size))
    jumps = np.zeros(size)
    jump_positions = rng.choice(size, size=size // 16, replace=False)
    jumps[jump_positions] = rng.normal(0.0, 1e6, size=jump_positions.size)
    return smooth + np.cumsum(jumps)


def _qft16_block(gates: int, amplitudes: int = 4096) -> np.ndarray:
    """First block of a dense QFT-16 state after *gates* QFT gates.

    The input is a seeded odd basis state with half its bits set, as in the
    end-to-end benchmark's QFT workloads, so the block's SZ symbol stream is
    what the simulator itself feeds the Huffman stage.  Returned as the
    interleaved float64 stream the simulator compresses.
    """

    qubits = 16
    rng = np.random.default_rng(16)
    ones = rng.choice(np.arange(1, qubits), size=qubits // 2 - 1, replace=False)
    circuit = QuantumCircuit(qubits)
    circuit.compose(prepare_basis_state(qubits, 1 + sum(1 << int(bit) for bit in ones)))
    for gate in list(qft_circuit(qubits))[:gates]:
        circuit.append(gate)
    return simulate_statevector(circuit)[:amplitudes].view(np.float64).copy()


def build_cases() -> dict[str, tuple[bytes, np.ndarray]]:
    """Encode every golden case with the *current* codecs.

    Returns ``name -> (blob, expected array)``.  The compatibility tests call
    this to assert the current encoders still produce the checked-in bytes.
    """

    rng = np.random.default_rng(20260728)
    cases: dict[str, tuple[bytes, np.ndarray]] = {}

    # -- raw Huffman streams ------------------------------------------------
    skewed = _skewed_symbols(rng, 4096)
    cases["huffman_skewed"] = (huffman.encode(skewed), skewed)

    long_codes = _long_code_symbols()
    # Stored as int16 to keep the checked-in file small; the symbol values
    # fit and np.array_equal compares across integer dtypes.
    cases["huffman_long_codes"] = (huffman.encode(long_codes), long_codes.astype(np.int16))

    single = np.full(257, -3, dtype=np.int64)
    cases["huffman_single_symbol"] = (huffman.encode(single), single)

    def lossy_case(compressor, data) -> tuple[bytes, np.ndarray]:
        blob = compressor.compress(data)
        return blob, compressor.decompress(blob)

    # -- SZ (Solution A), both modes, plus escape-heavy and empty streams ---
    spiky = np.exp(rng.normal(-9.0, 2.0, size=4096)) * rng.choice([-1.0, 1.0], 4096)
    sz_rel = SZCompressor(bound=1e-3)
    cases["sz_rel_spiky"] = lossy_case(sz_rel, spiky)

    smooth = np.sin(np.linspace(0.0, 20.0, 4096))
    cases["sz_abs_smooth"] = lossy_case(
        SZCompressor(bound=1e-4, mode=ErrorBoundMode.ABSOLUTE), smooth
    )

    escapey = _escape_heavy_stream(rng, 4096)
    cases["sz_abs_escape_heavy"] = lossy_case(
        SZCompressor(bound=1e-5, mode=ErrorBoundMode.ABSOLUTE, max_bins=16), escapey
    )

    empty = np.zeros(0, dtype=np.float64)
    cases["sz_rel_empty_seed_layout"] = (sz_rel.compress(empty), empty)

    # -- ZFP-like, both modes ----------------------------------------------
    cases["zfp_abs_smooth"] = lossy_case(
        ZFPLikeCompressor(bound=1e-3, mode=ErrorBoundMode.ABSOLUTE), smooth
    )
    cases["zfp_rel_spiky"] = lossy_case(
        ZFPLikeCompressor(bound=1e-2, mode=ErrorBoundMode.RELATIVE), spiky
    )

    # -- Solution C (bitplane/XOR machinery) and the lossless stage ---------
    cases["xor_bitplane_spiky"] = lossy_case(XorBitplaneCompressor(bound=1e-3), spiky)

    lossless = LosslessCompressor()
    cases["lossless_spiky"] = (lossless.compress(spiky), spiky)

    # -- SZ on simulator data: mid-circuit QFT-16 blocks ----------------------
    # 134 gates in, the block's delta stream spans thousands of distinct
    # symbols at ~9 bits/symbol (the widest books the benchmark builds);
    # 122 gates in, it is ~1 bit/symbol (the median simulator block).
    cases["sz_rel_qft16_wide"] = lossy_case(sz_rel, _qft16_block(134))
    cases["sz_rel_qft16_low_entropy"] = lossy_case(sz_rel, _qft16_block(122))
    return cases


def main() -> None:
    for name, (blob, expected) in build_cases().items():
        if name in SEED_LAYOUT_CASES:
            continue
        (GOLDEN_DIR / f"{name}.blob").write_bytes(blob)
        np.save(GOLDEN_DIR / f"{name}.expected.npy", np.asarray(expected))
        print(f"{name}: {len(blob)} blob bytes, {np.asarray(expected).size} values")


if __name__ == "__main__":
    main()
