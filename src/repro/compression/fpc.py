"""Frequent Pattern Compression (FPC) — optional comparator compressor.

The paper's policies are "orthogonal to the compression mechanism"
(Sec. II-B); FPC is provided so downstream users can study how the
insertion policies behave under a different compressor.  This is a
word-level FPC after Alameldeen & Wood: each 32-bit word is matched
against a small pattern table (zero run, sign-extended 4/8/16-bit,
halfword repeated, uncompressed) with a 3-bit prefix per word.

The reported size is rounded up to the nearest modified-BDI encoding
size so FPC output is directly usable by the fit-LRU replacement and
CP_th machinery, which reason in terms of the Table I ladder.
"""

from __future__ import annotations

import struct

from .base import CompressionResult, Compressor
from .encodings import BLOCK_SIZE, ENCODING_SIZES, UNCOMPRESSED, best_fit_encoding

_WORDS_PER_BLOCK = BLOCK_SIZE // 4
_PREFIX_BITS = 3


def _sign_extends(word: int, bits: int) -> bool:
    """True if the 32-bit word is a sign-extended ``bits``-bit value."""
    half = 1 << (bits - 1)
    signed = word - (1 << 32) if word >= (1 << 31) else word
    return -half <= signed < half


def _word_cost_bits(word: int) -> int:
    """Payload bits for one word under the best matching FPC pattern."""
    if word == 0:
        return 0
    if _sign_extends(word, 4):
        return 4
    if _sign_extends(word, 8):
        return 8
    if _sign_extends(word, 16):
        return 16
    high, low = word >> 16, word & 0xFFFF
    if high == low:
        return 16
    return 32


class FPCCompressor(Compressor):
    """Frequent-pattern compression, quantised to the Table I ladder."""

    name = "fpc"

    def compress(self, block: bytes) -> CompressionResult:
        self.check_block(block)
        words = struct.unpack("<16I", block)
        bits = sum(_PREFIX_BITS + _word_cost_bits(w) for w in words)
        raw_size = (bits + 7) // 8
        if raw_size >= BLOCK_SIZE:
            return CompressionResult(UNCOMPRESSED, block)
        encoding = None
        for size in ENCODING_SIZES:
            if size >= raw_size:
                encoding = best_fit_encoding(size)
                if encoding is not None and encoding.size >= raw_size:
                    break
        if encoding is None or encoding.size >= BLOCK_SIZE:
            return CompressionResult(UNCOMPRESSED, block)
        # Keep the raw block as payload: FPC quantised sizes drive the
        # policies; bit-exact FPC packing is not needed by any consumer.
        return CompressionResult(encoding, block)

    def decompress(self, result: CompressionResult) -> bytes:
        # compress() always keeps the raw block as the payload.
        return result.payload
