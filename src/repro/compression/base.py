"""Compressor interface shared by the BDI and FPC implementations.

The insertion policies only ever consume a :class:`CompressionResult`
(encoding + size), so any compressor that satisfies the properties of
Sec. II-B (low decompression latency, wide coverage) can be plugged in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .encodings import BLOCK_SIZE, Encoding, ecb_size


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one 64-byte block."""

    encoding: Encoding
    payload: bytes

    @property
    def size(self) -> int:
        """Compressed size in bytes (what the CP_th threshold sees)."""
        return self.encoding.size

    @property
    def ecb_size(self) -> int:
        """Bytes actually written to an NVM frame (payload + CE + SECDED)."""
        return ecb_size(self.encoding.size)

    @property
    def is_compressed(self) -> bool:
        return self.encoding.is_compressed


class Compressor(abc.ABC):
    """A block compressor: 64 bytes in, a CompressionResult out."""

    name: str = "abstract"

    @abc.abstractmethod
    def compress(self, block: bytes) -> CompressionResult:
        """Compress one BLOCK_SIZE-byte block."""

    @abc.abstractmethod
    def decompress(self, result: CompressionResult) -> bytes:
        """Invert :meth:`compress`, returning the original 64 bytes."""

    @staticmethod
    def check_block(block: bytes) -> None:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"expected {BLOCK_SIZE}-byte block, got {len(block)}")
