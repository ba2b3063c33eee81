"""Buffer management (paper Section 3.2)."""

from repro.buffer.pool import BufferPool, PoolStats

__all__ = ["BufferPool", "PoolStats"]
