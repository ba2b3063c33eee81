"""Block-based large-object storage: the baseline class of Section 1."""

from repro.blockbased.manager import BlockBasedManager, DataPage

__all__ = ["BlockBasedManager", "DataPage"]
