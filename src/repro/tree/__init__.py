"""Positional count tree shared by the ESM and EOS managers."""

from repro.tree.backed import TreeBackedManager
from repro.tree.node import IndexNode, LeafExtent
from repro.tree.tree import Cursor, PositionalTree

__all__ = [
    "Cursor",
    "IndexNode",
    "LeafExtent",
    "PositionalTree",
    "TreeBackedManager",
]
