"""Binary buddy disk space management (paper Section 3.1)."""

from repro.buddy.allocator import BuddyAllocator
from repro.buddy.area import DATA_AREA_BASE, META_AREA_BASE, DatabaseAreas
from repro.buddy.space import BuddySpace

__all__ = [
    "BuddyAllocator",
    "BuddySpace",
    "DatabaseAreas",
    "DATA_AREA_BASE",
    "META_AREA_BASE",
]
