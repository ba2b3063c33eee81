"""Shadowing recovery policy (Section 3.3).

All three mechanisms assume shadowing: a page is never overwritten in
place; a write allocates and writes a new page, leaving the old one intact
until it is no longer needed for recovery.  To keep the pages of a segment
physically adjacent, the granularity of shadowing is the whole segment:

* updates that *overwrite useful bytes* of a leaf segment allocate a new
  segment, perform the update there, and flush it (copy, update, flush);
* updates that merely *append* bytes to a leaf segment are performed in
  place and the dirty pages are flushed at the end of the operation;
* index-page updates, except the root, are shadowed, with the new copy
  flushed at the end of the operation.

``ShadowPolicy.enabled = False`` turns shadowing off for the ablation
test, which reproduces the paper's example that, without shadowing,
updating one page of a 2-block segment costs the same as updating one page
of a 64-block segment — and with shadowing the latter is ~6-7x dearer.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ShadowPolicy:
    """Recovery policy switch shared by the tree and the managers."""

    enabled: bool = True

    def overwrite_needs_new_segment(self) -> bool:
        """Whether an update overwriting useful bytes must relocate the
        segment (the shadowing 'copy, update, flush' procedure)."""
        return self.enabled

    def index_update_needs_new_page(self, is_root: bool) -> bool:
        """Whether an index-page update must move to a freshly allocated
        page.  The root is always updated in place (its page id is the
        object's identity)."""
        return self.enabled and not is_root


#: The paper's configuration: shadowing on.
DEFAULT_SHADOW = ShadowPolicy(enabled=True)

#: Ablation configuration: shadowing off.
NO_SHADOW = ShadowPolicy(enabled=False)
