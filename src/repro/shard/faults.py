"""Per-shard fault-site installation for the sharded store.

Fault :class:`~repro.faults.plan.Schedule`\\ s count 1-based *logical
I/O calls of one disk*.  A sharded store has no store-wide counter —
each shard's disk counts its own calls — so a schedule like
``every(5)`` armed "against the store" is not a meaningful notion, and
before this module existed the only way to fault one shard was to
reach into ``store.shards[k].env`` and manage a raw
:class:`~repro.faults.injector.FaultInjector` by hand (leaving the
other shards' counters one misrouted install away from perturbation).

:class:`ShardedFaultInjector` makes per-shard targeting first class:
it installs an independent injector — independent counters, independent
RNG, independent retain-freed bookkeeping — on each selected shard's
disk, and uninstalls all of them on exit no matter how the block ends
(the same unconditional-teardown discipline as
:class:`~repro.faults.injector.FaultInjector`).  Chaos schedules
therefore hit exactly the shard they name, deterministically, while
sibling shards' logical I/O counters never advance a fault counter at
all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import InvalidArgumentError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    from repro.shard.router import ShardedStore


class ShardedFaultInjector:
    """Context manager arming independent per-shard fault injectors."""

    def __init__(
        self,
        store: "ShardedStore",
        plan: FaultPlan,
        *,
        shard: int | None = None,
        plans: "dict[int, FaultPlan] | None" = None,
    ) -> None:
        if shard is not None and plans is not None:
            raise InvalidArgumentError(
                "pass either shard= or plans=, not both"
            )
        if shard is not None:
            self._check_shard(store, shard)
            selected: dict[int, FaultPlan] = {shard: plan}
        elif plans is not None:
            for index in plans:
                self._check_shard(store, index)
            selected = dict(plans)
        else:
            selected = {index: plan for index in range(store.n_shards)}
        self.store = store
        self.plans = selected
        #: Shard index -> the live injector, while installed.
        self.injectors: dict[int, FaultInjector] = {}

    @staticmethod
    def _check_shard(store: "ShardedStore", shard: int) -> None:
        if not 0 <= shard < store.n_shards:
            raise InvalidArgumentError(
                f"shard {shard} out of range for {store.n_shards} shards"
            )

    def install(self) -> "ShardedFaultInjector":
        """Install one injector per selected shard (ascending order)."""
        try:
            for index in sorted(self.plans):
                injector = FaultInjector(
                    self.store.shards[index].env, self.plans[index]
                )
                injector.install()
                self.injectors[index] = injector
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Remove every installed injector; the disks behave normally."""
        for injector in self.injectors.values():
            injector.uninstall()
        self.injectors = {}

    def __enter__(self) -> "ShardedFaultInjector":
        return self.install()

    def __exit__(self, *_exc: object) -> None:
        # Unconditional teardown: a raising sweep iteration cannot leave
        # any shard's disk armed.
        self.uninstall()
