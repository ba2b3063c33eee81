"""Recovery: shadowing policy, crash rebuild, and the crash sweep.

Only the shadow policy is imported eagerly: :mod:`repro.core.env` pulls
it in at interpreter start, and the crash/sweep halves import the
storage managers (which import the env) — a cycle if loaded here.  The
remaining names resolve lazily on first attribute access.
"""

from repro.recovery.shadow import DEFAULT_SHADOW, NO_SHADOW, ShadowPolicy

__all__ = [
    "DEFAULT_SHADOW",
    "MUTATING_OPS",
    "NO_SHADOW",
    "SWEEP_SCHEMES",
    "ShadowPolicy",
    "SweepReport",
    "rebuild_content",
    "run_sweep",
    "sweep_operation",
]

_CRASH = {"rebuild_content"}
_SWEEP = {
    "MUTATING_OPS",
    "SWEEP_SCHEMES",
    "SweepReport",
    "run_sweep",
    "sweep_operation",
}


def __getattr__(name: str):
    if name in _CRASH:
        from repro.recovery import crash

        return getattr(crash, name)
    if name in _SWEEP:
        from repro.recovery import sweep

        return getattr(sweep, name)
    # The module __getattr__ protocol requires AttributeError here.
    raise AttributeError(  # repro-lint: disable=ERR001
        f"module {__name__!r} has no attribute {name!r}"
    )
