"""Recovery: shadowing policy, crash rebuild, and the crash sweep.

Only the shadow policy is exported here: :mod:`repro.core.env` pulls it
in at interpreter start, and the other halves — the image readers of
:mod:`repro.recovery.crash`, journal resolution in
:mod:`repro.recovery.atomic` and the one crash-sweep harness,
:mod:`repro.recovery.sweep` — import the storage managers (which import
the env), so they are imported by module path.
"""

from repro.recovery.shadow import DEFAULT_SHADOW, NO_SHADOW, ShadowPolicy

__all__ = ["DEFAULT_SHADOW", "NO_SHADOW", "ShadowPolicy"]
