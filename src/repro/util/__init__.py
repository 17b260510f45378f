"""Shared utilities: clocks, id generation, path helpers, token buckets.

The re-exports resolve on first use (:mod:`repro.util.lazy`), so a
module that needs one helper — ``repro.util.clock``, say — does not
load the others.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Clock": ".clock",
    "ManualClock": ".clock",
    "WallClock": ".clock",
    "IdGenerator": ".idgen",
    "monotonic_id": ".idgen",
    "normalize": ".paths",
    "split_components": ".paths",
    "join": ".paths",
    "basename": ".paths",
    "dirname": ".paths",
    "TokenBucket": ".tokens",
})

__all__ = [
    "Clock",
    "ManualClock",
    "WallClock",
    "IdGenerator",
    "monotonic_id",
    "normalize",
    "split_components",
    "join",
    "basename",
    "dirname",
    "TokenBucket",
]
