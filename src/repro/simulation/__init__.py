"""Deterministic discrete-event simulation kernel.

This package is the substrate everything else in the reproduction runs
on: a virtual clock, one-shot events, generator-based processes, and
the two synchronization resources (channels, semaphores) used by the
network transport and the resilience patterns.

See :class:`repro.simulation.Simulator` for the entry point.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "events": ["AllOf", "AnyOf", "Condition", "SimEvent", "Timeout"],
        "kernel": ["Simulator"],
        "process": ["Interrupt", "Process"],
        "resources": ["Channel", "ChannelClosed", "Semaphore"],
    },
)
