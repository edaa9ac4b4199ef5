"""Load generation: closed-loop, open-loop (Poisson), and an ab-like tool."""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bench_tool": ["ApacheBench"],
        "workload": ["ClosedLoopLoad", "LoadResult", "OpenLoopLoad", "Sample"],
    },
)
