"""The repo's end-to-end benchmark (see bench/README.md, BENCHMARK.json).

One command, ``python3 -m bench.run``, runs four workloads against the
program under ``src/`` through its public API only, so every layer is
measured from outside.  Nothing here is imported by the program.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The program is not installed: put its source tree on the path here, so
# that the benchmark, its self-check and the spawn-started fleet workers
# (which inherit sys.path) all import the same checkout.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
