"""Run the micro-benchmarks against the holoq source tree of this checkout,
under the heap policy the command line sets (holoq.cli._keep_freed_memory),
so they time what `holoq verify` runs."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from holoq.cli import _keep_freed_memory  # noqa: E402  (needs the path above)

_keep_freed_memory()
