"""Run the micro-benchmarks against the holoq source tree of this checkout."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
