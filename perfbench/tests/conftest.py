import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

from workloads import pin_threads, use_source_tree  # noqa: E402

pin_threads(os.environ)
use_source_tree()
