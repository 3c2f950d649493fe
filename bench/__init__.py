"""End-to-end benchmark: five workloads from raw bytes to attack report.

Run from the repository root (``python3 -m bench --help``); the package
adds ``src/`` to ``sys.path`` itself, so no ``PYTHONPATH`` is needed.
``bench/README.md`` documents workloads, metrics and the traced pass.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
