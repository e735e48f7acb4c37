"""Test bootstrap: make ``src/`` importable without installation.

The suite also works against an installed package (``pip install -e .``);
this only matters for the bare ``PYTHONPATH``-less invocation.

It also registers the ``hypothesis`` profiles: the default one is
derandomised and small enough for the tier-1 run; ``ci`` is the longer
seeded leg (``pytest --hypothesis-profile=ci --hypothesis-seed=<n>``).
"""

import sys
from pathlib import Path

try:
    from hypothesis import settings
except ImportError:  # the dev extra is not installed: only test_lexer.py needs it
    settings = None

if settings is not None:
    settings.register_profile("default", derandomize=True, max_examples=300, deadline=None)
    settings.register_profile("ci", derandomize=False, max_examples=5000, deadline=None)
    settings.load_profile("default")

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
