"""``python -m repro`` — the CLI without the installed entry point.

For a checkout that is on ``PYTHONPATH`` but not pip-installed:
``python -m repro run spec.json`` is the same as ``repro run
spec.json``.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
