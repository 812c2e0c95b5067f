"""``PYTHONPATH=src python -m benchmarks.spine`` — see ``cli.py``."""

import sys

from .cli import main

sys.exit(main())
