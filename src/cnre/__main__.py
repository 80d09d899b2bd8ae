"""``python -m cnre <command> ...``: the command-line surface of ``cnre.cli``."""

import sys

from .cli import main

sys.exit(main())
