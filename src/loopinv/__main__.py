"""Run the command line as a module: ``python -m loopinv dims --d 2``."""

import sys

from .cli import main

sys.exit(main())
