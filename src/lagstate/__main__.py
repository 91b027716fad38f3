"""Run the ``lagstate`` command line: ``python -m lagstate report ...``."""

import sys

from .cli import main

sys.exit(main())
