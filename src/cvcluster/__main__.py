"""``python -m cvcluster``: the ``cvcluster`` command line."""

import sys

from .cli import main

sys.exit(main())
