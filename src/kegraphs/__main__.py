"""python -m kegraphs: the kegraphs command line, with cli.main's exit code."""

import sys

from .cli import main

sys.exit(main())
