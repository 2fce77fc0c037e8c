"""`python -m oddball`: the command-line interface of `oddball.cli`.

A process pool started by spawn does not re-run a main module named
`*.__main__` in its workers, so under `python -m oddball` a worker loads
only what its per-point function imports, not the CLI.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
