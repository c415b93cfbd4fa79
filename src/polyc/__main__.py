"""`python -m polyc`: the same command line as the `polyc` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
