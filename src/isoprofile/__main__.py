"""``python -m isoprofile``: the same command line as ``isoprofile``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
