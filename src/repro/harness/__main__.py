"""``python -m repro.harness`` entry point."""

import sys

from repro.harness.cli import main

if __name__ == "__main__":
    sys.exit(main())
