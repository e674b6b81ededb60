import sys

from chroma.cli import main

sys.exit(main())
