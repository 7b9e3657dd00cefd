"""Run the command-line interface: ``python -m stratdual <command>``.

From a checkout, without installing: ``PYTHONPATH=src python -m
stratdual --help``.
"""

import sys

from .cli import main

sys.exit(main())
