"""``python -m uvol``: the ``uvol`` command line (see :mod:`uvol.cli`)."""

from .cli import main

if __name__ == "__main__":
    main()
