"""``python -m setnn``: the same command line as the ``setnn`` script."""

from setnn.cli import main

if __name__ == "__main__":
    main()
