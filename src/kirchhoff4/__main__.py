"""``python -m kirchhoff4``: the same entry point as the console script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
