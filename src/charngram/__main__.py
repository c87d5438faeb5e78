"""`python -m charngram`: the command line, as the `charngram` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
