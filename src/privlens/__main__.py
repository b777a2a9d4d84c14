"""Run the command line with ``python -m privlens``."""

from .cli import main

if __name__ == "__main__":
    main()
