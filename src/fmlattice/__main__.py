"""Run the fmlat command line as ``python -m fmlattice``."""

from .cli import main

if __name__ == "__main__":
    main()
