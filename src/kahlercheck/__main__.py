import sys


def main() -> None:
    """``cli.main_entry`` for ``python -m kahlercheck`` and the console script."""
    try:
        from .cli import main_entry
    except MemoryError:   # while loading the program: one line, not a traceback
        print("kahlercheck: cannot start: MemoryError", file=sys.stderr)
        sys.exit(2)
    main_entry()


if __name__ == "__main__":
    main()
