import errno
import os
import sys


def main() -> None:
    """``cli.main`` as a script, for ``python -m kahlercheck`` and the
    console script: running out of memory while the program loads exits
    2, and a failed write to stdout, or stdout closed at start (when no
    command runs), exits 1; each is one line on stderr (none for a closed
    pipe), never a traceback."""
    try:
        from . import cli
    except MemoryError:   # while loading the program: one line, not a traceback
        print("kahlercheck: cannot start: MemoryError", file=sys.stderr)
        sys.exit(2)
    if sys.stdout is None:
        print(f"kahlercheck: cannot write output: {os.strerror(errno.EBADF)}",
              file=sys.stderr)
        sys.exit(1)
    try:
        code = cli.main()
        sys.stdout.flush()
    except OSError as exc:   # what stdout still buffers goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
        if not isinstance(exc, BrokenPipeError):
            print(f"kahlercheck: cannot write output: {exc.strerror or exc}", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
