import gc
import sys

from .cli import main


def run() -> int:
    """The command-line entry: :func:`~signedfj.cli.main` on a frozen import heap.

    The tens of thousands of objects that the import of numpy and scipy
    leaves behind live until the process ends, so they are moved out of the
    cyclic collector's reach before the command runs: no collection walks
    them during the command, and none at exit.  ``main`` called in process
    freezes nothing.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
