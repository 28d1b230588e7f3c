"""Run one fracdiff command in this process and check its exit code and its
peak resident set size against a bound:

    PYTHONPATH=src python scripts/peak_rss.py BOUND_MB solve --d 2 --n 1024 ...

Prints the exit code and the peak RSS (``getrusage``, which includes the
interpreter and numpy), and exits 1 unless the command exited 0 with a peak
of at most ``BOUND_MB`` megabytes.
"""

import resource
import sys

from fracdiff.cli import main


def run(argv: list[str]) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    code = main(command)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak_mb:.0f} MB (bound {bound_mb:g} MB)")
    return int(code != 0 or peak_mb > bound_mb)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
