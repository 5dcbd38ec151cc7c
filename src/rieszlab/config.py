"""Worker-thread count that ``bench/run.py``'s ``environment()`` records,
its one reader: the library runs on one thread.

Every setting of a run is a flag of its subcommand (see ``cli``).
"""

from __future__ import annotations

import os


def thread_count(threads: int | None = None) -> int:
    """Worker count: the explicit arg, which must be at least 1, else the
    cpu count capped at 8."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return int(threads)
    return min(8, os.cpu_count() or 1)
