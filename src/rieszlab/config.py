"""Worker-thread count of the search candidate scan, the one parallel loop.

Every other setting of a run is a flag of its subcommand (see ``cli``).
"""

from __future__ import annotations

import os


def thread_count(threads: int | None = None) -> int:
    """Worker count: the explicit arg (at least 1), else the cpu count capped at 8."""
    if threads is not None:
        return max(1, int(threads))
    return min(8, os.cpu_count() or 1)
