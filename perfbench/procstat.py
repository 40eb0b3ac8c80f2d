"""CPU and memory of a process tree, read from ``/proc``."""

from __future__ import annotations

import os
from typing import Dict, List

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        raw = handle.read()
    # The command name may hold spaces; every field after it is numeric.
    return raw[raw.rindex(")") + 2:].split()


def tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue
    found = [root]
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent:
                found.append(pid)
                frontier.append(pid)
    return found


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds summed over ``pids``."""
    total = 0.0
    for pid in pids:
        fields = _stat_fields(pid)
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def rss_bytes(pids: List[int]) -> int:
    """Resident set size summed over ``pids``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
            total += int(handle.read().split()[1]) * _PAGE
    return total
