"""Process accounting from /proc: CPU time, peak RSS, child processes, steal."""

import os
import time


def _stat_fields(pid):
    """Fields 3.. of /proc/<pid>/stat (the command name may contain spaces)."""
    with open(f"/proc/{pid}/stat") as f:
        text = f.read()
    return text[text.rindex(")") + 2:].split()


def command(pid):
    """The process's command name, or None once it has exited (or is a
    zombie waiting to be reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    if text[text.rindex(")") + 2] == "Z":
        return None
    return text[text.index("(") + 1:text.rindex(")")]


def cpu_seconds(pid):
    """CPU time of every thread of one process, exited threads included, but
    not its children: the process's CPU-time clock, read to the nanosecond
    (clock id MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of the Linux ABI,
    what clock_getcpuclockid(3) returns). /proc/<pid>/stat has the same
    total in 10 ms ticks. Raises OSError once the process is gone."""
    return time.clock_gettime_ns(((~pid) << 3) | 2) * 1e-9


def children(pid):
    """Pids whose parent is `pid`, ascending."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(entry)[1]) == pid:  # Field 4: ppid.
                found.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # Exited while scanning.
    return sorted(found)


def tree_cpu(root):
    """{pid: CPU seconds} for `root` and its direct children.

    The router's replicas are its direct children; each is read separately
    because a parent's CPU time excludes the children it has not reaped.
    """
    usage = {}
    for pid in [root] + children(root):
        try:
            usage[pid] = cpu_seconds(pid)
        except OSError:
            continue
    return usage


def cpu_delta(before, after):
    """Per-pid CPU spent between two tree_cpu() snapshots.

    A pid missing from `before` (spawned in between) counts from zero; one
    missing from `after` (exited) is dropped, so a respawn never counts as
    negative time.
    """
    return {pid: after[pid] - before.get(pid, 0.0) for pid in after}


def peak_rss_mib(pid):
    """VmHWM (peak resident set) of one process, MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_times():
    """The aggregate 'cpu' row of /proc/stat: (busy+idle total, steal) ticks."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def steal_share(before, after):
    """Share of all CPU ticks stolen by the host between two cpu_times()."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0
