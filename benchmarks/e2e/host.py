"""Host facts for benchmark results: a fingerprint and process-tree memory."""

from __future__ import annotations

import os
import platform
import subprocess

BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fingerprint keys that identify the code, not the host; results that
#: differ only in these are still comparable.
CODE_KEYS = ("git_sha",)


def fingerprint(root) -> dict:
    """What a result depends on besides the code: cores, BLAS, runtime."""
    import numpy as np

    from repro.serve.procpool import resolve_start_method

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(np),
        "blas_thread_env": {name: os.environ.get(name)
                            for name in BLAS_THREAD_ENV},
        "mp_start_method": resolve_start_method(),
        "git_sha": _git_sha(root),
    }


def _blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _git_sha(root):
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _process_tree(root_pid: int) -> list:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; the fields
        # after its closing parenthesis are "state ppid ...".
        parents[int(entry)] = int(stat[stat.rindex(")") + 2:].split()[1])
    tree, frontier = [root_pid], [root_pid]
    while frontier:
        frontier = [pid for pid, ppid in parents.items() if ppid in frontier]
        tree.extend(frontier)
    return tree


def tree_memory_mb(root_pid=None) -> float:
    """Resident memory of a process tree in MiB, shared memory included.

    Sums ``Pss`` over the process and all its descendants, leaving out
    mappings of ``/dev/shm`` files, then adds the size of each distinct
    mapped ``/dev/shm`` file (by device and inode), deleted or not.  A
    scan only touches the length-sorted prefix of a shared replica, so
    ``Pss`` alone would miss most of a replica that a worker keeps mapped
    after it was unlinked.
    """
    pss_kb = 0
    shm_bytes = {}
    for pid in _process_tree(os.getpid() if root_pid is None else root_pid):
        try:
            with open(f"/proc/{pid}/smaps") as handle:
                lines = handle.read().splitlines()
        except OSError:
            continue  # the process ended while the tree was walked
        shm = False
        for line in lines:
            fields = line.split(None, 5)
            if not fields:
                continue
            if not fields[0].endswith(":"):
                # A mapping header: "start-end perms offset dev inode path".
                shm = len(fields) == 6 and fields[5].startswith("/dev/shm/")
                if shm:
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    key = (fields[3], fields[4])
                    extent = int(fields[2], 16) + end - start
                    shm_bytes[key] = max(shm_bytes.get(key, 0), extent)
            elif fields[0] == "Pss:" and not shm:
                pss_kb += int(fields[1])
    return pss_kb / 1024 + sum(shm_bytes.values()) / 2 ** 20
