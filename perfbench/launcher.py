"""Spawns, times and reaps the benchmark's child processes.

Linux folds the peak RSS of the process a child was spawned from into the
child's own ``ru_maxrss`` (the child shares that memory until it executes
its program). The client's peak grows with the results it holds, so it asks
this process, started with ``python3 -S`` and holding one child's output at
a time, to spawn for it: a bare interpreter's peak is larger than this
process's, so ``ru_maxrss`` from ``wait4`` is the child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stdin": str | null, "ready": bool}``,
and one JSON reply per line on stdout with the child's stdout, stderr, exit
code, wall time, time to its ``ready`` line and peak RSS in MB.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def run(req: dict) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(
        req["argv"], cwd=req["cwd"], env=req["env"], text=True,
        stdin=subprocess.PIPE if req["stdin"] is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(TIMEOUT_S, proc.kill)
    killer.start()
    try:
        if req["stdin"] is not None:
            try:
                proc.stdin.write(req["stdin"])
                proc.stdin.close()
            except BrokenPipeError:
                pass
        ready_s = None
        head = ""
        if req["ready"]:
            head = proc.stdout.readline()
            if head == "ready\n":
                ready_s, head = time.perf_counter() - start, ""
        out = head + proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"out": out, "err": "".join(err), "code": proc.returncode, "wall_s": wall,
            "ready_s": ready_s, "rss_mb": usage.ru_maxrss / 1024}


if __name__ == "__main__":
    for line in sys.stdin:
        reply = run(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        del reply
