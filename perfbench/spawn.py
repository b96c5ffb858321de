"""Small helper process that starts and reaps every child of the benchmark.

Linux folds the high-water RSS of the memory a process had before ``exec``
into the ``ru_maxrss`` that ``wait4`` reports for it, and ``subprocess``
starts children with ``vfork``, which borrows the parent's memory. A child
started by the benchmark runner itself would therefore report at least the
runner's own peak RSS. This helper imports nothing heavy, so the children
it starts report their own peak.

Protocol: one JSON request per stdin line, ``{"argv", "log", "timeout"}``;
one JSON reply per stdout line, ``{"wall_s", "peak_rss_mib", "exit_code"}``.
The wall time runs from spawn to reap. On SIGTERM the running child is
killed and reaped before the helper exits; at end of input it just exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(argv, log, timeout):
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        # SIGALRM rather than a timer thread: with one thread, every signal
        # interrupts the blocking call the main thread is in
        signal.signal(signal.SIGALRM, lambda _signum, _frame: proc.kill())
        signal.alarm(max(1, int(timeout)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
    }


def main():
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
