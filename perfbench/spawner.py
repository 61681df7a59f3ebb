"""Launches benchmark stage processes and times the CPU they run on.

Peak RSS: on Linux a process keeps, across exec, the peak RSS of the memory
image it was forked (or vforked) from, and wait4 reports the larger of that
and its own peak. A stage started straight from the benchmark, which holds
corpora and crisislang in memory, would report the benchmark's peak as its
own. This helper is a bare interpreter that only launches, so the peak it
hands down is far below any stage's own.

CPU speed: on the shared 2-core VM the figures come from, CPU speed drifts
by up to 1.8x over tens of seconds. The helper pins itself, and so every
stage it starts, to one CPU, and after each stage times a fixed calibration
task on that CPU. A stage's wall time scaled by the calibration times just
before and after it is its time at the reference speed.

Protocol: one JSON request per stdin line,
{"args", "cwd", "env", "log", "timeout"}; one JSON reply per stdout line,
{"wall_s", "cal_s", "maxrss_kb", "exit_code"}, where cal_s is the mean of
the calibration times before and after the stage. Exits when stdin closes.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

# The calibration task: parse, split and count a fixed synthetic corpus,
# the same kind of interpreter work the stages do. About 0.1 s.
_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(3, 9)))
          for _ in range(5000)]
_LINES = [
    json.dumps({"id": str(i), "text": " ".join(_rng.choice(_WORDS) for _ in range(14))})
    for i in range(9000)
]


def calibrate() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i, line in enumerate(_LINES):
        if i % 500 == 0:
            counts = {}  # bounded, so the helper's own peak RSS stays small
        tokens = json.loads(line)["text"].split()
        for pair in zip(tokens, tokens[1:]):
            counts[pair] = counts.get(pair, 0) + 1
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    return time.perf_counter() - start


def main() -> None:
    running: list[subprocess.Popen] = []

    def stop(signum, frame):
        for proc in running:
            proc.kill()
            proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    calibrate()
    before = calibrate()
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["args"], cwd=request["cwd"], env=request["env"],
                stdout=log, stderr=subprocess.STDOUT,
            )
            running.append(proc)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            running.clear()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = calibrate()
        reply = {"wall_s": wall, "cal_s": (before + after) / 2.0,
                 "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}
        before = after
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
