"""Machine-speed probe: a fixed numpy sort and a fixed pure-Python loop.

Runs as its own process, so the benchmark's parent process stays small:
a child's ru_maxrss starts from the RSS of the process it was spawned from.
Prints one JSON object with both times in milliseconds.
"""

import json
import time

import numpy as np


def main() -> dict[str, float]:
    data = np.random.default_rng(0).random(1_000_000)
    t0 = time.perf_counter()
    np.sort(data)
    t1 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    t2 = time.perf_counter()
    return {"numpy_sort_ms": (t1 - t0) * 1e3, "py_loop_ms": (t2 - t1) * 1e3}


if __name__ == "__main__":
    print(json.dumps(main()))
