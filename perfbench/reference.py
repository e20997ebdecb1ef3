"""Fixed yardstick program for the end-to-end benchmark; it uses no courtlift code.

run.py runs it right after every timed command and reports the command's
wall time divided by this program's (`wall_rel`). On a shared host the
CPU speed drifts by 10-25 % from one minute to the next, and plain wall
times drift with it. The ratio cancels most of that drift because this
program does the same kinds of work as a courtlift command: it starts an
interpreter, imports numpy, round-trips JSON records, and runs a
Python-level loop over small numpy values. Keep it unchanged: every
recorded `wall_rel` is in units of its run time.
"""

import json
import math

import numpy as np

rows = [
    {"id": i, "xy": [i * 0.5, i * 0.25], "v": math.sin(i), "cal": [float(j) for j in range(24)]}
    for i in range(6000)
]
text = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
back = [json.loads(line) for line in text.splitlines()]
arr = np.array([r["xy"] for r in back])
acc = 0.0
for i in range(len(arr)):
    x, y = arr[i]
    acc += math.hypot(float(x), float(y)) + float(np.dot(arr[i], arr[i]))
print(acc, len(text))
