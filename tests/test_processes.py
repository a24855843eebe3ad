"""No child process can outlive a run: the library never loads the
machinery that would start one.

Evaluation is in-process and single-threaded per statement, so importing
the driver and the server and running every plan family must leave
``multiprocessing`` (which starts a resource-tracker process the first
time shared memory is touched) and the process-pool executor unloaded.
The check runs in a fresh interpreter, so modules other tests imported
cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = (
    "multiprocessing",
    "multiprocessing.shared_memory",
    "concurrent.futures.process",
)

SCRIPT = f"""
import random
import sys

import repro
import repro.server

con = repro.connect(":memory:")
con.execute(
    "CREATE TABLE cars (id INTEGER, price INTEGER, mileage INTEGER, make TEXT)"
)
rng = random.Random(7)
con.raw.executemany(
    "INSERT INTO cars VALUES (?, ?, ?, ?)",
    [
        (i, rng.randrange(5000, 90000), rng.randrange(0, 300000),
         rng.choice(["vw", "opel", "bmw"]))
        for i in range(1200)
    ],
)
con.execute("ANALYZE")
preference = "LOWEST(price) AND LOWEST(mileage)"

cursor = con.execute(
    f"SELECT * FROM cars PREFERRING {{preference}}", algorithm="rewrite"
)
assert cursor.fetchall() and cursor.plan.strategy == "rewrite"

cursor = con.execute(f"SELECT * FROM cars PREFERRING {{preference}} GROUPING make")
assert cursor.fetchall() and cursor.plan.strategy == "bnl", cursor.plan.strategy

refined = f"SELECT * FROM cars PREFERRING {{preference}} CASCADE make IN ('vw') GROUPING make"
cursor = con.execute(refined)
assert cursor.fetchall() and cursor.plan.strategy == "session", cursor.plan.strategy
con.close()

loaded = [name for name in {FORBIDDEN!r} if name in sys.modules]
assert not loaded, loaded
"""


def test_no_process_machinery_is_loaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
