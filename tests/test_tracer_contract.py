"""The bindings perfbench/tracer.py patches must exist in the package.

The tracer records a missing binding as uncovered instead of failing, so
without this test a cleanup that deletes one shows only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_with_no_uncovered_binding():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    script = ("import json; from tracer import Tracer, install; "
              "t = Tracer(); install(t); print(json.dumps(t.uncovered))")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
