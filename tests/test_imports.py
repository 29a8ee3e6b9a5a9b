"""What `import uip` loads.

Each check runs in a fresh interpreter: the test session has already
imported scipy.stats and scipy.optimize through other test modules.
"""

import json
import os
import subprocess
import sys

import uip

SRC = os.path.dirname(os.path.dirname(os.path.abspath(uip.__file__)))

SCRIPT = """
import json, sys
import uip, uip.cli
heavy = ("scipy.stats", "scipy.optimize")
after_import = [m for m in heavy if m in sys.modules]
from uip import fluid, generate_synthetic, singletons, static
inst = generate_synthetic(seed=1, count=3, demand=3.0)
s0 = singletons(inst)
values = [fluid(inst, s0).value, static(inst, s0).value]
print(json.dumps({"after_import": after_import, "values": values,
                  "optimize_loaded": "scipy.optimize" in sys.modules}))
"""


def test_import_loads_neither_scipy_stats_nor_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["after_import"] == []
    # fluid and static solve with their own numpy solvers
    assert not doc["optimize_loaded"]
    fluid_value, static_value = doc["values"]
    assert fluid_value >= static_value > 0
