"""Run a module as __main__ with the speed probe of perfbench/calib.py on,
then write the probe times to a file, whatever way the module exits.

Usage: python3 perfbench/launch.py <probe-file> <module> [args...]

The probe adds about 0.3% to the process's run time; the caller subtracts
it from the measured wall time.
"""

import json
import runpy
import sys

from calib import Speedometer

sys.path.pop(0)  # the module must not see this directory's files
probe_file, module = sys.argv[1], sys.argv[2]
sys.argv = [module, *sys.argv[3:]]
speedo = Speedometer()
speedo.start()
try:
    runpy.run_module(module, run_name="__main__", alter_sys=True)
finally:
    speedo.stop()
    speedo.probe()
    with open(probe_file, "w", encoding="utf-8") as f:
        json.dump(speedo.durations, f)
