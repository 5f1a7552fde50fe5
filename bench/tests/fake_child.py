"""Stand-in for child.py whose behaviour is picked by the builder argument:
``memory`` allocates past its own address-space cap, ``signal`` kills itself
and ``sleep`` outlives any short timeout."""

import json
import os
import resource
import signal
import sys
import time
import traceback

behaviour = sys.argv[5]
if behaviour == "memory":
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    try:
        bytearray(2 << 30)
    except MemoryError:
        print(json.dumps({"import_cpu_s": time.process_time(), "reference_s": time.process_time()}))
        print(json.dumps({"main_s": 0.0, "main_cpu_s": 0.0, "error": traceback.format_exc(),
                          "exit": None, "stdout": ""}))
elif behaviour == "signal":
    os.kill(os.getpid(), signal.SIGKILL)
elif behaviour == "sleep":
    time.sleep(30)
