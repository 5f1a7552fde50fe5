"""Let the `python -m pqclab.cli` subprocesses that tests start import the
package from `src/`, as the pytest `pythonpath` setting does in-process."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
