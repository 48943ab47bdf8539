import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("phasekit", deadline=None)
settings.load_profile("phasekit")

# pyproject's pythonpath puts src/ on this process's path; the CLI tests run
# `python -m phasekit` in child processes, which need it in the environment
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
