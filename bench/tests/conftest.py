import sys
from pathlib import Path

# The benchmark's modules import each other as top-level modules, as they
# do when bench/run.py runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
