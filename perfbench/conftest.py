import sys
from pathlib import Path

# the benchmark imports scorechain from this checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
