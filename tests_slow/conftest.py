import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package, and the oracles that live beside the tier-1 tests
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]
