"""Two untraced evaluations of the same seeded block, each in a fresh
interpreter, print bit-identical value strings and identical K counts."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

SNIPPET = """
import random, sys
sys.path[:0] = [{bench!r}, {src!r}]
import stieltjes
from clock import Clock
from run import digest, serve
from workloads import point_mix_block
reqs = [r for r in point_mix_block(random.Random({seed})) if r.fn != "delta"][:40]
clock = Clock()
print(*digest(serve(stieltjes, reqs, clock)))
clock.close()
"""


def _digest(seed: int) -> str:
    code = SNIPPET.format(bench=str(BENCH), src=str(BENCH.parent / "src"), seed=seed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    return out.stdout.strip()


def test_same_seed_bit_identical_across_interpreters():
    first = _digest(5)
    assert first == _digest(5)
    assert first != _digest(6)
