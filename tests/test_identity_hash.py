"""Pin the four hashes of `identity_hash.py` over seeded answers of every layer.

Each part runs in its own process, with `src` on the path and `tests` as
the working directory (the script imports `helpers`).  A change that means
to alter an answer updates the literal below and says so in CHANGES.md;
any other change must leave all four hashes as they are.
"""
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

HASHES = {
    "default": "9e625ecaa2f9e1250828300914d6b4e124892e7ce321fe8c6d000a266060cd84",
    "monoidal": "aaef357f8e10bcb11ba14ec87913f06abe3dddc6d51d857c9796a34078d4ed6b",
    "field": "137677fe2cdce05eb85ceb37835e7f295be4021d0154c24ec005145a8edfdd16",
    "rank1": "c47575f8499420e2ea3d2d033e8557ed72dc56c56df224ab4f3dc692dbb2eec5",
}


@pytest.mark.parametrize("part", list(HASHES))
def test_identity_hash_is_unchanged(part):
    argv = [sys.executable, "identity_hash.py"] + ([] if part == "default" else [part])
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(argv, cwd=HERE, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == HASHES[part]
