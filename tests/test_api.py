import os
import subprocess
import sys
from pathlib import Path

REMOVED = ("LatticeGraph", "build_lattice", "connected_components", "solve_label")


def test_public_names_resolve_and_removed_names_are_gone():
    """Every name in `voxprop.__all__` resolves through the lazy export
    table, and the names taken out of the public surface stay out."""
    code = f"""
import voxprop
missing = [name for name in voxprop.__all__ if getattr(voxprop, name, None) is None]
assert not missing, missing
for name in {REMOVED!r}:
    try:
        getattr(voxprop, name)
    except AttributeError:
        continue
    raise AssertionError(f"voxprop.{{name}} still resolves")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
