"""The six demos run cleanly and print exactly what they printed before,
and the README's library guide names only functions that exist.

Each demo runs in its own interpreter with ``src`` on the path.  The
digests are sha256 of each demo's recorded stdout; a change that alters any
printed basis, dimension or verdict changes a digest.
"""

import hashlib
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sphlie

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_exact_subspaces.py":
        "88420bf8c4942e5209e01ef0eb8e24b1dfe79da53512ca43b1365874c7ca2ed3",
    "02_first_spherical_pair.py":
        "ef144e5997a7d5f47c1d2731a02d0d67a0388dd791a145f4855b27d55120fef9",
    "03_conjugation_rescues_closed_orbits.py":
        "ff18dc5d8fda1530e74fe7ca238eaa75a1aeb9435f0a8b8fa6932933e902640f",
    "04_adapted_parabolic_lattice.py":
        "8287ad6c35617170d57d4eeae9e4f6e1889135795eb5e9e4f3bd6dda1a63d3ac",
    "05_orbit_identity_and_conjugators.py":
        "319c768476400e2dd929bb39d6e8a4cbf6da1a80552a8244ac70c0977d8ffd5d",
    "06_normalizers_and_transitivity.py":
        "f7a7de113538ff3f2cb8ff8bb626868346d096a11c9e444823818fa0b4d8c41c",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]


def test_readme_library_names_resolve():
    # every `name(` in "Quick start (library)", dotted or not, must be an
    # attribute of a sphlie module or of a class defined in one (by the
    # last part of a dotted name: `word.inverse.image(` is GroupWord.image)
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start (library)\n", 1)[1].split("\n## ")[0]
    known = set()
    for info in pkgutil.iter_modules(sphlie.__path__):
        module = importlib.import_module(f"sphlie.{info.name}")
        known.update(vars(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                known.update(dir(cls))
    named = re.findall(r"`([A-Za-z_][\w.]*)\(", section)
    assert named
    assert sorted({n for n in named if n.rpartition(".")[2] not in known}) \
        == []
