"""Seeded CLI outputs, pinned byte for byte across commits.

Small seeded runs of every command go through ``cli.main`` in this
process, and the SHA-256 of each data file they write must equal the
hash recorded in ``pinned_outputs.json``. The ``*_resolved.json`` records
are left out: they hold paths and wall times.

Another numpy version, or a build without LAPACK ``dposv``, rounds
differently, so the test skips there and says why; on the build the
manifest records it always compares. A change that alters outputs on
purpose regenerates the manifest with::

    PYTHONPATH=src python tests/test_pinned_outputs.py

and lists each entry that changed, with the reason.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from shrinksel import samplers
from shrinksel.cli import main

MANIFEST = Path(__file__).with_name("pinned_outputs.json")

SHAPES = {"wide": ("-n", "12", "-p", "30", "-r", "3", "--strengths", "4"),
          "tall": ("-n", "40", "-p", "6", "-r", "2", "--strengths", "3,-2")}
CHAIN = ("--iterations", "200", "--burn-in", "50")
#: The selector tags that read each prior's draws.
TAGS = {"horseshoe": "s2m,2m,cs,ht", "spike-slab": "s2m,2m,hppm,mpm,cs"}

#: Four draws of five coefficients: every draw has one signal, in column 1
#: or column 3, so H is 1 and the two columns tie on the median of
#: |beta|. The tie rule gives the smaller index, column 1.
TIED_DRAWS = """beta_1,beta_2,beta_3,beta_4,beta_5,sigma2
9,0.1,0.2,-0.1,0.1,1
0.2,0.1,9,0.1,-0.1,1
9,-0.1,0.2,0.1,0.1,1
0.2,0.1,-9,0.1,0.1,1
"""


def pinned_runs(root: Path) -> dict[str, list[str]]:
    """Each run's name, which is also its output directory under ``root``,
    and its arguments, in the order they run."""
    runs = {}
    for shape, flags in SHAPES.items():
        runs[f"simulate-{shape}"] = ["simulate", *flags, "--seed", "1"]
    for prior, tags in TAGS.items():
        for shape in SHAPES:
            sim = root / f"simulate-{shape}"
            fit = f"fit-{prior}-{shape}"
            runs[fit] = ["fit", "--design", str(sim / "design.csv"),
                         "--response", str(sim / "response.csv"),
                         "--prior", prior, *CHAIN, "--seed", "7"]
            select = f"select-{prior}-{shape}"
            runs[select] = ["select", "--draws", str(root / fit / "draws.csv"),
                            "--methods", tags]
            runs[f"evaluate-{prior}-{shape}"] = [
                "evaluate", "--selection", str(root / select / "selection.csv"),
                "--truth", str(sim / "truth.txt")]
    runs["select-tuned"] = [
        "select", "--draws", str(root / "fit-horseshoe-wide" / "draws.csv"),
        "--methods", TAGS["horseshoe"], "--b", "1.5", "--level", "0.9",
        "--threshold", "0.4"]
    runs["select-tied"] = ["select", "--draws", str(root / "tied_draws.csv"),
                           "--methods", "s2m,2m,cs"]
    for prior in TAGS:
        runs[f"bench-{prior}"] = [
            "bench", "-n", "20", "-p", "10", "-r", "2", "--strengths", "5",
            "--prior", prior, "--replicates", "2", *CHAIN, "--seed", "3",
            "--jobs", "1"]
    runs["shrinkmap"] = ["shrinkmap", "--rho", "0,0.5,0.95", "--tau", "0.1,0.5",
                         "--a", "1.5,4", "--x2", "1", "--x2", "-1.5"]
    return runs


def run_pinned(root: Path) -> dict[str, str]:
    """SHA-256 of every data file the pinned runs write under ``root``,
    keyed by its path relative to ``root``."""
    (root / "tied_draws.csv").write_text(TIED_DRAWS)
    for name, argv in pinned_runs(root).items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(root / name)])
        assert code == 0, name
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob("*/*"))
            if not path.name.endswith("_resolved.json")}


def this_build() -> dict:
    """What the manifest's hashes depend on besides the code."""
    return {"numpy": np.__version__, "dposv": samplers._dposv() is not None}


def test_seeded_outputs_keep_their_bytes(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["build"] != this_build():
        pytest.skip(f"outputs pinned on {manifest['build']}, not on "
                    f"{this_build()}")
    hashes = run_pinned(tmp_path)
    changed = sorted(name for name in hashes.keys() | manifest["files"].keys()
                     if hashes.get(name) != manifest["files"].get(name))
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        files = run_pinned(Path(scratch))
    MANIFEST.write_text(json.dumps({"build": this_build(), "files": files},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}", file=sys.stderr)
