"""What a fresh interpreter loads for ``import netclass`` and for each command.

The package resolves its public names and submodules on first access, and
each ``netclass`` command imports the modules it runs, so every check here
starts a new interpreter: the test process has loaded everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netclass
from netclass.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str, cwd=None):
    """The JSON that ``code`` prints, run by a new interpreter that imports
    netclass from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "NETCLASS_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps([sorted(m for m in sys.modules if m.startswith("netclass.")),
                  "multiprocessing" in sys.modules]))
"""


def test_import_netclass_loads_no_submodule():
    assert fresh("import netclass" + LOADED) == [[], False]


def test_star_import_binds_exactly_all():
    names = fresh("""
import json
from importlib import import_module
import netclass
star = {}
exec("from netclass import *", star)
assert sorted(star.keys() - {"__builtins__"}) == sorted(netclass.__all__)
for name, module in netclass._EXPORTS.items():
    assert star[name] is getattr(import_module("netclass." + module), name), name
print(json.dumps(netclass.__all__))
""")
    assert len(names) == len(set(names)) == 36


def test_submodules_resolve_as_attributes():
    assert fresh("""
import json, sys
import netclass
assert netclass.metrics is sys.modules["netclass.metrics"]
assert netclass.metrics.betweenness is netclass.betweenness
print(json.dumps(sorted(m for m in sys.modules if m.startswith("netclass."))))
""") == ["netclass.graph", "netclass.metrics"]
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        netclass.nonexistent
    assert {*netclass.__all__, "metrics", "rng", "__version__"} <= set(dir(netclass))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("footprint")
    assert main(["gen", "--preset", "synthetic-desk", "--seed", "3", "--count", "1",
                 "--out", str(out / "data")]) == 0
    assert main(["features", "--manifest", str(out / "data" / "manifest.csv"),
                 "--extractor", "projection", "--out", str(out / "proj.csv")]) == 0
    return out


# what each command loads, in one process with one worker: only gen and
# features read a preset or a manifest, so only they load the generators
BASE = ["netclass.cli", "netclass.features", "netclass.graph"]
DATASET = sorted(BASE + ["netclass.generators", "netclass.rng"])
COMMANDS = {
    "help": (["--help"], BASE),
    "gen": (["gen", "--preset", "synthetic-desk", "--count", "1", "--out", "again"], DATASET),
    "render": (["render", "data/ER_500_4_000.edges", "--out", "g.pgm"],
               sorted(BASE + ["netclass.metrics", "netclass.ordering"])),
    "features": (["features", "--manifest", "data/manifest.csv",
                  "--extractor", "hu", "--out", "hu.csv"],
                 sorted(DATASET + ["netclass.metrics", "netclass.ordering"])),
    "classify-knn": (["classify", "--features", "proj.csv", "--classifier", "knn"],
                     sorted(BASE + ["netclass.classify", "netclass.rng"])),
    "classify-svm": (["classify", "--features", "proj.csv", "--classifier", "svm"],
                     sorted(BASE + ["netclass.classify", "netclass.rng"])),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_what_it_runs(dataset, command):
    argv, modules = COMMANDS[command]
    assert fresh(f"""
import contextlib, io
from netclass.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        assert main({argv!r}) == 0
    except SystemExit as exc:
        assert exc.code == 0
""" + LOADED, cwd=dataset) == [modules, False]


@pytest.mark.parametrize("argv", [
    ["gen", "--preset", "synthetic-desk", "--count", "1", "--out", "again"],
    ["features", "--manifest", "data/manifest.csv", "--extractor", "hu", "--out", "hu.csv",
     "--extractor", "structural", "--out", "st.csv"],
])
def test_the_parent_loads_what_workers_run(dataset, argv):
    # the netclass modules a forked worker would import itself, run inline in
    # its place (numpy.random, which gen's workers import, is left to them:
    # imported before the fork it raised the peak RSS of a two-worker gen
    # from 32.6 to 36.4 MB)
    assert fresh(f"""
import json, sys
from netclass import cli

def fan_out(fn, tasks):
    before = set(sys.modules)
    rows = [fn(t) for t in tasks]
    new.extend(sorted(m for m in set(sys.modules) - before if m.startswith("netclass")))
    return rows

new = []
cli._fan_out = fan_out
assert cli.main({argv!r}) == 0
print(json.dumps(new))
""", cwd=dataset) == []
