##
## Import shape: the package exports its names lazily, and a CLI call
## loads only the modules its subcommand runs.  Each check runs in a fresh
## interpreter, so sys.modules starts clean.
##

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl2factor

SRC = str(Path(sl2factor.__file__).resolve().parents[1])
CORE = {"errors", "exact_algebra", "word_core"}
ALL_MODULES = CORE | {"_random", "_verify", "factorizer", "fiber_solver",
                      "obstruction", "submersion_spray"}

# appended to a child's code: print the sl2factor submodules it loaded,
# and mpmath if it loaded that
LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m.split('.', 1)[-1] for m in sys.modules\n"
    "                        if m.startswith('sl2factor.') and\n"
    "                        m != 'sl2factor.cli' or m == 'mpmath')))\n")


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_package_loads_no_submodule():
    loaded = json.loads(_python("import sl2factor\n" + LOADED))
    assert set(loaded) <= {"errors"}


SUBCOMMANDS = [
    (["expand", "--n", "5"], CORE),
    (["jacobian", "--n", "4", "--point", "5,0,0,7"],
     CORE | {"submersion_spray"}),
    (["lemma-check", "--n", "4", "--samples", "5"],
     CORE | {"submersion_spray", "_random"}),
    (["fiber-solve", "--n", "4", "--input", "{target}"],
     CORE | {"fiber_solver", "_random"}),
    (["factor-const", "--input", "{target}"], CORE | {"factorizer"}),
    (["pad", "--input", "{word}"], CORE | {"factorizer"}),
    (["cohn", "--z", "1/2", "--w", "1/4"], CORE | {"factorizer"}),
    (["winding", "--samples", "32"], {"errors", "exact_algebra",
                                      "obstruction"}),
    (["certificate", "--samples", "64"], {"errors", "exact_algebra",
                                          "obstruction"}),
    (["bound", "--n", "3", "--k", "2=4,3=5"], CORE | {"factorizer"}),
    (["verify-suite", "--scale", "quick"], ALL_MODULES | {"mpmath"}),
]


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS,
                         ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    files = {"target": {"target": {"a": "2", "b": "3", "c": "1", "d": "2"}},
             "word": {"word": [{"side": "U", "entry": "3"},
                               {"side": "L", "entry": "2"}]}}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [a.format(**{k: tmp_path / f"{k}.json" for k in files})
            for a in argv]
    out = _python(
        "import contextlib, io\n"
        "from sl2factor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n" + LOADED)
    assert set(json.loads(out)) == modules


def test_every_export_resolves_to_its_home_object_and_is_kept():
    _python(
        "from importlib import import_module\n"
        "import sl2factor\n"
        "for name, home in sl2factor._HOME.items():\n"
        "    assert name not in vars(sl2factor), name\n"
        "    value = getattr(sl2factor, name)\n"
        "    mod = import_module('sl2factor.' + home)\n"
        "    assert value is getattr(mod, name), name\n"
        "    assert vars(sl2factor)[name] is value, name\n")


def test_star_import_and_dir_list_every_export():
    _python(
        "import sl2factor\n"
        "names = {}\n"
        "exec('from sl2factor import *', names)\n"
        "assert set(sl2factor.__all__) <= set(names)\n"
        "assert set(sl2factor.__all__) <= set(dir(sl2factor))\n")


def test_submodule_import_from_package_still_works():
    _python(
        "from sl2factor import submersion_spray\n"
        "assert submersion_spray.__name__ == 'sl2factor.submersion_spray'\n"
        "assert submersion_spray.frame_rank is not None\n")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sl2factor.no_such_name
    assert not hasattr(sl2factor, "submersion_spray_typo")
