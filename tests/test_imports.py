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
CORE = {"errors", "scalars", "word_core"}
# exact_algebra (polynomials) loads only where a polynomial is built or read
POLY = CORE | {"exact_algebra"}
ALL_MODULES = POLY | {"_random", "_verify", "factorizer", "fiber_solver",
                      "obstruction", "submersion_spray"}

# appended to a child's code: print the sl2factor submodules it loaded,
# and mpmath if it loaded that
LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m.split('.', 1)[-1] for m in sys.modules\n"
    "                        if m.startswith('sl2factor.') and\n"
    "                        m != 'sl2factor.cli' or m == 'mpmath')))\n")


def _python(code: str, *flags: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_package_loads_no_submodule():
    loaded = json.loads(_python("import sl2factor\n" + LOADED))
    assert set(loaded) <= {"errors"}


SUBCOMMANDS = [
    (["expand", "--n", "5"], POLY),
    (["jacobian", "--n", "4", "--point", "5,0,0,7"],
     POLY | {"submersion_spray"}),
    (["lemma-check", "--n", "4", "--samples", "5"],
     POLY | {"submersion_spray", "_random"}),
    (["fiber-solve", "--n", "4", "--input", "{target}"],
     CORE | {"fiber_solver", "_random"}),
    (["factor-const", "--input", "{target}"], CORE | {"factorizer"}),
    (["pad", "--input", "{word}"], CORE),
    (["cohn", "--z", "1/2", "--w", "1/4"], CORE | {"factorizer"}),
    (["winding", "--samples", "32"], {"errors", "scalars", "obstruction"}),
    (["certificate", "--samples", "64"], {"errors", "scalars",
                                          "obstruction"}),
    (["bound", "--n", "3", "--k", "2=4,3=5"], CORE),
    (["verify-suite", "--scale", "quick"], ALL_MODULES | {"mpmath"}),
]


def _run_main(tmp_path, argv, report: str, *flags: str) -> list:
    """Run main(argv) in a fresh interpreter, its input files written to
    tmp_path; what the code `report` prints, as JSON."""
    files = {"target": {"target": {"a": "2", "b": "3", "c": "1", "d": "2"}},
             "word": {"word": [{"side": "U", "entry": "3"},
                               {"side": "L", "entry": "2"}]}}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [a.format(**{k: tmp_path / f"{k}.json" for k in files})
            for a in argv]
    return json.loads(_python(
        "import contextlib, io\n"
        "from sl2factor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n" + report, *flags))


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS,
                         ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    assert set(_run_main(tmp_path, argv, LOADED)) == modules


# dataclasses alone costs a cold call about 14 ms, since it imports
# inspect, ast, dis and tokenize; only factorizer.Factorization is still a
# dataclass.  fractions and the decimal it imports cost about 2 ms; no
# subcommand but verify-suite loads them, since exact text is parsed to
# integers.  Under -S no site .pth file runs, and one may import typing
# before the package does.
STDLIB_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted({'dataclasses', 'decimal', 'fractions',\n"
    "                         'inspect', 'typing'} & set(sys.modules))))\n")
STDLIB_CASES = [(argv, {"decimal", "fractions", "typing"}
                 | (set() if "factorizer" in modules
                    else {"dataclasses", "inspect"}))
                for argv, modules in SUBCOMMANDS if argv[0] != "verify-suite"]


@pytest.mark.parametrize("argv,refused", STDLIB_CASES,
                         ids=[argv[0] for argv, _ in STDLIB_CASES])
def test_cold_call_loads_no_dataclasses_inspect_or_typing(tmp_path, argv,
                                                          refused):
    loaded = set(_run_main(tmp_path, argv, STDLIB_LOADED, "-S"))
    assert not loaded & refused


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


# the names exact_algebra defines or uses; the scalar ones are the
# scalars module's own objects
EXACT_ALGEBRA_NAMES = (
    "EC_ONE", "EC_ZERO", "ExactComplex", "MultiPoly", "compile_approx",
    "format_exact", "is_exact_scalar", "poly_det_is_one", "poly_embed",
    "poly_from_json", "poly_to_json", "unify_scalars")


def test_exact_algebra_keeps_its_names():
    from sl2factor import exact_algebra, scalars
    for name in EXACT_ALGEBRA_NAMES:
        value = getattr(exact_algebra, name)
        if hasattr(scalars, name):
            assert value is getattr(scalars, name), name


def test_scalar_kinds_do_not_depend_on_import_order():
    # scalars imports neither fractions nor exact_algebra, and loading
    # them adds nothing to the kind table: a Fraction or a MultiPoly made
    # afterwards is recognised all the same
    out = _python(
        "import sys\n"
        "from sl2factor import scalars\n"
        "assert 'fractions' not in sys.modules\n"
        "kinds = dict(scalars.KINDS)\n"
        "from fractions import Fraction\n"
        "from sl2factor.exact_algebra import MultiPoly\n"
        "assert scalars.KINDS == kinds\n"
        "x, h = MultiPoly.variable(2, 0), Fraction(1, 2)\n"
        "assert scalars.is_poly(x) and not scalars.is_poly(h)\n"
        "assert scalars.is_literal(x) and scalars.is_exact_scalar(h)\n"
        "u = scalars.unify_scalars([h, x])\n"
        "assert u == [MultiPoly.constant(2, h), x]\n"
        "print('ok')\n")
    assert out.strip() == "ok"


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
