##
## CLI surface: every subcommand's JSON report, typed exit codes, and
## byte-stable output
##

import json
from time import perf_counter

import pytest

from sl2factor.cli import (MAX_EXPAND_N, MAX_FIBER_N, MAX_LEMMA_N,
                           MAX_LEMMA_SAMPLES, MAX_LEMMA_WORK,
                           MAX_LOOP_SAMPLES, SUBCOMMANDS, main)
from sl2factor.exact_algebra import poly_to_json
from sl2factor.obstruction import SAMPLE_CAP
from sl2factor.word_core import middle_Q


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_expand(capsys):
    code, rep = run(capsys, "expand", "--n", "4")
    assert code == 0
    assert rep["command"] == "expand"
    assert rep["nvars"] == 2
    assert rep["vars"] == ["z2", "z3"]
    assert rep["unimodular"] is True
    assert rep["Q"][0] == poly_to_json(middle_Q(4)[0])
    assert "timing_ms" in rep


def test_expand_too_short(capsys):
    code, rep = run(capsys, "expand", "--n", "2")
    assert code == 2
    assert rep["error"]["code"] == "precondition"


def test_jacobian_singular_point(capsys):
    code, rep = run(capsys, "jacobian", "--n", "4", "--point", "5,0,0,7")
    assert code == 0
    assert rep["rank"] == 2
    assert rep["singular"] is True
    assert rep["exact"] is True
    assert rep["columns"][0] == ["1", "0", "0"]


def test_jacobian_float_needs_approx(capsys):
    code, rep = run(capsys, "jacobian", "--n", "4", "--point", "0.5,1,1,1")
    assert code == 2
    code, rep = run(capsys, "jacobian", "--n", "4", "--point", "0.5,1,1,1",
                    "--approx")
    assert code == 0
    assert rep["rank"] == 3
    assert rep["exact"] is False


@pytest.mark.parametrize("point,echo", [
    ("0.5,1,1,1", [[0.5, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
    ([1, "2", 0.5, [1, 2]], [[1.0, 0.0], [2.0, 0.0], [0.5, 0.0], [1.0, 2.0]]),
])
def test_jacobian_echoes_the_point_in_one_kind(tmp_path, capsys, point,
                                               echo):
    argv = ["jacobian", "--approx", "--n", "4"]
    if isinstance(point, str):
        argv += ["--point", point]
    else:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(point))
        argv += ["--input", str(path)]
    code, rep = _one_line(capsys, argv)
    assert code == 0
    assert rep["exact"] is False
    assert rep["point"] == echo


def test_lemma_check(capsys):
    code, rep = run(capsys, "lemma-check", "--n", "4", "--samples", "50")
    assert code == 0
    assert rep["verified"] is True
    assert rep["violations"] == []


def test_fiber_solve_generic(tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(
        {"target": {"a": "2", "b": "3", "c": "1", "d": "2"}}))
    code, rep = run(capsys, "fiber-solve", "--n", "4", "--input", str(path))
    assert code == 0
    assert rep["branch"] == "generic"
    assert rep["verified"] is True
    assert rep["eq4_residual"] == "0"
    assert len(rep["point"]) == 4
    assert all(isinstance(s, str) for s in rep["point"])


def test_fiber_solve_nongeneric_odd(tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"a": "2", "b": "0", "c": "3", "d": "1/2"}))
    code, rep = run(capsys, "fiber-solve", "--n", "5", "--input", str(path),
                    "--z1", "7")
    assert code == 0
    assert rep["branch"] == "nongeneric"
    assert rep["z1_free"] == "7"
    assert rep["point"][0] == "7"


def test_factor_const(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": "1", "b": "0", "c": "0", "d": "1"}))
    code, rep = run(capsys, "factor-const", "--input", str(path))
    assert code == 0
    assert rep["factor_count"] == 0
    assert rep["three_factor"] == {"ULU": True, "LUL": True}


def test_pad(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(
        {"word": [{"side": "U", "entry": "3"}, {"side": "L", "entry": "2"}]}))
    code, rep = run(capsys, "pad", "--input", str(path))
    assert code == 0
    assert rep["product_match"] is True
    assert rep["length"] == 4
    assert [f["entry"] for f in rep["padded"]] == ["4", "0", "-1", "2"]


def test_pad_echoes_both_words_in_the_product_kind(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text(json.dumps([{"side": "U", "entry": "3"},
                                {"side": "L", "entry": 0.5}]))
    code, rep = run(capsys, "pad", "--input", str(path))
    assert code == 0
    assert rep["exact"] is False
    assert [f["entry"] for f in rep["original"]] == [[3.0, 0.0], [0.5, 0.0]]
    assert [f["entry"] for f in rep["padded"]] == [
        [4.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]


def test_pad_polynomial_entry(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text(json.dumps([
        {"side": "L", "entry": {"nvars": 1, "terms": [
            {"exp": [1], "re": "1", "im": "0"}]}},
        {"side": "U", "entry": "2"}]))
    code, rep = _one_line(capsys, ["pad", "--input", str(path)])
    assert code == 0
    assert rep["product_match"] is True
    assert rep["length"] == 4
    assert rep["exact"] is True  # polynomial products replay literally


def test_cohn_family(capsys):
    code, rep = run(capsys, "cohn", "--z", "1", "--w", "2", "--factors", "4",
                    "--h3", "1")
    assert code == 0
    assert rep["mode"] == "family4"
    assert rep["factor_count"] == 4
    assert rep["exact"] is True
    assert rep["relation_residuals"] == ["0", "0", "0", "0"]
    assert [f["entry"] for f in rep["word"]] == ["0", "-2", "1", "2"]


def test_cohn_family_needs_h3(capsys):
    code, rep = run(capsys, "cohn", "--z", "1", "--w", "2", "--factors", "4")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["--factors", "4", "--h3", "3", "--dps", "40"],
     "--dps applies to the 5-factor word only"),
    (["--h3", "3"], "--h3 applies to the 4-factor family only"),
    (["--factors", "5", "--h3", "3"],
     "--h3 applies to the 4-factor family only"),
])
def test_cohn_refuses_an_option_of_the_other_family(capsys, argv, message):
    code, rep = _one_line(capsys, ["cohn", "--z", "1", "--w", "2", *argv])
    assert code == 2
    assert rep["error"] == {"code": "precondition", "message": message}
    # without it the call runs
    del argv[-2:]
    code, rep = _one_line(capsys, ["cohn", "--z", "1/2", "--w", "1/4",
                                   *argv])
    assert code == 0


def test_cohn_holo5(capsys):
    code, rep = run(capsys, "cohn", "--z", "1/2", "--w", "1/4")
    assert code == 0
    assert rep["mode"] == "holo5"
    assert rep["factor_count"] == 5
    assert rep["verified"] is True
    assert rep["residual"] < 1e-10


@pytest.mark.parametrize("z", ["5", "-5"])
def test_cohn_holo5_unverified_is_exit_3(capsys, z):
    # double precision cannot resolve zw = +-50; dps 40 can
    code, rep = _one_line(capsys, ["cohn", "--z", z, "--w", "10"])
    assert code == 3
    assert rep["error"]["code"] == "verification"
    assert "rerun with --dps 40" in rep["error"]["message"]
    code, rep = _one_line(capsys, ["cohn", "--z", z, "--w", "10", "--dps",
                                   "20"])
    assert code == 3
    assert "--dps above 20" in rep["error"]["message"]
    code, rep = _one_line(capsys, ["cohn", "--z", z, "--w", "10", "--dps",
                                   "40"])
    assert code == 0
    assert rep["verified"] is True


def test_winding_builtin_section(capsys):
    code, rep = run(capsys, "winding", "--radius", "4")
    assert code == 0
    assert rep["winding"] == 2
    assert rep["source"] == "w^2/|w|^(3/2)"


def test_winding_unresolved_at_the_cap_names_it(capsys):
    # at a subnormal radius w = r e^(i theta) rounds to a handful of
    # directions, so no sample count makes the loop adequate
    code, rep = run(capsys, "winding", "--radius", "5e-324")
    assert code == 3
    assert rep["error"]["code"] == "verification"
    assert rep["error"]["message"] == (
        f"angular step >= pi/2 at every sample count from 256 to "
        f"{SAMPLE_CAP}: no sample count up to the cap of {SAMPLE_CAP} "
        f"resolved the loop")


def test_winding_input_loop(tmp_path, capsys):
    path = tmp_path / "loop.json"
    vals = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    path.write_text(json.dumps({"values": vals}))
    code, rep = run(capsys, "winding", "--input", str(path))
    assert code == 3  # pi/2 steps are not adequate
    assert rep["error"]["code"] == "verification"
    assert "refine the sampling" in rep["error"]["message"]
    path.write_text(json.dumps({"values": [[1, 0], [0, 0], [-1, 0]]}))
    code, rep = run(capsys, "winding", "--input", str(path))
    assert code == 2  # zero sample: invalid loop, not an adequacy issue


def test_certificate(capsys):
    code, rep = run(capsys, "certificate")
    assert code == 0
    assert rep["verdict"] is True
    assert rep["achieved"] == [0, -1, 1, 0]
    assert rep["required_degree"] == 2
    ev = rep["evidence"]
    assert ev["continuation_degrees"] == [2, -2]
    assert ev["shrink_degrees"] == [0, 0, 0, 0]
    assert ev["unit_degree_e_zw"] == 0
    assert ev["continuous_section_degree"] == 2
    assert ev["method"] == "symbolic"
    assert (ev["radius"], ev["samples"]) == (1.0, 256)


def test_certificate_weaker_requirement(capsys):
    code, rep = run(capsys, "certificate", "--required", "1")
    assert code == 0
    assert rep["verdict"] is False


def test_bound(capsys):
    code, rep = run(capsys, "bound", "--n", "2", "--k", "2=4")
    assert code == 0
    assert rep["bound"] == 8
    code, rep = run(capsys, "bound", "--n", "3", "--k", "2=4")
    assert code == 2
    code, rep = run(capsys, "bound", "--n", "2", "--k", "oops")
    assert code == 2


def test_bound_refuses_a_repeated_index(capsys):
    # the last entry for an index used to replace the earlier ones silently
    code, rep = run(capsys, "bound", "--n", "4", "--k", "2=1,3=2,4=2,4=3")
    assert code == 2
    assert rep["error"] == {"code": "precondition",
                            "message": "--k repeats index 4"}
    code, rep = run(capsys, "bound", "--n", "2", "--k", "2=1,02=1")
    assert code == 2 and rep["error"]["message"] == "--k repeats index 2"


@pytest.mark.parametrize("k,stray", [
    ("2=1,3=1,9=-5", 9), ("2=1,3=1,4=0", 4), ("1=0,2=1,3=1", 1),
    ("2=1,3=1,-4=2", -4)])
def test_bound_refuses_an_index_outside_2_to_n(capsys, k, stray):
    # K(i) is read for i = 2..n only; others used to be echoed back
    code, rep = run(capsys, "bound", "--n", "3", "--k", k)
    assert code == 2
    assert rep["error"] == {"code": "precondition",
                            "message": f"--k index {stray} is outside 2..3"}


def test_bound_huge_n_refused_at_once(capsys):
    t0 = perf_counter()
    code = main(["bound", "--n", "100000000", "--k", "2=1"])
    elapsed = perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert code == 2 and len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert "[3, 4, 5, 6, 7, 8, 9, 10, 11, 12]" in message
    assert "99999998" in message and len(message) < 200
    assert elapsed < 2.0
    code, rep = run(capsys, "bound", "--n", "4", "--k", "2=1,9=1")
    assert code == 2
    assert rep["error"]["message"] == "--k misses indices [3, 4]"


@pytest.mark.parametrize("argv,flag", [
    (["expand", "--n", "19"], "--n"),
    (["expand", "--n", "40"], "--n"),
    (["lemma-check", "--n", "4", "--samples", "10001"], "--samples"),
    (["lemma-check", "--n", "4", "--samples", "100000000"], "--samples"),
    (["lemma-check", "--samples", "1", "--n", "33"], "--n"),
    (["lemma-check", "--samples", "1", "--n", "100000"], "--n"),
    (["lemma-check", "--n", "32", "--samples", "10000"],
     "--n 32 x --samples"),
    (["winding", "--samples", "65537"], "--samples"),
    (["winding", "--samples", "1000000"], "--samples"),
    (["certificate", "--samples", "65537"], "--samples"),
    (["certificate", "--samples", "1000000"], "--samples"),
    (["fiber-solve", "--input", "target.json", "--n", "1025"], "--n"),
    (["fiber-solve", "--input", "target.json", "--n", "6400"], "--n"),
])
def test_size_ceilings_refuse_at_once(capsys, argv, flag):
    t0 = perf_counter()
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    assert rep["error"]["message"].startswith(f"{flag} {argv[-1]} is above")
    assert perf_counter() - t0 < 2.0


@pytest.mark.parametrize("command,ceilings", [
    ("expand", [MAX_EXPAND_N]),
    ("lemma-check", [MAX_LEMMA_N, MAX_LEMMA_SAMPLES, MAX_LEMMA_WORK]),
    ("winding", [MAX_LOOP_SAMPLES]),
    ("certificate", [MAX_LOOP_SAMPLES]),
    ("fiber-solve", [MAX_FIBER_N]),
])
def test_help_names_the_ceilings(capsys, command, ceilings):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    text = " ".join(capsys.readouterr().out.split())
    for ceiling in ceilings:
        assert str(ceiling) in text


_SMALL = '{"a": "2", "b": "3", "c": "1", "d": "2"}'


@pytest.mark.parametrize("argv,text,message", [
    # a 5,000-digit exact string, and the same as a bare JSON integer
    (["factor-const"], '{"a": "%s", "b": "0", "c": "0", "d": "1"}'
     % ("1" * 5000), "exact scalar has an integer of more than"),
    (["factor-const"], '{"a": %s, "b": 0, "c": 0, "d": 1}' % ("1" * 5000),
     "--input has an integer of more than"),
    # valid input whose word entries have about 8,000 digits
    (["factor-const"], '{"a": "%s", "b": "0", "c": "1/%s", "d": "1/%s"}'
     % ("3" * 4000, "7" * 4000, "3" * 4000),
     "exact result has an integer of more than"),
    (["fiber-solve", "--n", "6400"], _SMALL, "--n 6400 is above the ceiling"),
    # each K(i) within the limit, their sum one digit past it
    (["bound", "--n", "2", "--k", "2=" + "9" * 4300], None,
     "the bound has an integer of more than"),
], ids=["exact-string", "json-integer", "word-entry", "fiber-n", "bound"])
def test_numbers_above_the_digit_limit_are_exit_2(tmp_path, capsys, argv,
                                                  text, message):
    if text is not None:
        path = tmp_path / "in.json"
        path.write_text(text)
        argv = argv + ["--input", str(path)]
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    assert rep["error"]["message"].startswith(message)


def test_found_float_product_is_exit_0(tmp_path, capsys):
    # det - 1 = 2.3e-10 on this product, within 1e-10 of its largest |entry|
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": 1e7, "b": 0.5, "c": 1.0, "d": 1.5e-7}))
    code, rep = _one_line(capsys, ["factor-const", "--input", str(path)])
    assert code == 0 and rep["verified"] is True
    path.write_text(json.dumps(rep["word"]))
    code, rep = _one_line(capsys, ["pad", "--input", str(path)])
    assert code == 0 and rep["product_match"] is True


@pytest.mark.parametrize("entries", [[1e11, 0, 0, 0], [1e10, 0, 0, 1.9e-10]])
def test_float_matrix_far_from_sl2_is_exit_3(tmp_path, capsys, entries):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(zip("abcd", entries))))
    code, rep = _one_line(capsys, ["factor-const", "--input", str(path)])
    assert code == 3
    assert "determinant is not 1" in rep["error"]["message"]


def test_loop_sample_ceiling_is_the_library_cap():
    # cli repeats obstruction.SAMPLE_CAP so that --help needs no import
    assert MAX_LOOP_SAMPLES == SAMPLE_CAP


def test_winding_at_its_sample_ceiling(capsys):
    code, rep = run(capsys, "winding", "--samples", str(MAX_LOOP_SAMPLES))
    assert code == 0
    assert (rep["winding"], rep["samples_used"]) == (2, MAX_LOOP_SAMPLES)


@pytest.mark.parametrize("command", ["winding", "certificate"])
def test_two_loop_samples_are_refused(capsys, command):
    # a two-sample loop reads degree 0 whatever the map; three do not
    code, rep = _one_line(capsys, [command, "--samples", "2"])
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    code, rep = _one_line(capsys, [command, "--samples", "3"])
    assert code == 0
    if command == "winding":
        assert rep["winding"] == 2
    else:
        assert rep["evidence"]["continuation_degrees"] == [2, -2]


def test_lemma_check_at_its_ceiling(capsys):
    code, rep = run(capsys, "lemma-check", "--n", str(MAX_LEMMA_N),
                    "--samples", "3")
    assert code == 0
    assert rep["verified"] is True


def test_expand_at_its_ceiling_is_unimodular(capsys):
    code, rep = run(capsys, "expand", "--n", "18")
    assert code == 0
    assert rep["unimodular"] is True
    assert len(rep["Q"][0]["terms"]) == 1597  # Fibonacci F_17


def test_lemma_check_negative_samples(capsys):
    code, rep = run(capsys, "lemma-check", "--n", "5", "--samples", "-5")
    assert code == 2
    assert rep["error"]["code"] == "precondition"


def _one_line(capsys, argv):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


@pytest.mark.parametrize("argv", [
    ["cohn", "--z", "1/0", "--w", "1"],
    ["cohn", "--z", "1/0", "--w", "1", "--approx"],
    ["cohn", "--z", "1", "--w", "2", "--factors", "4", "--h3", "3/0"],
    ["jacobian", "--n", "4", "--point", "1/0,1,1,1"],
])
def test_zero_denominator_argument_is_exit_2(capsys, argv):
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    assert "zero denominator" in rep["error"]["message"]
    assert "--approx" not in rep["error"]["message"]


@pytest.mark.parametrize("command,payload", [
    ("factor-const", {"a": "1/0", "b": "0", "c": "0", "d": "1"}),
    ("fiber-solve", {"target": {"a": "2", "b": "3", "c": "1", "d": "2+1/0 i"}}),
    ("pad", {"word": [{"side": "U", "entry": {
        "nvars": 1, "terms": [{"exp": [0], "re": "1/0", "im": "0"}]}}]}),
])
def test_zero_denominator_input_is_exit_2(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(path)]
    if command == "fiber-solve":
        argv += ["--n", "4"]
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"


def test_jacobian_overflow_is_exit_2(capsys):
    # the squares of 1e150 overflow: refused before any rank is taken
    code, rep = _one_line(capsys, ["jacobian", "--approx", "--n", "4",
                                   "--point=1e150,1e150,2,3"])
    assert code == 2
    assert rep["error"]["code"] == "precondition"


APPROX_TARGETS = {
    "generic": {"a": [2, 0.5], "b": [3, 0], "c": [1, -1],
                "d": [1.5294117647058822, -1.8823529411764706]},
    "a_zero": {"a": [0, 0], "b": [3, 0.5],
               "c": [-0.32432432432432434, 0.05405405405405406],
               "d": [1.5, -2]},
    "b_zero": {"a": [2, 0.5], "b": [0, 0], "c": [1.5, -1],
               "d": [0.47058823529411764, -0.11764705882352941]},
    # pivots far below APPROX_TOL of the largest entry take the
    # non-generic branch; dividing by them would swamp the completion
    "a_tiny": {"a": [1e-17, 0], "b": [3, 0], "c": [-1 / 3, 0], "d": [0, 0]},
    "b_tiny": {"a": [3, 0], "b": [1e-17, 0], "c": [0.5, 0], "d": [1 / 3, 0]},
    # rounding of about 1e-9 here is 1e-16 relative to the entries, and
    # the replay bound is relative to the largest of them
    "a_large": {"a": [1e7, 0.3], "b": [2, -0.7], "c": [1, 0.25],
                "d": [3.174999993999997e-07, -2.0000009524999977e-08]},
}


@pytest.mark.parametrize("n", range(4, 8))
@pytest.mark.parametrize("target", sorted(APPROX_TARGETS))
def test_approx_fiber_solve(tmp_path, capsys, n, target):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(APPROX_TARGETS[target]))
    code, rep = _one_line(capsys, ["fiber-solve", "--approx", "--n", str(n),
                                   "--input", str(path)])
    assert code == 0
    assert rep["verified"] is True
    assert rep["exact"] is False
    pivot = APPROX_TARGETS[target]["a" if n % 2 == 0 else "b"]
    assert rep["branch"] == ("nongeneric" if abs(complex(*pivot)) < 1e-10
                             else "generic")


@pytest.mark.parametrize("n,target", [
    (4, {"a": "0", "b": "3", "c": "-1/3", "d": "5"}),
    (5, {"a": "2", "b": "0", "c": "3/2", "d": "1/2"}),
])
def test_float_free_z1_on_exact_target(tmp_path, capsys, n, target):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(target))
    code, rep = _one_line(capsys, ["fiber-solve", "--approx", "--n", str(n),
                                   "--z1=0.5+0.25i", "--input", str(path)])
    assert code == 0
    assert rep["branch"] == "nongeneric"
    assert rep["verified"] is True
    assert rep["z1_free"] == [0.5, 0.25]
    assert rep["exact"] is False  # a float z1 makes the whole point float


def test_io_errors(tmp_path, capsys):
    code, rep = run(capsys, "factor-const", "--input",
                    str(tmp_path / "missing.json"))
    assert code == 4
    assert rep["error"]["code"] == "io"
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, rep = run(capsys, "factor-const", "--input", str(bad))
    assert code == 4


def test_missing_input_flag(capsys):
    code, rep = run(capsys, "factor-const")
    assert code == 2


def test_output_deterministic(capsys):
    _, rep1 = run(capsys, "certificate", "--d", "1/4")
    _, rep2 = run(capsys, "certificate", "--d", "1/4")
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_verify_suite_quick(capsys):
    code, rep = run(capsys, "verify-suite", "--scale", "quick")
    assert code == 0
    assert rep["all_pass"] is True
    assert len(rep["checks"]) == 10


def test_exact_matrix_with_wrong_determinant_is_exit_2(tmp_path, capsys):
    # det = ad - bc = 0 - (3+2i)(-7/3+1/5i) != 1: bad input, no rounding
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": "1234567891/987654321", "b": "3+2 i",
                                "c": "-7/3+1/5 i", "d": "0"}))
    code, rep = _one_line(capsys, ["factor-const", "--input", str(path)])
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    assert rep["error"]["message"] == "determinant is not 1"


@pytest.mark.parametrize("argv", [
    ["winding", "--radius", "nan"],
    ["winding", "--radius", "inf"],
    ["certificate", "--d", "1e400"],
    ["certificate", "--d", "nan"],
    ["certificate", "--radius", "inf"],
    ["cohn", "--approx", "--z", "nan", "--w", "1"],
    ["cohn", "--approx", "--z", "1", "--w=-1e999"],
    ["cohn", "--approx", "--z", "inf", "--w", "1"],
    ["cohn", "--approx", "--z=-inf", "--w", "1"],
    ["cohn", "--approx", "--z", "1", "--w", "infinity"],
])
def test_non_finite_argument_is_exit_2(capsys, argv):
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    assert "non-finite" in rep["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["certificate", "--radius", "1e-320"],
])
def test_section_out_of_double_range_is_exit_2(capsys, argv):
    # the z-loop's w = D/z overflows on |z| = 1e-320, a non-finite sample
    # that once ended in a traceback
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["winding", "--radius", "1e-320"],
    ["certificate", "--radius", "1e200"],
    ["winding", "--radius", "1e200"],
    ["certificate", "--d", "1e300"],
    ["certificate", "--d", "1e-300"],
    ["winding", "--radius", "1e-170"],
    ["winding", "--radius", "1e160"],
    ["certificate", "--d", "1e-170"],
])
def test_section_far_from_unit_scale_keeps_degree_2(capsys, argv):
    # w^2 underflows or overflows on these loops, h3 = (w/|w|)^2 |w|^(1/2)
    # does not
    code, rep = _one_line(capsys, argv)
    assert code == 0
    if argv[0] == "winding":
        assert rep["winding"] == 2
    else:
        assert rep["evidence"]["continuation_degrees"] == [2, -2]


@pytest.mark.parametrize("command,text", [
    ("factor-const", '{"a": NaN, "b": 0, "c": 0, "d": 1}'),
    ("factor-const", '{"a": [1e400, 0], "b": 0, "c": 0, "d": 1}'),
    ("factor-const", '{"a": [0, -Infinity], "b": 0, "c": 0, "d": 1}'),
    ("fiber-solve", '{"target": {"a": 2, "b": 3, "c": 1, "d": [NaN, 0]}}'),
    ("winding", '{"values": [[1, 0], [0, 1], [-1, 0], [NaN, -1]]}'),
])
def test_non_finite_json_scalar_is_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = [command, "--input", str(path)]
    if command == "fiber-solve":
        argv += ["--approx", "--n", "4"]
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert "non-finite" in rep["error"]["message"]


def test_malformed_json_pair_is_exit_2(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"a": ["x", 0], "b": 0, "c": 0, "d": 1}')
    code, rep = _one_line(capsys, ["factor-const", "--input", str(path)])
    assert code == 2
    assert "not a scalar encoding" in rep["error"]["message"]


def test_cohn_overflow_is_exit_3(capsys):
    code, rep = _one_line(capsys, ["cohn", "--z", "100", "--w", "100"])
    assert code == 3
    assert rep["error"]["code"] == "verification"
    assert "--dps" in rep["error"]["message"]


@pytest.mark.parametrize("z,w", [
    ("1e200", "1e-200"),   # zw = 1, but w^2 underflows to 0 under h1
    ("1e155", "1e-154"),   # the target's z^2 overflows
    ("1e200i", "1e200"),   # zw itself overflows
])
def test_cohn_out_of_double_range_is_exit_3(capsys, z, w):
    code, rep = _one_line(capsys, ["cohn", "--approx", "--z", z, "--w", w])
    assert code == 3
    assert rep["error"]["code"] == "verification"
    assert "--dps" in rep["error"]["message"]


ABOVE_DOUBLE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["cohn", "--z", ABOVE_DOUBLE, "--w", "1"],
    ["cohn", "--z", "1", f"--w=-{ABOVE_DOUBLE}i", "--dps", "40"],
    ["certificate", "--d", ABOVE_DOUBLE],
])
def test_exact_argument_beyond_double_range_is_exit_2(capsys, argv):
    # complex() of the exact value raised OverflowError, a traceback
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"
    assert "double range" in rep["error"]["message"]


def test_report_with_a_non_finite_value_is_exit_3(capsys):
    # verified at dps 820, but h1 = (e^900 - 1 - 900)/900 is past the
    # double range, so the report would print Infinity
    argv = ["cohn", "--approx", "--z", "30", "--w", "30", "--dps", "820"]
    code, rep = _one_line(capsys, argv)
    assert code == 3
    assert rep == {"command": "cohn", "timing_ms": rep["timing_ms"],
                   "error": {"code": "verification", "message":
                             "report holds a non-finite value"}}


@pytest.mark.parametrize("z,w,h3", [
    ("0.5", "0.5", "0.25"),   # all float
    ("0.5", "0.5", "1"),      # float z and w, exact h3
    ("1/2", "1/2", "0.5"),    # exact z and w, float h3
])
def test_cohn_family4_mixed_scalars(capsys, z, w, h3):
    code, rep = _one_line(capsys, ["cohn", "--factors", "4", "--approx",
                                   "--z", z, "--w", w, "--h3", h3])
    assert code == 0
    assert rep["verified"] is True
    assert rep["exact"] is False
    # one kind per report: every word entry is a float pair
    assert all(isinstance(f["entry"], list) for f in rep["word"])


@pytest.mark.parametrize("command,payload", [
    ("pad", [{"side": "U", "entry": {"nvars": 1, "terms": [
        {"exp": [1], "re": 0.1, "im": "0"}]}}]),
    ("pad", [{"side": "U", "entry": {"nvars": 1, "terms": [
        {"exp": [1], "re": "1", "im": True}]}}]),
    ("factor-const", {"a": True, "b": False, "c": False, "d": True}),
    ("factor-const", {"a": [True, 0], "b": 0, "c": 0, "d": 1}),
])
def test_inexact_or_boolean_json_input_is_exit_2(tmp_path, capsys, command,
                                                  payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, rep = _one_line(capsys, [command, "--input", str(path)])
    assert code == 2
    assert rep["error"]["code"] == "precondition"


@pytest.mark.parametrize("dps", ["1", "0", "-5", "14"])
def test_cohn_dps_below_double_is_exit_2(capsys, dps):
    code, rep = _one_line(capsys, ["cohn", "--z", "1", "--w", "1", "--dps",
                                   dps])
    assert code == 2
    assert "at least 15" in rep["error"]["message"]


@pytest.mark.parametrize("radius", ["-1", "0"])
def test_winding_radius_must_be_positive(capsys, radius):
    code, rep = _one_line(capsys, ["winding", f"--radius={radius}"])
    assert code == 2
    assert rep["error"]["message"] == "radius must be positive"


@pytest.mark.parametrize("argv,command", [
    (["expand", "--n", "abc"], "expand"),
    (["expand", "--n", "4", "--bogus"], "expand"),
    (["expand", "--n", "4", "--approx"], "expand"),
    (["certificate", "--input", "x.json"], "certificate"),
    (["jacobian", "--point", "1,2"], "jacobian"),
    (["jacobian", "--n", "4"], "jacobian"),
    (["jacobian", "--n", "4", "--point", "1,2,3,4", "--input", "x.json"],
     "jacobian"),
    (["fiber-solve", "--n", "4"], "fiber-solve"),
    (["pad"], "pad"),
    (["cohn", "--z", "1", "--w", "1", "--factors", "6"], "cohn"),
    (["no-such-command"], None),
    ([], None),
])
def test_malformed_command_line_is_one_json_line(capsys, argv, command):
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["command"] == command
    assert rep["error"]["code"] == "precondition"


def test_long_bad_argument_is_echoed_bounded(capsys):
    # a bad value is echoed as its first 40 characters and its length
    code = main(["expand", "--n", "1" * 5000])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1 and len(out.encode()) < 300
    assert json.loads(out)["error"]["message"] == (
        "argument --n: invalid int value: '" + "1" * 40
        + "'... (5000 characters)")
    code, rep = _one_line(capsys, ["expand", "--n", "4", "x" * 100])
    assert rep["error"]["message"] == ("unrecognized arguments: "
                                       + "x" * 40 + "... (100 characters)")
    code, rep = _one_line(capsys, ["expand", "--n", "1" * 40 + "x"])
    assert rep["error"]["message"].endswith("'... (41 characters)")
    code, rep = _one_line(capsys, ["expand", "--n", "x" * 40])
    assert rep["error"]["message"].endswith("'" + "x" * 40 + "'")


def test_factor_const_refuses_a_singular_float_target(tmp_path, capsys):
    # det 0, but |ad| + |bc| = 6e10 once widened a 1e-10 relative bound
    # to 6 and let it through
    path = tmp_path / "m.json"
    path.write_text('{"a": 3e5, "b": 1e5, "c": 3e5, "d": 1e5}')
    code, rep = _one_line(capsys, ["factor-const", "--input", str(path)])
    assert code == 3
    assert rep["error"]["code"] == "verification"
    assert "determinant is not 1" in rep["error"]["message"]


@pytest.mark.parametrize("command,payload", [
    ("jacobian", {"x": 1}),
    ("jacobian", {"point": 5}),
    ("winding", {"values": 5}),
    ("winding", {"x": [[1, 0]]}),
    ("fiber-solve", [1, 2]),
    ("pad", {"word": {"side": "U"}}),
])
def test_input_of_wrong_shape_is_exit_2(tmp_path, capsys, command, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(path)]
    if command in ("jacobian", "fiber-solve"):
        argv += ["--n", "4"]
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "precondition"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["expand", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage: sl2factor" in capsys.readouterr().out


# every option here is read by its subcommand's handler; a flag that no
# handler reads must not come back
OPTIONS = {
    "expand": {"--n"},
    "jacobian": {"--n", "--point", "--input", "--approx"},
    "lemma-check": {"--n", "--samples", "--seed"},
    "fiber-solve": {"--n", "--seed", "--z1", "--input", "--approx"},
    "factor-const": {"--input"},
    "pad": {"--input"},
    "cohn": {"--z", "--w", "--factors", "--h3", "--dps", "--approx"},
    "winding": {"--radius", "--samples", "--input"},
    "certificate": {"--d", "--radius", "--samples", "--required"},
    "bound": {"--n", "--k"},
    "verify-suite": {"--seed", "--scale"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    declared = {name: set(entry[2]) for name, entry in SUBCOMMANDS.items()}
    assert list(declared) == list(OPTIONS)
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 32


def _timeless(out: str) -> dict:
    report = json.loads(out)
    del report["timing_ms"]
    return report


@pytest.mark.parametrize("argv", [
    ["cohn", "--z", "1", "--w", "-1/2"],
    ["cohn", "--z", "1", "--w", "-2+2i"],
    ["cohn", "--z", "1", "--w", "-2i"],
    ["cohn", "--z", "-1/2", "--w", "-1/4", "--factors", "4", "--h3", "-3"],
    ["cohn", "--approx", "--z", "-1e-3", "--w", "-.5"],
])
def test_option_value_may_start_with_a_dash(capsys, argv):
    # the same report as the "--option=value" spelling, timing aside
    code = main(argv)
    spaced = capsys.readouterr().out
    joined, words = [argv[0]], iter(argv[1:])
    for word in words:
        joined.append(word if word == "--approx" else f"{word}={next(words)}")
    assert main(joined) == code == 0
    assert _timeless(spaced) == _timeless(capsys.readouterr().out)


def test_fiber_solve_takes_a_negative_free_z1(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"a": "0", "b": "3", "c": "-1/3", "d": "2+i"}')
    code, rep = _one_line(capsys, ["fiber-solve", "--n", "4", "--input",
                                   str(path), "--z1", "-1/2"])
    assert code == 0 and rep["verified"]
    assert rep["z1_free"] == rep["point"][0] == "-1/2"


def test_unique_prefix_abbreviates_an_option(capsys):
    code, rep = _one_line(capsys, ["winding", "--samp", "32", "--rad=2"])
    assert code == 0
    assert (rep["samples_used"], rep["radius"]) == (32, 2.0)


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["-x"], "argument command: invalid choice: '-x' (choose from "
     "'expand', 'jacobian', 'lemma-check', 'fiber-solve', 'factor-const', "
     "'pad', 'cohn', 'winding', 'certificate', 'bound', 'verify-suite')"),
    (["lemma-check", "--n", "4", "--s", "5"],
     "ambiguous option: --s could match --samples, --seed"),
    (["cohn", "--h", "3"], "ambiguous option: --h could match --help, --h3"),
    (["expand", "--n", "4", "--z", "1"], "unrecognized arguments: --z"),
    (["expand", "--n", "4", "--"], "unrecognized arguments: --"),
    (["expand", "--n"], "argument --n: expected one argument"),
    (["expand", "--n", "4.5"], "argument --n: invalid int value: '4.5'"),
    (["winding", "--radius", "r"],
     "argument --radius: invalid float value: 'r'"),
    (["cohn", "--z", "1", "--w", "1", "--factors=3"],
     "argument --factors: invalid choice: 3 (choose from 4, 5)"),
    (["cohn", "--z", "1", "--w", "1", "--approx=yes"],
     "unrecognized arguments: --approx=yes"),
    (["cohn", "--z", "1"], "the following arguments are required: --w"),
    (["fiber-solve"],
     "the following arguments are required: --n, --input"),
    (["jacobian", "--n", "4"],
     "one of the arguments --point --input is required"),
    (["jacobian", "--n", "4", "--input", "p.json", "--point", "1"],
     "argument --point: not allowed with argument --input"),
])
def test_each_refusal_has_its_message(capsys, argv, message):
    code, rep = _one_line(capsys, argv)
    assert code == 2
    assert rep["error"] == {"code": "precondition", "message": message}


@pytest.mark.parametrize("argv", [["--he"], ["--help", "cohn"],
                                  ["cohn", "--z", "1", "--he"],
                                  ["cohn", "--z", "1", "-h", "--bogus"]])
def test_help_wherever_an_option_is_read(capsys, argv):
    # help ends the parse where it is read: what follows is not looked at
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    name = argv[0] if argv[0] in SUBCOMMANDS else "COMMAND"
    assert capsys.readouterr().out.startswith(
        f"usage: sl2factor {name} [options]\n")


def test_refusal_before_help_is_reported(capsys):
    code, rep = _one_line(capsys, ["cohn", "--bogus", "-h"])
    assert code == 2
    assert rep["error"]["message"] == "unrecognized arguments: --bogus"


def test_help_lists_every_subcommand_and_option(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for name, (help_text, *_) in SUBCOMMANDS.items():
        assert f"  {name} " in text and help_text in text
    for name, (_, _, options, one_of) in SUBCOMMANDS.items():
        with pytest.raises(SystemExit):
            main([name, "--help"])
        lines = capsys.readouterr().out.splitlines()
        for flag, kw in options.items():
            line = next(x for x in lines if x.startswith(f"  {flag} ")
                        or x == f"  {flag}")
            assert kw.get("help", "") in line
            if kw.get("required"):
                assert "(required)" in line
            if flag in one_of:
                assert f"(one of {' '.join(one_of)} is required)" in line
