import json
import os
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import run_subprocess
from primeframes import (FrameMatrix, HtfParams, analyze_fast, coherence, htf,
                         plan, prime_parseval_extension, random_tight_frame,
                         stf)
from primeframes.cli import build_parser, main
from primeframes.io import (frame_from_csv, frame_from_json_obj, frame_to_csv,
                            frame_to_json, read_frame, read_vector,
                            vector_from_json_obj, vector_to_csv,
                            vector_to_json, write_frame, write_vector)

GRID_2_6_CSV = """\
n,m,htf_prime,htf_prime_brute,stf_divisible,stf_divisible_brute,stf_lowred_feasible
2,2,true,true,,,
2,3,true,true,,,true
2,4,false,false,true,true,
2,5,true,true,true,true,
2,6,false,false,true,true,
"""

ROOT = os.path.dirname(os.path.dirname(__file__))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh_parser(capsys, argv):
    args = build_parser().parse_args(argv)
    code = args.handler(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reused_across_calls_in_one_process(capsys):
    # main keeps one parser per process: a usage error, then different
    # subcommands in a row, must print what a newly built parser prints,
    # with no option carried over from one call to the next
    with pytest.raises(SystemExit) as exc:
        main(["sets", "--n", "3"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err
    for argv in (["htf", "--n", "2", "--m", "4", "--format", "csv"],
                 ["sets", "--n", "3", "--m", "24"],
                 ["htf", "--n", "2", "--m", "4"]):
        assert run_cli(capsys, argv) == run_fresh_parser(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


# per subcommand: a minimal valid argv, its usage line at 200 columns, and
# the options it parses to, in the order the parser declares them
CLI_SURFACE = [
    (["htf", "--n", "2", "--m", "4"],
     "usage: primeframes htf [-h] --n N --m M [--s S] [--format {json,csv}] "
     "[--output OUTPUT]",
     "command='htf', n=2, m=4, s=1.0, format=None, output=None"),
    (["stf", "--n", "4", "--m", "11"],
     "usage: primeframes stf [-h] --n N --m M [--format {json,csv}] "
     "[--output OUTPUT]",
     "command='stf', n=4, m=11, format=None, output=None"),
    (["random", "--n", "3", "--m", "8", "--seed", "0"],
     "usage: primeframes random [-h] --n N --m M --seed SEED "
     "[--format {json,csv}] [--output OUTPUT]",
     "command='random', n=3, m=8, seed=0, format=None, output=None"),
    (["extendprime", "--n", "3", "--m", "7"],
     "usage: primeframes extendprime [-h] --n N --m M [--format {json,csv}] "
     "[--output OUTPUT]",
     "command='extendprime', n=3, m=7, format=None, output=None"),
    (["analyze", "--input", "f.json"],
     "usage: primeframes analyze [-h] [--force] [--output OUTPUT] "
     "--input INPUT [--tol TOL] [--factor]",
     "command='analyze', force=False, output=None, input='f.json', "
     "tol=1e-09, factor=False"),
    (["factor", "--input", "f.json"],
     "usage: primeframes factor [-h] [--force] [--output OUTPUT] "
     "--input INPUT [--tol TOL] [--all-minimal]",
     "command='factor', force=False, output=None, input='f.json', "
     "tol=1e-09, all_minimal=False"),
    (["sets", "--n", "3", "--m", "24"],
     "usage: primeframes sets [-h] --n N --m M [--output OUTPUT]",
     "command='sets', n=3, m=24, output=None"),
    (["transform", "--n", "2", "--m", "10", "--p", "5", "--analyze",
      "--input", "x.json"],
     "usage: primeframes transform [-h] --n N --m M --p P "
     "(--analyze | --synthesize) --input INPUT [--format {json,csv}] "
     "[--output OUTPUT]",
     "command='transform', n=2, m=10, p=5, analyze=True, synthesize=False, "
     "input='x.json', format=None, output=None"),
    (["grid", "--nmax", "3", "--mmax", "12"],
     "usage: primeframes grid [-h] [--force] [--output OUTPUT] "
     "--nmax NMAX --mmax MMAX [--format {json,csv}]",
     "command='grid', force=False, output=None, nmax=3, mmax=12, "
     "format=None"),
]


@pytest.mark.parametrize("argv, usage, options", CLI_SURFACE,
                         ids=[argv[0] for argv, _, _ in CLI_SURFACE])
def test_cli_surface_is_pinned(capsys, monkeypatch, argv, usage, options):
    # a dropped, renamed or reordered option changes the usage line, and
    # a new default changes the parsed options; the handler functions
    # that set_defaults attaches are not options and are left out
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == usage
    parsed = vars(build_parser().parse_args(argv))
    assert ", ".join("%s=%r" % item for item in parsed.items()
                     if not callable(item[1])) == options


def test_htf_json_to_stdout(capsys):
    code, out, err = run_cli(capsys, ["htf", "--n", "2", "--m", "4"])
    assert code == 0 and err == ""
    phi = frame_from_json_obj(json.loads(out))
    assert np.array_equal(phi.entries, htf(HtfParams(2, 4)).entries)


def test_htf_csv_to_stdout(capsys):
    code, out, _ = run_cli(capsys, ["htf", "--n", "2", "--m", "3",
                                    "--format", "csv"])
    assert code == 0
    phi = frame_from_csv(out)
    assert np.array_equal(phi.entries, htf(HtfParams(2, 3)).entries)


def test_stf_written_to_file(tmp_path, capsys):
    path = os.path.join(tmp_path, "out.csv")
    code, out, _ = run_cli(capsys, ["stf", "--n", "4", "--m", "11",
                                    "--format", "csv", "--output", path])
    assert code == 0 and out == ""
    assert np.array_equal(read_frame(path).entries, stf(4, 11).entries)


# (argv without --output, the frame it writes)
FRAME_ARGVS = [
    (["htf", "--n", "2", "--m", "5"], htf(HtfParams(2, 5))),
    (["stf", "--n", "4", "--m", "11"], stf(4, 11)),
    (["random", "--n", "3", "--m", "8", "--seed", "0"],
     random_tight_frame(3, 8, 0)),
    (["extendprime", "--n", "3", "--m", "7"], prime_parseval_extension(3, 7)),
]
WRITERS = {"json": (frame_to_json, vector_to_json),
           "csv": (frame_to_csv, vector_to_csv)}


@pytest.mark.parametrize("ext", ["json", "csv", "CSV"])
@pytest.mark.parametrize("argv, phi", FRAME_ARGVS,
                         ids=[argv[0] for argv, _ in FRAME_ARGVS])
def test_frame_output_takes_the_form_its_extension_names(
        tmp_path, capsys, argv, phi, ext):
    path = os.path.join(tmp_path, "frame." + ext)
    assert run_cli(capsys, argv + ["--output", path]) == (0, "", "")
    with open(path) as handle:
        assert handle.read() == WRITERS[ext.lower()][0](phi)
    back = read_frame(path)
    assert back.field == phi.field
    assert back.entries.tobytes() == phi.entries.tobytes()
    code, out, err = run_cli(capsys, ["analyze", "--input", path])
    assert code == 0 and err == ""
    assert json.loads(out)["m"] == phi.m


@pytest.mark.parametrize("ext", ["json", "csv", "CSV"])
def test_transform_output_takes_the_form_its_extension_names(
        tmp_path, capsys, monkeypatch, ext):
    monkeypatch.chdir(tmp_path)
    x = np.array([1.0, -0.5])
    write_vector(x, "x.json")
    argv = ["transform", "--n", "2", "--m", "10", "--p", "5"]
    assert run_cli(capsys, argv + ["--analyze", "--input", "x.json",
                                   "--output", "c." + ext]) == (0, "", "")
    with open("c." + ext) as handle:
        assert handle.read() == WRITERS[ext.lower()][1](
            analyze_fast(plan(2, 10, 5), x))
    code, out, _ = run_cli(capsys, argv + ["--synthesize",
                                           "--input", "c." + ext])
    assert code == 0
    back = vector_from_json_obj(json.loads(out))
    assert np.max(np.abs(back - x)) < 1e-12


@pytest.mark.parametrize("ext", ["json", "csv", "CSV"])
def test_grid_output_takes_the_form_its_extension_names(tmp_path, capsys,
                                                        ext):
    path = os.path.join(tmp_path, "grid." + ext)
    argv = ["grid", "--nmax", "2", "--mmax", "6"]
    assert run_cli(capsys, argv + ["--output", path]) == (0, "", "")
    with open(path) as handle:
        text = handle.read()
    if ext == "json":
        assert text == run_cli(capsys, argv)[1]
    else:
        assert text.startswith(GRID_2_6_CSV.splitlines()[0] + "\n")
        assert text == GRID_2_6_CSV


@pytest.mark.parametrize("argv", [
    ["htf", "--n", "2", "--m", "4", "--output", "f.txt"],
    ["htf", "--n", "2", "--m", "4", "--format", "csv", "--output", "f.json"],
    ["stf", "--n", "2", "--m", "5", "--format", "json", "--output", "f.CSV"],
    ["transform", "--n", "2", "--m", "10", "--p", "5", "--analyze",
     "--input", "x.json", "--format", "json", "--output", "c.csv"],
    ["grid", "--nmax", "2", "--mmax", "6", "--format", "csv",
     "--output", "g.json"],
    ["grid", "--nmax", "2", "--mmax", "6", "--output", "g"],
], ids=["htf-txt", "htf-csv-json", "stf-json-CSV", "transform-json-csv",
        "grid-csv-json", "grid-none"])
def test_output_form_that_cannot_be_written_is_refused(tmp_path, capsys,
                                                       monkeypatch, argv):
    # an unknown extension, or a --format that disagrees with it, is one
    # error line, and no file is left behind
    monkeypatch.chdir(tmp_path)
    write_vector(np.array([1.0, 0.0]), "x.json")
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert sorted(os.listdir(tmp_path)) == ["x.json"]


def test_stf_low_redundancy_flag(capsys):
    # stf builds every n < m < 2n where the construction exists, so the
    # flag that once chose that construction is gone: a usage error
    code, out, _ = run_cli(capsys, ["stf", "--n", "4", "--m", "7"])
    assert code == 0
    assert np.array_equal(frame_from_json_obj(json.loads(out)).entries,
                          stf(4, 7).entries)
    with pytest.raises(SystemExit) as exc:
        main(["stf", "--n", "4", "--m", "7", "--low-redundancy"])
    assert exc.value.code == 2
    assert "--low-redundancy" in capsys.readouterr().err


def test_stf_infeasible_shape_fails(capsys):
    for n, m in ((5, 7), (3, 4)):
        code, _, err = run_cli(capsys, ["stf", "--n", str(n), "--m", str(m)])
        assert code == 1 and err.startswith("error:")


def test_overflowing_frame_operator_is_one_error_line(tmp_path, capsys):
    # 1e200 I_2 is tight, but its frame operator overflows: numpy's
    # overflow and invalid-value warnings once reached stderr ahead of a
    # "residual nan" error, or ended in a traceback under -W error
    path = os.path.join(tmp_path, "big.json")
    with open(path, "w") as handle:
        json.dump({"n": 2, "m": 2, "field": "real",
                   "columns": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]},
                  handle)
    for command in ("analyze", "factor"):
        code, out, err = run_cli(capsys, [command, "--input", path])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_htf_infinite_s_is_one_error_line():
    # s = inf must be refused before any entry is computed, so that no
    # numpy warning reaches stderr ahead of the error line
    proc = run_subprocess([sys.executable, "-m", "primeframes", "htf",
                           "--n", "2", "--m", "3", "--s", "inf"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: s must be positive and finite\n"


def test_random_is_deterministic(capsys):
    args = ["random", "--n", "3", "--m", "8", "--seed", "5"]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["field"] == "real"


def test_extendprime_output(capsys):
    code, out, _ = run_cli(capsys, ["extendprime", "--n", "3", "--m", "7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["m"] == 7


def test_analyze_payload(tmp_path, capsys):
    path = os.path.join(tmp_path, "frame.json")
    phi = htf(HtfParams(2, 10))
    write_frame(phi, path)
    code, out, _ = run_cli(capsys, ["analyze", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["is_tight"] is True
    assert abs(payload["bound"] - 5.0) < 1e-12
    assert payload["tol"] == 1e-9
    assert abs(payload["coherence"] - coherence(phi)) < 1e-15
    assert payload["is_unit_norm"] is True
    assert payload["is_equiangular"] is False
    assert "factors" not in payload
    code, out, _ = run_cli(capsys, ["analyze", "--input", path, "--factor"])
    payload = json.loads(out)
    assert payload["factors"] == [[1, 6], [2, 7], [3, 8], [4, 9], [5, 10]]
    assert np.allclose(payload["bounds"], 1.0)


def test_analyze_rejects_non_tight_input(tmp_path, capsys):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as handle:
        handle.write("1+0j,0+0j,1+0j\n0+0j,1+0j,1+0j\n")
    code, out, err = run_cli(capsys, ["analyze", "--input", path])
    assert code == 1 and out == ""
    assert err.startswith("error: input is not a tight frame")
    # analyze and the searches refuse a frame that is not tight alike
    assert run_cli(capsys, ["factor", "--input", path]) == (code, out, err)
    assert err == ("error: input is not a tight frame (residual 4.472e-01, "
                   "tol 1.0e-09)\n")


def test_analyze_of_fewer_vectors_than_dimensions_has_no_welch_bound(
        tmp_path, capsys):
    # three coordinate vectors of R^3 cut to two columns: tight at tol 0.6
    path = os.path.join(tmp_path, "short.json")
    write_frame(FrameMatrix.from_columns([(1, 0, 0), (0, 1, 0)]), path)
    code, out, _ = run_cli(capsys, ["analyze", "--input", path,
                                    "--tol", "0.6"])
    payload = json.loads(out)
    assert code == 0 and payload["m"] == 2 and payload["n"] == 3
    assert payload["welch_bound"] is None


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--input", "/nonexistent.json"])
    assert code == 1 and err.startswith("error:")


def test_unknown_input_extension_names_the_formats_read(tmp_path, capsys,
                                                       monkeypatch):
    # no subcommand can name a format, so the error names the extensions
    monkeypatch.chdir(tmp_path)
    for argv in (ANALYZE + ["frame.txt"], TRANSFORM + ["frame.txt"]):
        assert run_cli(capsys, argv) == (
            1, "", "error: cannot infer format from 'frame.txt': expected a "
                   ".json or .csv extension\n")


def test_analyze_factor_reports_a_complement_that_fails(tmp_path, capsys):
    # tight at 1e-3, yet the complement of the first accepted pair is not
    path = os.path.join(tmp_path, "frame.json")
    write_frame(FrameMatrix.from_array(
        np.array([[10, 0, 1, 0.05], [0, 10, 0, 1.0]])), path)
    argv = ["analyze", "--input", path, "--tol", "1e-3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["is_tight"] is True
    assert run_cli(capsys, argv + ["--factor"]) == (
        1, "", "error: complement failed its tightness check\n")


def test_analyze_rejects_non_finite_csv(tmp_path, capsys):
    path = os.path.join(tmp_path, "nan.csv")
    with open(path, "w") as handle:
        handle.write("1+0j,nan+0j\n0+0j,1+0j\n")
    code, out, err = run_cli(capsys, ["analyze", "--input", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_analyze_rejects_malformed_json_without_traceback(tmp_path, capsys):
    for text, field in (('{"m": 2}', "'n'"), ("[1, 2]", "JSON object")):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as handle:
            handle.write(text)
        code, out, err = run_cli(capsys, ["analyze", "--input", path])
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


def perturbed_frame_path(tmp_path):
    entries = htf(HtfParams(2, 4)).entries.copy()
    entries[0, 0] += 1e-5
    path = os.path.join(tmp_path, "near.json")
    write_frame(FrameMatrix.from_array(entries), path)
    return path


def test_analyze_tol_flag_loosens_check(tmp_path, capsys):
    path = perturbed_frame_path(tmp_path)
    code, _, err = run_cli(capsys, ["analyze", "--input", path])
    assert code == 1 and "not a tight frame" in err
    code, out, _ = run_cli(capsys, ["analyze", "--input", path,
                                    "--tol", "1e-3"])
    assert code == 0 and json.loads(out)["tol"] == 1e-3


def test_frames_tol_in_the_environment_is_ignored(tmp_path, capsys,
                                                  monkeypatch):
    # only --tol sets the tolerance: a loose or unparsable FRAMES_TOL
    # leaves every byte of the output as it is without one
    path = perturbed_frame_path(tmp_path)
    monkeypatch.delenv("FRAMES_TOL", raising=False)
    unset = run_cli(capsys, ["analyze", "--input", path])
    assert unset[0] == 1 and "not a tight frame" in unset[2]
    for raw in ("1e-3", "abc"):
        monkeypatch.setenv("FRAMES_TOL", raw)
        assert run_cli(capsys, ["analyze", "--input", path]) == unset


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_tol_is_an_error(tmp_path, capsys, raw):
    path = perturbed_frame_path(tmp_path)
    for sub in ("analyze", "factor"):
        code, out, err = run_cli(capsys, [sub, "--input", path,
                                          "--tol=" + raw])
        assert code == 1 and out == ""
        assert err == "error: tol must be positive and finite\n"


def test_factor_command(tmp_path, capsys):
    path = os.path.join(tmp_path, "frame.json")
    write_frame(htf(HtfParams(2, 10)), path)
    code, out, _ = run_cli(capsys, ["factor", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [[1, 6], [2, 7], [3, 8], [4, 9], [5, 10]]
    assert "size_multisets" not in payload
    code, out, _ = run_cli(capsys, ["factor", "--input", path,
                                    "--all-minimal"])
    payload = json.loads(out)
    assert payload["size_multisets"] == [[2, 2, 2, 2, 2], [5, 5]]


def test_factor_over_the_cap_runs_with_force(tmp_path, capsys):
    # htf(2, 30) costs 2^27 + 1024 reduction rows, over the search cap;
    # forced, it splits into 15 pairs in milliseconds
    path = os.path.join(tmp_path, "frame.json")
    code, _, _ = run_cli(capsys, ["htf", "--n", "2", "--m", "30",
                                  "--output", path])
    assert code == 0
    for argv in (["factor", "--input", path],
                 ["analyze", "--input", path, "--factor"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: over the search cap")
        assert "force it to run anyway" in err
        code, out, _ = run_cli(capsys, argv + ["--force"])
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == [[i, i + 15] for i in range(1, 16)]


def test_sets_command(capsys):
    code, out, _ = run_cli(capsys, ["sets", "--n", "3", "--m", "24"])
    assert code == 0
    payload = json.loads(out)
    assert payload["D"] == [3, 4, 6, 8, 12]
    assert payload["P"] == [3, 4]
    assert payload["S"] == [s for s in range(3, 22) if s not in (5, 19)]
    assert payload["prime_factorization"] == [[2, 3], [3, 1]]


def test_transform_analyze_then_synthesize(tmp_path, capsys):
    x = np.array([1.0, 0.0])
    xpath = os.path.join(tmp_path, "x.json")
    write_vector(x, xpath)
    code, out, _ = run_cli(capsys, ["transform", "--n", "2", "--m", "4",
                                    "--p", "2", "--analyze",
                                    "--input", xpath])
    assert code == 0
    coeffs_obj = json.loads(out)
    coeffs = np.array([complex(re, im) for re, im in coeffs_obj["entries"]])
    assert np.max(np.abs(coeffs - 1 / np.sqrt(2))) < 1e-12
    cpath = os.path.join(tmp_path, "c.json")
    with open(cpath, "w") as handle:
        handle.write(out)
    code, out, _ = run_cli(capsys, ["transform", "--n", "2", "--m", "4",
                                    "--p", "2", "--synthesize",
                                    "--input", cpath])
    assert code == 0
    back = np.array([complex(re, im) for re, im in json.loads(out)["entries"]])
    assert np.max(np.abs(back - x)) < 1e-12


def test_transform_csv_output(tmp_path, capsys):
    xpath = os.path.join(tmp_path, "x.csv")
    write_vector(np.array([1.0, 2.0]), xpath)
    code, out, _ = run_cli(capsys, ["transform", "--n", "2", "--m", "10",
                                    "--p", "5", "--analyze", "--input", xpath,
                                    "--format", "csv"])
    assert code == 0
    assert len(read_vector(os.path.join(tmp_path, "x.csv"))) == 2
    coeffs = np.array([complex(tok) for tok in out.strip().split(",")])
    assert coeffs.shape == (10,)


def test_transform_rejects_bad_factor_size(tmp_path, capsys):
    xpath = os.path.join(tmp_path, "x.json")
    write_vector(np.array([1.0, 0.0]), xpath)
    code, _, err = run_cli(capsys, ["transform", "--n", "2", "--m", "10",
                                    "--p", "3", "--analyze", "--input", xpath])
    assert code == 1 and "minimal divisor" in err
    code, _, err = run_cli(capsys, ["transform", "--n", "2", "--m", "0",
                                    "--p", "1", "--analyze", "--input", xpath])
    assert code == 1 and err == "error: need n >= 1 and m >= 1\n"


def test_transform_requires_exactly_one_direction(tmp_path):
    xpath = os.path.join(tmp_path, "x.json")
    write_vector(np.array([1.0, 0.0]), xpath)
    with pytest.raises(SystemExit) as err:
        main(["transform", "--n", "2", "--m", "4", "--p", "2",
              "--input", xpath])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["transform", "--n", "2", "--m", "4", "--p", "2", "--analyze",
              "--synthesize", "--input", xpath])
    assert err.value.code == 2


def test_grid_csv_golden(capsys):
    code, out, _ = run_cli(capsys, ["grid", "--nmax", "2", "--mmax", "6",
                                    "--format", "csv"])
    assert code == 0
    assert out == GRID_2_6_CSV


def test_grid_json_shape(capsys):
    code, out, _ = run_cli(capsys, ["grid", "--nmax", "3", "--mmax", "8"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == len([
        (n, m) for n in (2, 3) for m in range(n, 9)])
    for row in rows:
        assert row["htf_prime"] == row["htf_prime_brute"]
        if row["stf_divisible"] is not None:
            assert row["stf_divisible"] == row["stf_divisible_brute"]


def test_grid_refuses_oversized_sweep(capsys):
    # htf(2, 28) takes 2^25 + 1024 reduction rows, over the search cap
    code, _, err = run_cli(capsys, ["grid", "--nmax", "2", "--mmax", "28"])
    assert code == 1 and "cap" in err
    code, _, err = run_cli(capsys, ["grid", "--nmax", "1", "--mmax", "6"])
    assert code == 1


def test_failed_allocations_end_in_an_error_line(capsys):
    # each asks for far more memory than any machine has: 4 EiB of
    # booleans for the reachable sums, 7 TiB for the harmonic powers
    for argv in (["sets", "--n", "2", "--m", "4611686018427387904"],
                 ["htf", "--n", "2", "--m", "1000000000000"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "allocate" in err


def test_usage_errors_exit_with_two(capsys):
    for argv in ([], ["bogus"], ["htf", "--n", "2"],
                 ["htf", "--n", "2", "--m", "x"],
                 ["bench", "--n", "2", "--m", "6", "--p", "2", "--trials", "2",
                  "--seed", "0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_domain_errors_exit_with_one(capsys):
    code, _, err = run_cli(capsys, ["htf", "--n", "3", "--m", "2"])
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(capsys, ["random", "--n", "3", "--m", "2",
                                    "--seed", "0"])
    assert code == 1
    assert run_cli(capsys, ["random", "--n", "2", "--m", "5",
                            "--seed", "-1"]) == (
        1, "", "error: seed must be non-negative\n")


def test_module_entry_point():
    proc = run_subprocess(
        [sys.executable, "-m", "primeframes", "sets", "--n", "2", "--m", "9"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["D"] == [3]


def test_library_and_cli_import_no_test_dependency():
    # pyproject.toml declares numpy as the only dependency; the suite's
    # scipy and hypothesis are made unimportable in a child interpreter
    code = ("import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "import primeframes, primeframes.cli\n"
            "sys.exit(primeframes.cli.main(['sets', '--n', '3', '--m', '24']))\n")
    proc = run_subprocess([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["m"] == 24


def write_declared_console_script(tmp_path):
    """Write the launcher pip installs for the `primeframes` command that
    pyproject.toml declares, so the declaration is tested without an install."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["primeframes"]
    module, attr = target.split(":")
    path = tmp_path / "primeframes"
    path.write_text("#!%s\nimport sys\nfrom %s import %s\nsys.exit(%s())\n"
                    % (sys.executable, module, attr, attr))
    path.chmod(0o755)
    return str(path)


def test_console_script_installed(tmp_path):
    scripts = [write_declared_console_script(tmp_path)]
    installed = shutil.which("primeframes")
    if installed is not None:
        scripts.append(installed)
    for exe in scripts:
        # sys.exit(main()) is where main's return value becomes the exit code
        proc = run_subprocess([exe, "htf", "--n", "2", "--m", "3"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == 3
        proc = run_subprocess([exe, "htf", "--n", "3", "--m", "2"])
        assert proc.returncode == 1 and proc.stderr.startswith("error:")
        assert run_subprocess([exe, "bogus"]).returncode == 2


def readme_commands() -> list:
    """The lines of the sh block under README's "## Command line", with
    comment and blank lines dropped."""
    with open(os.path.join(ROOT, "README.md")) as handle:
        text = handle.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def test_readme_command_block_runs(tmp_path, capsys, monkeypatch):
    # every line, in order, from an empty directory; primeframes lines go
    # through cli.main and the rest through sh
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert any(line.startswith("primeframes transform") for line in commands)
    for line in commands:
        argv = shlex.split(line, comments=True)
        if argv[0] == "primeframes":
            code, _, err = run_cli(capsys, argv[1:])
        else:
            proc = subprocess.run(line, shell=True, capture_output=True,
                                  text=True)
            code, err = proc.returncode, proc.stderr
        assert code == 0, (line, err)


def fuzzed_copies(text: bytes, rng) -> list:
    """Every 7th truncation of ``text`` and 150 copies with one byte
    replaced by a random other byte."""
    copies = [text[:k] for k in range(0, len(text), 7)]
    for _ in range(150):
        k = int(rng.integers(len(text)))
        flipped = text[k] ^ int(rng.integers(1, 256))
        copies.append(text[:k] + bytes([flipped]) + text[k + 1:])
    return copies


def assert_error_or_success(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code in (0, 1), argv
    if code == 1:
        assert err.startswith("error:") and "Traceback" not in err


ANALYZE = ["analyze", "--input"]
TRANSFORM = ["transform", "--n", "2", "--m", "4", "--p", "2", "--analyze",
             "--input"]


def test_cli_readers_survive_fuzzed_files(tmp_path, capsys):
    rng = np.random.default_rng(20260)
    seeds = []
    for name, write, obj, argv in (
            ("f.json", write_frame, stf(3, 7), ANALYZE),
            ("f.csv", write_frame, htf(HtfParams(2, 5)), ANALYZE),
            ("v.json", write_vector, np.array([0.5, -1.25j]), TRANSFORM),
            ("v.csv", write_vector, np.array([1 / 3, 2.5 + 1j]), TRANSFORM)):
        path = os.path.join(tmp_path, name)
        write(obj, path)
        with open(path, "rb") as handle:
            seeds.append((path, handle.read(), argv))
    for path, text, argv in seeds:
        for fuzzed in fuzzed_copies(text, rng):
            with open(path, "wb") as handle:
                handle.write(fuzzed)
            assert_error_or_success(capsys, argv + [path])


HOSTILE_FILES = {
    "big.json": '{"n": 1, "m": 1, "field": "real", "columns": [[[1%s, 0]]]}'
                % ("0" * 400),
    "bigv.json": '{"n": 2, "entries": [[1, 0], [0, -1%s]]}' % ("0" * 400),
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "nan.json": '{"n": 2, "entries": [[NaN, 0], [1, 0]]}',
    "nan.csv": "nan+0j,1+0j\n",
    "zero.json": '{"n": 0, "m": 1, "field": "real", "columns": [[]]}',
    "zerov.json": '{"n": 0, "entries": []}',
    "bytes.json": b'{"n": 2, "entries": [[1, 0], [\xff\xfe, 0]]}',
    "bytes.csv": b"1+0j,\xc3\x28+0j\n",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
def test_cli_readers_reject_hostile_files(tmp_path, capsys, name):
    text = HOSTILE_FILES[name]
    path = os.path.join(tmp_path, name)
    with open(path, "wb") as handle:
        handle.write(text if isinstance(text, bytes) else text.encode())
    for argv in (ANALYZE, TRANSFORM):
        code, out, err = run_cli(capsys, argv + [path])
        assert code == 1 and out == "" and err.startswith("error:")
    if name.startswith("nan"):
        assert "finite" in err and "serialize" not in err
