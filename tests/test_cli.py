import json
import os
import subprocess
import sys

import pytest

from nilext import catalog, cli, tables

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_plain_entry(capsys):
    code, out, err = run(capsys, "info", "N4_17")
    assert code == 0
    assert "e1 e3 = e4" in out
    assert "derivation-type (cd): False" in out
    assert "annihilator dim: 1" in out


def test_info_needs_params_note(capsys):
    code, out, err = run(capsys, "info", "N4_42")
    assert code == 0
    assert "supply --params" in out


def test_info_with_params(capsys):
    code, out, err = run(capsys, "info", "N4_42", "--params",
                         "lambda=2,alpha=1")
    assert code == 0
    assert "N4_42(lambda=2,alpha=1)" in out


def test_info_greek_param_names(capsys):
    code, out, err = run(capsys, "info", "N4_42", "--params", "λ=2,α=1")
    assert code == 0
    assert "N4_42(lambda=2,alpha=1)" in out


def test_info_structured(capsys):
    code, out, err = run(capsys, "info", "N4_17", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == tables.SCHEMA_VERSION
    assert payload["entry"]["id"] == "N4_17"
    assert payload["computed"]["cd"] is False


def test_info_structured_row_matches_catalog_json(capsys):
    code, out, err = run(capsys, "info", "N4_43", "--format", "structured")
    assert code == 0
    rows = json.loads(catalog.catalog_json())["entries"]
    assert json.loads(out)["entry"] == next(r for r in rows
                                            if r["id"] == "N4_43")


def test_info_stub(capsys):
    code, out, err = run(capsys, "info", "D4_01")
    assert code == 0
    assert "stub" in out


def test_unknown_id_exit_2(capsys):
    code, out, err = run(capsys, "info", "N4_99")
    assert code == 2
    assert "unknown catalog id" in err


def test_bad_params_exit_2(capsys):
    code, out, err = run(capsys, "info", "N4_42", "--params", "lambda")
    assert code == 2
    code, out, err = run(capsys, "info", "N4_42", "--params",
                         "lambda=1,alpha=1")
    assert code == 2
    assert "constraint violation" in err
    code, out, err = run(capsys, "info", "N4_05", "--params",
                         "alpha=1/0,beta=1")
    assert code == 2
    assert err.startswith("error: bad parameter value 'alpha=1/0'")


def test_extend_matches_catalog_entry(capsys):
    code, out, err = run(capsys, "extend", "CD3_01", "--cocycle", "D(1,3)")
    assert code == 0
    assert "e1 e3 = e4" in out
    assert "e1 e1 = e2" in out
    assert "e2 e2 = e3" in out
    assert "derivation-type (cd): False" in out
    assert "split: False" in out


def test_extend_named_form(capsys):
    code, out, err = run(capsys, "extend", "CD3_03", "--cocycle", "N(3)")
    assert code == 0
    assert "derivation-type (cd): True" in out


def test_extend_radical_meets_annihilator(capsys):
    # D(1,2) vanishes on e3, which spans the annihilator of CD3_01.
    code, out, err = run(capsys, "extend", "CD3_01", "--cocycle", "D(1,2)",
                         "--format", "structured")
    assert code == 0
    assert json.loads(out)["split"] is None
    code, out, err = run(capsys, "extend", "CD3_01", "--cocycle", "D(1,2)")
    assert code == 0
    assert "split: undetermined (form radical meets the annihilator)" in out


def test_extend_bad_literal(capsys):
    code, out, err = run(capsys, "extend", "CD3_01", "--cocycle", "Q(1)")
    assert code == 2
    assert "bad cocycle literal" in err
    code, out, err = run(capsys, "extend", "CD3_01", "--cocycle",
                         "(1/0)*N(1)")
    assert code == 2
    assert err.startswith("error: bad cocycle literal: division by zero")


def test_classify_line_cases(capsys):
    code, out, err = run(capsys, "classify-line", "CD3_01", "--cocycle",
                         "N(1)+N(3)")
    assert code == 0 and "U1" in out
    code, out, err = run(capsys, "classify-line", "CD3_03", "--cocycle",
                         "N(3)")
    assert code == 0 and "R1" in out
    code, out, err = run(capsys, "classify-line", "CD3_01", "--cocycle",
                         "N(1)")
    assert code == 0 and "not-in-T1" in out
    code, out, err = run(capsys, "classify-line", "CD3_01", "--cocycle",
                         "D(1,1)")
    assert code == 0 and "coboundary" in out


def test_classify_line_with_lambda(capsys):
    code, out, err = run(capsys, "classify-line", "CD3_04", "--cocycle",
                         "(lambda-2)*D(1,3)-(2*lambda-1)*D(3,1)",
                         "--params", "lambda=3")
    assert code == 0
    assert "R1" in out or "not-in-T1" in out


def test_iso_witness(capsys):
    code, out, err = run(capsys, "iso", "N4_29", "N4_29", "--params",
                         "alpha=1,beta=2", "--params2", "alpha=-1,beta=2")
    assert code == 0
    assert "witness" in out


def test_iso_distinct(capsys):
    code, out, err = run(capsys, "iso", "N4_17", "N4_18")
    assert code == 0
    assert "distinct" in out


def test_iso_stub_rejected(capsys):
    code, out, err = run(capsys, "iso", "N4_17", "D4_01")
    assert code == 2


def test_orbits_needs_prime_field(capsys):
    code, out, err = run(capsys, "orbits", "CD3_01")
    assert code == 2
    assert "prime field" in err


def test_orbits_f2(capsys):
    code, out, err = run(capsys, "orbits", "CD3_01", "--field", "F2")
    assert code == 0
    assert "127 lines" in out


def test_orbits_structured(capsys):
    code, out, err = run(capsys, "orbits", "CD3_02", "--field", "F2",
                         "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["lines"] == 127
    assert sum(o["size"] for o in payload["orbits"]) == 127


def test_cohomology_command(capsys):
    code, out, err = run(capsys, "cohomology", "CD3_01")
    assert code == 0
    assert "quotient dim 7" in out
    code, out, err = run(capsys, "cohomology", "CD3_04", "--params",
                         "lambda=2", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["h2_dim"] == 7
    assert len(payload["representatives"]) == 7


def test_verify_catalog_cohomology(capsys):
    code, out, err = run(capsys, "verify-catalog", "--scope", "cohomology")
    assert code == 0
    assert "scope=cohomology checks=8 failures=0" in out


def test_verify_catalog_structured(capsys):
    code, out, err = run(capsys, "verify-catalog", "--scope", "cohomology",
                         "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == tables.SCHEMA_VERSION
    assert payload["failures"] == 0
    assert len(payload["records"]) == 8


def test_verify_catalog_all_matches_stored_report(capsys):
    """The full text report is byte-identical to the stored one."""
    code, out, err = run(capsys, "verify-catalog", "--scope", "all")
    assert code == 0
    with open(os.path.join(DATA, "verify_catalog_all.txt"),
              encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def test_verify_catalog_rejects_nonpositive_samples(capsys):
    for n in ("0", "-2"):
        code, out, err = run(capsys, "verify-catalog", "--samples", n)
        assert code == 2
        assert err == "error: sample count must be at least 1, got %s\n" % n


def test_coefficient_with_no_value_mod_p_is_an_error(capsys):
    """N4_46 excludes lambda = -1/2 and N4_47 has -5/2 entries, which have
    no value over F2: the commands exit 2 with one error line."""
    params = "lambda=0,alpha=1"
    for argv in (("info", "N4_46", "--params", params),
                 ("iso", "N4_46", "N4_46", "--params", params, "--params2",
                  params),
                 ("info", "N4_47")):
        code, out, err = run(capsys, *argv, "--field", "F2")
        assert code == 2 and out == "", err
        assert err.startswith("error: %s has no value over F2: " % argv[1])
        assert err.count("\n") == 1, err
    code, out, err = run(capsys, "info", "N4_46", "--field", "F3",
                         "--params", params)
    assert code == 0 and "N4_46(lambda=0 mod 3,alpha=1 mod 3)" in out


def test_usage_error_from_argparse():
    try:
        cli.main(["no-such-command"])
        assert False
    except SystemExit as exc:
        assert exc.code == 2


def test_max_search_only_on_commands_that_search(capsys):
    for argv in (["info", "N4_17"], ["cohomology", "CD3_01"],
                 ["extend", "CD3_01", "--cocycle", "N(1)"],
                 ["classify-line", "CD3_01", "--cocycle", "N(1)"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--max-search", "5"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --max-search 5" in \
            capsys.readouterr().err
    code, out, _ = run(capsys, "iso", "N4_17", "N4_18", "--max-search", "5")
    assert code == 0 and "distinct" in out


def test_closed_pipe_exits_without_traceback():
    """The reader closes the pipe before any output is written, as
    `nilext orbits CD3_01 --field F2 | head -2` can: the command fails
    with exit code 1 and prints no traceback."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilext.cli", "orbits", "CD3_01", "--field",
         "F2"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
