"""End-to-end command-line interface tests."""

import csv
import json

import pytest

from hermgrs.cli import main
from hermgrs.errors import InternalConsistencyError
from hermgrs.selfdual import PowerSumSystems

EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _strip_metadata(data):
    data = dict(data)
    data.pop("metadata", None)
    return data


def test_field_command(capsys):
    assert main(["field", "3", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "record: 3 1 2 2 1" in out
    assert "V = {0, θ^2, θ^6}" in out


def test_field_command_json_tables(capsys):
    assert main(["field", "2", "1", "--json", "--tables"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["q"] == 2 and data["order"] == 4
    assert data["trace_zero_set"] == [-1, 0]
    assert len(data["norm"]) == 4


def test_construct_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = main(
        ["construct", "2", "--q", "3", "--n", "3", "--extended",
         "--l", "1", "--out", str(out), "--json"]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"] == [4, 2, 3]
    assert payload["verification"] == {
        "gram_zero": True, "mds": True, "lemma_criterion": True,
    }
    assert main(["verify", str(out)]) == EXIT_OK
    assert "self-dual" in capsys.readouterr().out


def test_verify_rejects_corrupted_code(tmp_path, capsys):
    out = tmp_path / "code.json"
    main(["construct", "2", "--q", "3", "--n", "2", "--l", "1",
          "--out", str(out)])
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["code"]["multipliers"][0] = (data["code"]["multipliers"][0] + 1) % 8
    out.write_text(json.dumps(data))
    assert main(["verify", str(out), "--json"]) == EXIT_NEGATIVE
    result = json.loads(capsys.readouterr().out)
    assert result["self_dual"] is False
    assert "gram" in result  # failure report includes the Gram matrix


def test_verify_rejects_out_of_range_dlogs(tmp_path, capsys):
    """Locators 10 and 14 and a multiplier -7 in GF(9) would wrap to
    locators 2 and 6 and multiplier theta; they are input errors."""
    out = tmp_path / "code.json"
    main(["construct", "2", "--q", "3", "--n", "2", "--l", "1",
          "--out", str(out)])
    data = json.loads(out.read_text())
    data["code"]["locators"] = [10, 14]
    data["code"]["multipliers"][0] = -7
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out), "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "discrete log" in captured.err


def _break_key(key, value):
    def edit(data):
        data["code"][key] = value
        return data
    return edit


def _drop_key(key):
    def edit(data):
        del data["code"][key]
        return data
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_break_key("k", "2"), "'k' must be int, got str"),
        (_drop_key("locators"), "no 'locators'"),
        (_break_key("field", ""), "needs at least p and m"),
        (_break_key("locators", 7), "'locators' must be list, got int"),
        (lambda data: [data], "JSON object"),
    ],
    ids=["k-string", "no-locators", "empty-field", "locators-int", "top-level-list"],
)
def test_verify_malformed_file_is_input_error(tmp_path, capsys, edit, message):
    """A code file of the wrong shape exits 2 with a message, not with a
    traceback or exit 1 (the "not self-dual" code)."""
    out = tmp_path / "code.json"
    main(["construct", "2", "--q", "3", "--n", "2", "--l", "1",
          "--out", str(out)])
    out.write_text(json.dumps(edit(json.loads(out.read_text()))))
    capsys.readouterr()
    assert main(["verify", str(out), "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_construct_theorem1_and_3(capsys):
    assert main(
        ["construct", "1", "--q", "4", "--e", "3", "--b", "zero", "--n", "4",
         "--json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verification"]["gram_zero"] is True
    assert main(
        ["construct", "3", "--q", "5", "--l", "2", "--m", "1", "--n", "4",
         "--json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"] == [4, 2, 3]


def test_construct_input_errors(capsys):
    # missing family parameters
    assert main(["construct", "1", "--q", "3", "--n", "2"]) == EXIT_INPUT
    # hypothesis violation: n > q
    assert main(["construct", "2", "--q", "3", "--l", "1", "--n", "4"]) == EXIT_INPUT
    capsys.readouterr()


def test_search_positive_and_negative(capsys):
    assert main(
        ["search", "--q", "3", "--locators", "zero", "2", "--json"]
    ) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["exists"] is True
    assert data["code"]["multipliers"] == [0, 1]
    assert main(
        ["search", "--q", "3", "--locators", "0", "1", "2", "3", "4", "5"]
    ) == EXIT_NEGATIVE
    assert "none" in capsys.readouterr().out


def test_search_bad_token(capsys):
    assert main(["search", "--q", "3", "--locators", "spam"]) == EXIT_INPUT
    capsys.readouterr()


def test_search_rejects_out_of_range_dlog(capsys):
    """In GF(9) the logs run over 0..7; 9 is not read as theta^1."""
    assert main(["search", "--q", "3", "--locators", "9", "2"]) == EXIT_INPUT
    assert main(["search", "--q", "3", "--locators", "-2", "2"]) == EXIT_INPUT
    assert "discrete log" in capsys.readouterr().err
    assert main(["search", "--q", "3", "--locators", "-1", "7"]) != EXIT_INPUT
    capsys.readouterr()


def test_scan_reports(tmp_path, capsys):
    out = tmp_path / "scan.json"
    csv_path = tmp_path / "scan.csv"
    rc = main(
        ["scan", "--q", "3", "--n", "6", "--pool", "all-nonzero",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert rc == EXIT_OK
    assert "tested=28 exists=0 none=28" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["totals"] == {"tested": 28, "exists": 0, "none": 28}
    assert data["metadata"]["parameters"]["pool"] == "all-nonzero"
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["locators", "exists", "multipliers"]
    assert len(rows) == 29
    assert all(r[1] == "0" for r in rows[1:])


def test_scan_deterministic_modulo_timestamp(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["scan", "--q", "3", "--n", "2", "--pool", "trace-zero",
              "--out", str(out)])
        outs.append(_strip_metadata(json.loads(out.read_text())))
    assert outs[0] == outs[1]


def test_scan_workers_match_sequential(tmp_path):
    reports = []
    for workers, name in (("1", "seq.json"), ("2", "par.json")):
        out = tmp_path / name
        main(["scan", "--q", "3", "--n", "4", "--pool", "subfield-union-trace-zero",
              "--workers", workers, "--out", str(out)])
        reports.append(_strip_metadata(json.loads(out.read_text())))
    assert reports[0] == reports[1]


def test_scan_family_pools(capsys):
    assert main(["scan", "--q", "3", "--n", "2", "--pool", "b:2"]) == EXIT_OK
    assert "tested=3" in capsys.readouterr().out
    assert main(["scan", "--q", "3", "--n", "2", "--pool", "blm:2:1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["scan", "--q", "3", "--n", "2", "--pool", "s:0:zero"]) == EXIT_OK
    capsys.readouterr()


def test_scan_bad_pool(capsys):
    assert main(["scan", "--q", "3", "--n", "2", "--pool", "nonsense"]) == EXIT_INPUT
    capsys.readouterr()


def test_budget_exit_code(capsys):
    # the n=2 power-sum system always has a one-dimensional kernel, so a
    # budget of 1 cannot cover the 3-element coset
    rc = main(["search", "--q", "3", "--locators", "0", "1", "--budget", "1"])
    assert rc == EXIT_BUDGET
    capsys.readouterr()


def test_internal_consistency_exit_code(monkeypatch, capsys):
    """A failed internal re-check is a library fault, not an input error."""

    def broken(self, locators, budget=None):
        raise InternalConsistencyError("re-check failed")

    monkeypatch.setattr(PowerSumSystems, "find", broken)
    rc = main(["search", "--q", "3", "--locators", "zero", "2"])
    assert rc == EXIT_INTERNAL
    assert "re-check failed" in capsys.readouterr().err


def test_conjecture_sweep(capsys):
    assert main(["conjecture", "--q", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "violations of 'span & exists => n <= 4': 0" in out
    assert main(["conjecture", "--q", "3", "--extended"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "violations of 'span & exists => n <= 3': 0" in out


def test_conjecture_single_length_json(capsys):
    assert main(["conjecture", "--q", "3", "--n", "2", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    rows = {r["pool"]: r for r in report["results"]}
    assert rows["subgroup"]["tested"] == 6
    assert rows["subgroup"]["span_and_exists"] == 6
    assert rows["subfield"]["tested"] == 3
