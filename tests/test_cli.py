"""End-to-end CLI tests driving main() in process."""

import json
import time

import pytest

from davlab.cli import main, parse_weights


def run_cli(capsys, *argv):
    """Invoke main(), normalizing SystemExit into a return code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_davenport_json_payload(capsys):
    code, out, _ = run_cli(capsys, "davenport", "--group", "8", "--weights", "1,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4
    assert len(payload["witness"]) == 3
    assert payload["nodes"] >= 1
    assert "elapsed_ms" in payload


def test_davenport_pretty(capsys):
    code, out, _ = run_cli(capsys, "davenport", "--group", "7", "--weights", "1", "--pretty")
    assert code == 0
    assert "D_A(Z7) = 7" in out
    assert "witness:" in out


def test_davenport_product_group(capsys):
    code, out, _ = run_cli(capsys, "davenport", "--group", "2x4", "--weights", "1,3")
    assert code == 0
    assert json.loads(out)["value"] >= 2


def test_davenport_max(capsys):
    code, out, _ = run_cli(capsys, "davenport-max", "--p", "7", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4
    assert len(payload["argmax"]) == 2


def test_fd_finite(capsys):
    code, out, _ = run_cli(capsys, "fd", "--group", "9", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "FINITE"
    assert payload["value"] == 2


def test_fd_infinite_is_success(capsys):
    # a definite negative answer is still a completed computation
    code, out, _ = run_cli(capsys, "fd", "--group", "2x2", "--k", "2")
    assert code == 0
    assert json.loads(out)["status"] == "INFINITE"


def test_fd_budget_exit(capsys):
    code, out, _ = run_cli(capsys, "fd", "--group", "31", "--k", "2", "--max-nodes", "50")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "UNKNOWN"
    assert payload["value"] is None


def test_fd_reports_bounded_checks(capsys, tmp_path):
    log_path = tmp_path / "fd.jsonl"
    code, out, _ = run_cli(capsys, "fd", "--group", "31", "--k", "3", "--log", str(log_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4 and payload["candidates"] == 162
    # the other candidates were refuted by the culprits of failed checks
    assert 0 < payload["checks"] < payload["candidates"]
    assert payload["nodes"] > 0
    record = json.loads(log_path.read_text())
    assert record["result"]["checks"] == payload["checks"]


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--p", "31", "--k", "2", "--theta", "0.3:0.3:1", "--trials", "1", "--omega", "nan"),
        ("sweep", "--p", "31", "--k", "2", "--theta", "0.3:0.3:1", "--trials", "1", "--omega", "inf"),
        ("fd", "--group", "31", "--k", "3", "--max-seconds", "nan"),
        ("construct", "quartic", "--p", "101", "--c0", "inf"),
    ],
)
def test_non_finite_settings_are_usage_errors(capsys, argv):
    # NaN would print as invalid JSON, or run a budget that never trips
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fd", "--group", "31", "--k", "3", "--max-seconds", "-1"),
        ("fd", "--group", "31", "--k", "3", "--max-nodes", "-5"),
        ("sweep", "--p", "31", "--k", "3", "--theta", "0.2:0.4:3", "--trials", "2")
        + ("--max-seconds", "-1"),
        ("verify", "known-formulas", "--max-n", "1"),
        ("verify", "intervals", "--limit", "3"),
        ("construct", "quartic", "--p", "499", "--n-dilates", "-1"),
    ],
)
def test_settings_that_bound_nothing_are_usage_errors(capsys, argv):
    # a negative budget tripped before it started (exit 2), an empty suite
    # passed over no case (exit 0), and a negative dilate count failed as a
    # violated claim (exit 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "error" in err


def test_unwritable_log_is_refused_before_the_search(capsys, tmp_path):
    # fd(Z_67, 3) searches for seconds; the path is checked first
    start = time.perf_counter()
    log_path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, "fd", "--group", "67", "--k", "3", "--log", str(log_path))
    assert time.perf_counter() - start < 1.0
    assert code == 64 and out == ""
    assert "davlab: error: --log" in err


def test_davenport_cap_exceeded_is_budget_exit(capsys, tmp_path):
    log_path = tmp_path / "records.jsonl"
    argv = ["davenport", "--group", "64", "--weights", "1", "--cap", "10", "--log", str(log_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["status"] == "CAP_EXCEEDED"
    assert payload["cap"] == 10
    assert payload["nodes"] >= 0
    record = json.loads(log_path.read_text())
    assert record["result"]["status"] == "CAP_EXCEEDED"
    assert record["normalized_input"]["cap"] == 10


def test_weights_zero_rejected(capsys):
    code, _, err = run_cli(capsys, "davenport", "--group", "6", "--weights", "1,6")
    assert code == 64
    assert "0 mod 6" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fd", "--group", "1000000000000000000000007", "--k", "2"),
        (
            "sweep", "--p", "1000000000000000000000007", "--k", "2",
            "--theta", "0.3:0.6:2", "--trials", "1",
        ),
        ("construct", "interval", "--p", "1000003"),
        ("construct", "interval", "--p", "1000000000000000000000007"),
        ("construct", "complement", "--p", "1000000000000000000000007", "--r", "1"),
        ("construct", "quartic", "--p", "1000000000000000000000007"),
        ("davenport-max", "--p", "1000000000000000000000007", "--k", "2"),
        ("verify", "relations", "--p", "1000000000000000000000007"),
        ("verify", "intervals", "--limit", "1000000000000"),
        ("construct", "singer", "--q", "3001"),
        ("construct", "symmetric", "--n", "100000000000", "--r", "10000000"),
        ("verify", "relations", "--p", "3", "--m", "10000000"),
        ("verify", "known-formulas", "--max-n", "1000000000000000000000007"),
        ("verify", "pair-lemma", "--max-n", "1000000000000000000000007"),
    ],
)
def test_huge_order_refused_fast(capsys, argv):
    # refused before any factoring, sampling, field arithmetic, weight-set
    # building, power p^m or orbit enumeration over the group's residues
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 64
    assert "exceeds limit" in err


@pytest.mark.parametrize(
    "argv, needs",
    [
        (("construct", "complement", "--p", "101"), "--r"),
        (("construct", "symmetric", "--r", "2"), "--n"),
        (("construct", "singer"), "--q"),
        (("construct", "quartic", "--auto"), "--p"),
    ],
)
def test_construct_missing_option_usage_error(capsys, argv, needs):
    code, _, err = run_cli(capsys, *argv)
    assert code == 64
    assert needs in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "interval", "--p", "101"),
        ("verify", "singer", "--q", "2"),
        ("davenport", "--group", "8", "--weights", "1,7"),
        ("fd", "--group", "7", "--k", "2"),
    ],
)
def test_threads_flag_only_where_used(capsys, argv):
    # only davenport-max and sweep spread independent answers over worker
    # processes (verify's dual maximum runs serially); every search is
    # serial, so a --threads flag elsewhere would be silently ignored and is
    # refused
    assert run_cli(capsys, *argv)[0] == 0
    code, _, err = run_cli(capsys, *argv, "--threads", "2")
    assert code == 64
    assert "--threads" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "dual-max", "--p", "7"),
        ("verify", "relations", "--m", "3", "--k", "3"),
        ("verify", "pair-lemma", "--limit", "5"),
        ("verify", "known-formulas", "--q", "3"),
    ],
)
def test_verify_refuses_flags_its_suite_does_not_read(capsys, tmp_path, argv):
    # a flag the suite ignores, or half of the pair it needs, would run the
    # default battery under a record that names only the suite
    log_path = tmp_path / "runs.jsonl"
    code, out, err = run_cli(capsys, *argv, "--log", str(log_path))
    assert code == 64
    assert "error" in err
    assert out == "" and not log_path.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("davenport", "--group", "8", "--weights", "1,7"), "--log"),
        (("sweep", "--p", "13", "--k", "2", "--theta", "0.3:0.6:2", "--trials", "2"), "--out"),
    ],
)
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv, flag):
    code, out, err = run_cli(capsys, *argv, flag, str(tmp_path / "missing" / "runs"))
    assert code == 64
    assert f"davlab: error: {flag}" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
@pytest.mark.parametrize(
    "argv",
    [
        ("davenport-max", "--p", "7", "--k", "2"),
        ("sweep", "--p", "11", "--k", "2", "--theta", "0.3:0.6:2", "--trials", "1"),
        # the human-table and time-budgeted paths refuse the flag just the same
        ("davenport-max", "--p", "7", "--k", "2", "--pretty"),
        ("sweep", "--p", "11", "--k", "2", "--theta", "0.3:0.6:2", "--trials", "1")
        + ("--max-seconds", "5", "--pretty"),
    ],
)
def test_threads_must_be_positive(capsys, tmp_path, argv, threads):
    # refused before anything runs, so no record logs a worker count that never ran
    log_path = tmp_path / "runs.jsonl"
    code, out, err = run_cli(capsys, *argv, "--threads", threads, "--log", str(log_path))
    assert code == 64
    assert "--threads" in err and "positive" in err
    assert out == "" and not log_path.exists()


def test_unknown_flag_usage_error(capsys):
    code, _, err = run_cli(capsys, "davenport", "--group", "6", "--weights", "1", "--bogus")
    assert code == 64
    assert "error" in err


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 64


def test_parse_weights_ranges_and_negatives():
    ws = parse_weights("1,5-7", 11)
    assert ws.residues == (1, 5, 6, 7)
    ws = parse_weights("-1,1", 10)
    assert ws.residues == (1, 9)
    with pytest.raises(ValueError):
        parse_weights("3-2", 11)
    with pytest.raises(ValueError):
        parse_weights("1,,2", 11)


def test_construct_singer_pretty(capsys):
    code, out, _ = run_cli(capsys, "construct", "singer", "--q", "2", "--pretty")
    assert code == 0
    assert "Z_7" in out and "[0, 1, 3]" in out


def test_construct_interval_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "interval", "--p", "103")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_bound"] == 2
    assert payload["size"] == 20


def test_construct_quartic_default_params_fail(capsys):
    # p = 101 has no admissible dilate at the default (c0, seed); the claim
    # is unverifiable there, which is a violation exit, not a usage error
    code, out, _ = run_cli(capsys, "construct", "quartic", "--p", "101")
    assert code == 1
    payload = json.loads(out)
    assert "error" in payload and "info" in payload


def test_construct_quartic_auto_recovers(capsys):
    code, out, _ = run_cli(capsys, "construct", "quartic", "--p", "101", "--auto")
    assert code == 0
    assert json.loads(out)["verified_bound"] == 4


def test_verify_singer_single_q_violation(capsys):
    code, out, err = run_cli(capsys, "verify", "singer", "--q", "5")
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "violated: ratio coverage q=5" in err


def test_verify_known_formulas_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "known-formulas", "--max-n", "12")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_sweep_csv_and_threads_invariance(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    argv = [
        "sweep", "--p", "31", "--k", "2", "--theta", "0.3:0.7:3",
        "--trials", "24", "--seed", "5", "--out", str(csv_path),
    ]
    code, out1, _ = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv, "--threads", "2")
    assert code == 0

    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_ms"), p2.pop("elapsed_ms")
    assert p1 == p2

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "theta,p_le,p_eq,mean_size,empty,trials"
    assert len(lines) == 4


def test_sweep_zero_seconds_budget_is_partial(capsys):
    # a zero budget is a budget: it trips before the first row
    code, out, _ = run_cli(
        capsys, "sweep", "--p", "31", "--k", "2", "--theta", "0.2:0.4:2",
        "--trials", "10", "--max-seconds", "0",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["partial"] is True
    assert payload["rows"] == []


def test_sweep_empty_window_warns(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--p", "31", "--k", "3", "--theta", "0.5:0.5:1", "--trials", "4"
    )
    assert code == 0
    assert "window empty" in err


def test_log_record_provenance(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DAVLAB_THREADS", "2")
    log_path = tmp_path / "records.jsonl"
    run_cli(capsys, "davenport", "--group", "5", "--weights", "1,4", "--log", str(log_path))
    run_cli(capsys, "fd", "--group", "3", "--k", "2", "--log", str(log_path))
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [r["command"] for r in records] == ["davenport", "fd"]
    first = records[0]
    assert first["normalized_input"]["group"] == "Z5"
    assert first["normalized_input"]["weights"] == [1, 4]
    assert first["result"]["value"] == 3
    assert set(first["provenance"]) == {"seed", "threads", "version"}
    assert first["provenance"]["threads"] >= 1
    assert first["elapsed_ms"] >= 0
    # both commands search in one process, whatever the environment says
    assert [r["provenance"]["threads"] for r in records] == [1, 1]
