import csv
import io

import pytest

import pdmm.cli as cli
from pdmm import protocol
from pdmm.cli import main
from pdmm.degree_tables import build_cat, parse_plan_record
from pdmm.protocol import NotFeasibleError, ProtocolConfig, run_protocol


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_gasp(capsys):
    code, out, _ = invoke(capsys, "construct", "gasp", "-K", "2", "-L", "2",
                          "-T", "3", "-r", "2")
    assert code == 0
    assert "servers: 13" in out
    assert "decodable: yes" in out
    assert "quantum feasible: yes" in out


def test_construct_cat(capsys):
    code, out, _ = invoke(capsys, "construct", "cat", "-K", "2", "-L", "2", "-T", "2")
    assert code == 0
    assert "q=10" in out and "servers: 10" in out


def test_construct_qf_square(capsys):
    code, out, _ = invoke(capsys, "construct", "qf-square", "-n", "2")
    assert code == 0
    assert "servers: 39" in out


def test_construct_missing_params(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "gasp", "-K", "2"])


def test_construct_export(tmp_path, capsys):
    record = tmp_path / "plan.txt"
    code, out, _ = invoke(capsys, "construct", "gasp", "-K", "2", "-L", "2",
                          "-T", "3", "-r", "2", "--export", str(record))
    assert code == 0
    plan = parse_plan_record(record.read_text().strip())
    assert plan.alpha == (0, 1, 4, 5, 6)


def test_simulate_quantum(capsys):
    code, out, _ = invoke(capsys, "simulate", "gasp", "-K", "2", "-L", "2",
                          "-T", "3", "--mode", "quantum", "--seed", "7")
    assert code == 0
    assert "decode: ok" in out
    assert "rate: 8/13" in out


def test_simulate_cat_quantum(capsys):
    code, out, _ = invoke(capsys, "simulate", "cat", "-K", "2", "-L", "2",
                          "-T", "2", "--mode", "quantum")
    assert code == 0
    assert "rate: 8/10" in out


def test_simulate_infeasible_errors(capsys):
    code, out, err = invoke(capsys, "simulate", "gasp", "-K", "2", "-L", "2",
                            "-T", "1", "--mode", "quantum")
    assert code == 2
    assert "error" in err


def test_simulate_deterministic(capsys, tmp_path):
    argv = ["simulate", "gasp", "-K", "2", "-L", "2", "-T", "3",
            "--mode", "quantum", "--seed", "9", "--prime", "131"]
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert main(argv + ["--transcript", str(first)]) == 0
    assert main(argv + ["--transcript", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def parse_csv(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_feasibility_csv(capsys):
    code, out, _ = invoke(capsys, "feasibility", "--k-range", "2:3")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["K"] == "2" and rows[0]["T_min_bruteforce"] == "3"
    assert [r["K"] for r in rows] == ["2", "3"]
    assert out.endswith("\n") and "\r" not in out


def test_feasibility_below_the_cap_prints_an_empty_t_min(capsys):
    # (3, 3) has T_min = 5, above --t-max 4
    code, out, _ = invoke(capsys, "feasibility", "--k-range", "3:3", "--t-max", "4")
    assert code == 0
    [row] = parse_csv(out)
    assert (row["K"], row["L"], row["T_min_bruteforce"], row["delta"]) == ("3", "3", "", "")


@pytest.mark.parametrize("argv, message", [
    (["feasibility", "--k-range", "2-6"], "--k-range expects lo:hi with integer bounds, got '2-6'"),
    (["feasibility", "--l-range", "1:2:3"], "--l-range expects lo:hi"),
    (["sweep", "qf-square", "--range", "2:x"], "--range expects lo:hi"),
    (["feasibility", "--k-range", "0:3"], "got K=0, L=0"),
    (["feasibility", "--k-range", "6:2"], "--k-range expects lo <= hi, got '6:2'"),
    (["sweep", "qf-klt", "--range", "5:3", "-T", "2"], "--range expects lo <= hi, got '5:3'"),
    (["simulate", "gasp", "-K", "2", "-L", "2", "-T", "3", "--dims", "a,2,2"],
     "--dims expects rows_A,inner,cols_B as integers, got 'a,2,2'"),
])
def test_bad_range_is_a_clear_error(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_feasibility_ranges_without_l_at_most_k_are_an_error(capsys):
    code, out, err = invoke(capsys, "feasibility", "--k-range", "2:3", "--l-range", "5:6")
    assert code == 2 and out == ""
    assert err == "error: --l-range 5:6 has no L <= K for --k-range 2:3\n"


@pytest.mark.parametrize("argv", [
    ["feasibility", "--k-range", "2:3", "--out"],
    ["construct", "gasp", "-K", "2", "-L", "2", "-T", "3", "--export"],
    ["simulate", "gasp", "-K", "2", "-L", "2", "-T", "3", "--transcript"],
])
def test_unwritable_output_path_is_a_clear_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "file.txt"
    code, out, err = invoke(capsys, *argv, str(target))
    assert code == 2 and out == ""  # the path is opened before any work
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


@pytest.mark.parametrize("argv", [
    ["feasibility", "--k-range", "2:3"],
    ["sweep", "qf-klt", "--range", "3:4", "-T", "2"],
])
def test_csv_out_file_is_closed_and_matches_stdout(argv, capsys, tmp_path, monkeypatch):
    code, stdout, _ = invoke(capsys, *argv)
    assert code == 0
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    target = tmp_path / "out.csv"
    assert main(argv + ["--out", str(target)]) == 0
    assert len(opened) == 1 and opened[0].closed
    assert target.read_text(encoding="utf-8") == stdout


def test_sweep_qf_klt(capsys):
    code, out, _ = invoke(capsys, "sweep", "qf-klt", "--range", "3:8", "-T", "2")
    assert code == 0
    rows = {int(r["K"]): r for r in parse_csv(out)}
    assert rows[3]["R_Q"] == "12/15"
    assert round(float(rows[3]["ratio_decimal"]), 2) == 1.87
    assert round(float(rows[4]["ratio_decimal"]), 1) == 1.8
    assert round(float(rows[6]["ratio_decimal"]), 1) == 1.7


def test_sweep_qf_square_ratio_formula(capsys):
    from fractions import Fraction

    code, out, _ = invoke(capsys, "sweep", "qf-square", "--range", "2:5")
    assert code == 0
    for row in parse_csv(out):
        n = {4: 2, 9: 3, 16: 4, 25: 5}[int(row["K"])]
        num = 2 * n**4 + 4 * n**3 + 4 * n**2 - 2 * n - 4
        den = 2 * n**4 + 2 * n**2 - 1
        assert Fraction(row["ratio"]) == Fraction(num, den)


def test_sweep_low_privacy_gain_bounded(capsys):
    code, out, _ = invoke(capsys, "sweep", "low-privacy", "--range", "4:10", "-T", "2")
    assert code == 0
    ratios = [float(r["ratio_decimal"]) for r in parse_csv(out)]
    assert all(r <= 1.5 for r in ratios)
    assert ratios[-1] < ratios[0]  # gain shrinks as L grows


def test_sweep_gives_a_quantum_rate_only_to_plans_quantum_mode_runs(capsys):
    code, out, _ = invoke(capsys, "sweep", "cat", "--range", "2:4", "-L", "2", "-T", "2")
    assert code == 0
    rows = {int(r["K"]): r for r in parse_csv(out)}
    quantum = ("R_Q", "R_Q_decimal", "ratio", "ratio_decimal")
    assert [rows[2][c] for c in quantum] == ["8/10", "0.800000", "2/1", "2.000000"]
    assert run_protocol(ProtocolConfig(plan=build_cat(2, 2, 2), mode="quantum")).decode_ok
    for k in (3, 4):
        assert [rows[k][c] for c in quantum] == ["", "", "", ""]
        assert rows[k]["N_quantum"] == rows[k]["N_classical"] == str(3 * k + 4)
        with pytest.raises(NotFeasibleError):
            run_protocol(ProtocolConfig(plan=build_cat(k, 2, 2), mode="quantum"))


# A small --range for every sweep family, cat with two infeasible rows.
GATE_SWEEPS = [
    ["qf-square", "--range", "2:3"],
    ["qf-power", "--range", "2:3", "-k", "2", "-m", "2"],
    ["qf-additive", "--range", "0:2", "-n", "2", "-k", "2"],
    ["qf-klt", "--range", "3:5", "-T", "2"],
    ["qf-kt", "--range", "1:2", "-n", "2", "-l", "1"],
    ["qf-kt-shift", "--range", "1:3", "-n", "2", "-l", "1"],
    ["low-privacy", "--range", "4:6", "-T", "2"],
    ["cat", "--range", "2:4", "-L", "2", "-T", "2"],
]


def sweep_gate_violations(capsys, sweeps=GATE_SWEEPS):
    """Sweep rows whose R_Q cell disagrees with a quantum run of the row's plan.

    A row with an R_Q cell must decode in quantum mode; a row without one
    must raise ``NotFeasibleError``.  Rows pair with the plans the sweep
    built, in the order the sweep sorts them.
    """
    bad = []
    for argv in sweeps:
        family, built = argv[0], []
        builder = cli._BUILDERS[family]

        def build(args):
            built.append(builder(args))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cli._BUILDERS, family, build)
            code, out, _ = invoke(capsys, "sweep", *argv)
        rows = parse_csv(out)
        built.sort(key=lambda plan: (plan.K, plan.L, plan.T))
        assert code == 0 and len(rows) == len(built) > 0
        for row, plan in zip(rows, built):
            assert [row["K"], row["L"], row["T"]] == [str(plan.K), str(plan.L), str(plan.T)]
            cfg = ProtocolConfig(plan=plan, dims=(plan.K, 2, 2 * plan.L), mode="quantum")
            try:
                runs = run_protocol(cfg).decode_ok
            except NotFeasibleError:
                runs = False
            if runs != bool(row["R_Q"]):
                bad.append((family, plan.K, plan.L, plan.T, row["R_Q"]))
    return bad


def test_every_sweep_row_with_a_quantum_rate_runs_in_quantum_mode(capsys):
    assert sweep_gate_violations(capsys) == []


def test_sweep_gate_check_catches_an_ungated_quantum_rate(capsys, monkeypatch):
    def ungated_rate_report(plan, mode):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "quantum_layout", lambda plan: [])
            return protocol.rate_report(plan, mode)

    monkeypatch.setattr(cli, "rate_report", ungated_rate_report)
    assert sweep_gate_violations(capsys, GATE_SWEEPS[-1:]) == [
        ("cat", 3, 2, 2, "12/13"), ("cat", 4, 2, 2, "16/16")]


@pytest.mark.parametrize("family, flags", [
    ("qf-power", "-k -m"),
    ("qf-additive", "-n -k"),
    ("qf-klt", "-T"),
    ("qf-kt", "-n -l"),
    ("qf-kt-shift", "-n -l"),
    ("low-privacy", "-T"),
    ("cat", "-L -T"),
])
def test_sweep_missing_flags_is_a_usage_error(capsys, family, flags):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", family, "--range", "2:3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {family} requires {flags}\n"
    assert captured.out == ""


def test_sweep_deterministic(capsys):
    _, one, _ = invoke(capsys, "sweep", "qf-klt", "--range", "3:5", "-T", "2")
    _, two, _ = invoke(capsys, "sweep", "qf-klt", "--range", "3:5", "-T", "2")
    assert one == two
