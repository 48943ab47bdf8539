import argparse
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasekit import cli
from phasekit.numerics import MAX_PHOTON_COUNT

# the benchmark's recorded outputs of its `phasekit` calls at the default seed
CLI_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text(
        encoding="utf-8"
    )
)["cli"]


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "phasekit", *args],
        capture_output=True,
        env=env,
    )


def parse_scalars(stdout: bytes) -> dict:
    out = {}
    for line in stdout.decode().splitlines():
        if " = " in line and not line.startswith("ci99"):
            key, value = line.split(" = ", 1)
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def test_kennedy_command():
    proc = run_cli("kennedy", "--alpha2", "0.1", "--beta2", "1")
    assert proc.returncode == 0
    values = parse_scalars(proc.stdout)
    assert values["P"] == pytest.approx(0.34757196, abs=1e-7)
    assert values["D"] == pytest.approx(1 - 2 * values["P"], abs=1e-11)


def test_kennedy_asymptotic_flag():
    proc = run_cli("kennedy", "--alpha2", "0.1", "--asymptotic")
    assert proc.returncode == 0
    assert parse_scalars(proc.stdout)["P"] == pytest.approx(0.33516002, abs=1e-7)


def test_homodyne_zero_signal():
    proc = run_cli("homodyne", "--alpha2", "0", "--beta2", "5")
    assert proc.returncode == 0
    assert parse_scalars(proc.stdout)["P"] == 0.5


def test_bsclass_balanced_angle_matches_homodyne():
    a = run_cli("bsclass", "--alpha2", "0.1", "--beta2", "1", "--phi-over-pi", "0.25")
    b = run_cli("homodyne", "--alpha2", "0.1", "--beta2", "1")
    assert a.returncode == b.returncode == 0
    assert abs(parse_scalars(a.stdout)["P"] - parse_scalars(b.stdout)["P"]) < 1e-12


def test_bsclass_phi_zero_is_an_exact_tie():
    proc = run_cli("bsclass", "--alpha2", "0.1", "--beta2", "1000", "--phi-over-pi", "0")
    assert proc.returncode == 0
    assert proc.stdout == b"P = 0.5\nD = 0\n"


@pytest.mark.parametrize(
    "command, quoted_key",
    [
        (["homodyne"], b"tail_tol"),
        (["kennedy"], b"method"),
        (["bsclass", "--phi-over-pi", "0.2"], b"n_cut"),
        (["optimum"], b"trace_norm"),
        (["montecarlo", "--trials", "1000"], b"rule"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value.decode(),
)
def test_quote_tolerances_adds_metadata(command, quoted_key):
    bare = run_cli(*command, "--alpha2", "0.1", "--beta2", "1")
    quoted = run_cli(*command, "--alpha2", "0.1", "--beta2", "1", "--quote-tolerances")
    assert quoted.returncode == 0
    assert len(quoted.stdout.splitlines()) > len(bare.stdout.splitlines())
    assert quoted.stdout.startswith(bare.stdout)
    assert quoted_key + b" = " in quoted.stdout


def test_every_subcommand_carries_its_handler():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"kennedy", "homodyne", "bsclass", "optimum", "montecarlo", "figure"}
    for name, p in sub.choices.items():
        assert callable(p.get_default("handler")), name


@pytest.mark.parametrize("receiver", ["kennedy", "homodyne"])
@pytest.mark.parametrize(
    "reference", [["--beta2", "1", "--asymptotic"], []], ids=["both", "neither"]
)
def test_receiver_needs_exactly_one_reference_flag(receiver, reference, capsys):
    assert cli.main([receiver, "--alpha2", "0.1", *reference]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--beta2" in captured.err and "--asymptotic" in captured.err


def test_argument_errors_exit_2():
    assert run_cli("unknown-command").returncode == 2
    assert run_cli("kennedy", "--alpha2", "-1", "--beta2", "1").returncode == 2
    assert run_cli("kennedy", "--alpha2", "0.1").returncode == 2
    assert run_cli(
        "kennedy", "--alpha2", "0.1", "--beta2", "1", "--asymptotic"
    ).returncode == 2
    assert run_cli("montecarlo", "--alpha2", "0.1", "--beta2", "1",
                   "--rule", "homodyne", "--phi-over-pi", "0.2").returncode == 2


def test_resource_errors_exit_3(capsys):
    strengths = ["--alpha2", "0.1", "--beta2", "1e12"]
    for argv in (
        ["homodyne", *strengths],
        ["bsclass", *strengths, "--phi-over-pi", "0.2"],
        ["optimum", *strengths],
        ["figure", "--id", "5", "--beta2-grid", "1e12"],
    ):
        assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("phasekit: ") and captured.err.count("\n") == 1
        assert "ceiling of 1048576" in captured.err


def test_unwritable_figure_output_exits_2(tmp_path, capsys):
    # a missing directory and a directory in place of a file
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(["figure", "--id", "1", "--out", str(out)]) == 2, out
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"phasekit: cannot write {out}: ")
        assert captured.err.count("\n") == 1
    # a writable path gets the bytes standard output would have shown
    out = tmp_path / "figure1.csv"
    assert cli.main(["figure", "--id", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(["figure", "--id", "1"]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_optimum_at_a_strong_reference(capsys):
    # the old 2048-photon ceiling refused this; the value is the sector sum
    # with that ceiling lifted, at 12 digits
    proc = run_cli("optimum", "--alpha2", "0.1", "--beta2", "1e5")
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "P_err = 0.21291153771"
    # one log-pmf build per cutoff leaves the sum room up to about 1.03e6
    assert cli.main(["optimum", "--alpha2", "0.1", "--beta2", "1e6"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "P_err = 0.212911219171"
    assert cli.main(["optimum", "--alpha2", "0.1", "--beta2", "1.1e6"]) == 3
    assert "ceiling of 1048576" in capsys.readouterr().err


def test_degenerate_strengths_need_no_truncation(capsys):
    # a zero strength is an exact tie, however strong the other pulse
    assert cli.main(["optimum", "--alpha2", "1e12", "--beta2", "0"]) == 0
    assert capsys.readouterr().out == "P_err = 0.5\nD_err = 0\nN_max = 0\n"
    argv = ["figure", "--id", "5", "--beta2-grid", "0", "--cross-check-alpha2", "1e12"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "beta2,d_ratio_series,d_ratio_exact\n0,0,0\n"


EDGE_STRENGTHS = ("0", "1e-300", "1", "1e12", "1e300", "1.7976931348623157e308")


@pytest.mark.parametrize(
    "command",
    [
        ["kennedy"],
        ["homodyne"],
        ["bsclass", "--phi-over-pi", "0.2"],
        ["optimum"],
        ["montecarlo", "--trials", "1000"],
        ["montecarlo", "--rule", "kennedy", "--trials", "10"],
        ["figure", "--id", "2"],
        ["figure", "--id", "5"],
    ],
    ids=" ".join,
)
def test_every_strength_ends_in_an_exit_code(command, capsys):
    # zero, tiny, ordinary, huge, near-overflow and largest-float strengths must
    # each end in a result, an argument error or a resource error, never an
    # exception, and a refusal is one `phasekit:` line
    for alpha2 in EDGE_STRENGTHS:
        for beta2 in EDGE_STRENGTHS:
            if command[0] != "figure":
                argv = [*command, "--alpha2", alpha2, "--beta2", beta2]
            elif command[2] == "2":
                argv = [*command, "--alpha2-grid", alpha2, "--beta2-grid", beta2]
            else:
                argv = [*command, "--beta2-grid", beta2, "--cross-check-alpha2", alpha2]
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), argv
            assert code == 0 or (err.startswith("phasekit: ") and err.count("\n") == 1), argv


@pytest.mark.parametrize(
    "strengths",
    [
        # alpha^2 + beta^2 overflows, so the cancellation splitter comes from
        # the amplitudes and the port mean is what overflows
        ["--rule", "kennedy", "--alpha2", EDGE_STRENGTHS[-1], "--beta2", EDGE_STRENGTHS[-1]],
        # means the generator's Poisson sampler refuses
        ["--alpha2", "0", "--beta2", "1e300"],
        ["--rule", "homodyne", "--alpha2", "1e19", "--beta2", "1e19"],
    ],
    ids=" ".join,
)
def test_montecarlo_past_the_float_or_sampler_range_exits_3(strengths, capsys):
    assert cli.main(["montecarlo", *strengths, "--trials", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasekit: ") and captured.err.count("\n") == 1


def test_kennedy_at_the_largest_float_strength(capsys):
    # 4 alpha^2 beta^2 / (alpha^2 + beta^2) is inf / inf in floats; its limit is P = 0
    largest = "1.7976931348623157e308"
    assert cli.main(["kennedy", "--alpha2", largest, "--beta2", largest]) == 0
    assert capsys.readouterr().out.startswith("P = 0\nD = 1\n")


def test_bsclass_absorbs_the_rounding_excess_at_a_cancellation_angle(capsys):
    # the truncated pmfs at mean 1e5 sum above 1, which pushes P 1e-11 past 1/2
    argv = ["bsclass", "--alpha2", "1e-300", "--beta2", "1e5",
            "--phi-over-pi", "3.1830988618379067e-153"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("P = 0.5\nD = 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        "homodyne --alpha2 1 --beta2 1e40",
        "homodyne --alpha2 1e40 --beta2 1",
        "bsclass --alpha2 1 --beta2 1e40 --phi-over-pi 0.2",
        "bsclass --alpha2 1e300 --beta2 10 --optimize",
        "figure --id 2 --alpha2-grid 1 --beta2-grid 1e40",
        "figure --id 4 --alpha2 1e300",
    ],
)
def test_a_float_tie_past_the_ceiling_exits_3(argv, capsys):
    # one pulse lies below float resolution of the other, so both hypotheses
    # give the same float port means; past the ceiling their P = 1/2 was
    # false (the count comparison's limit at alpha^2 = 1 is P = 0.0228)
    assert cli.main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasekit: ") and captured.err.count("\n") == 1
    assert "ceiling of 1048576" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # no signal, and phi = 0: exact ties at any strength
        "homodyne --alpha2 0 --beta2 1e300",
        "bsclass --alpha2 1e300 --beta2 1 --phi-over-pi 0",
        # a float tie within the ceiling
        "homodyne --alpha2 1e-300 --beta2 1",
    ],
)
def test_exact_and_in_ceiling_ties_stay_one_half(argv, capsys):
    assert cli.main([*argv.split(), "--quote-tolerances"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("P = 0.5\nD = 0\n")
    assert "degenerate = 1\n" in out


@pytest.mark.parametrize("points", [MAX_PHOTON_COUNT + 1, 10**8])
@pytest.mark.parametrize(
    "command",
    [
        "bsclass --alpha2 0.1 --beta2 1 --optimize --grid-points",
        "bsclass --alpha2 0 --beta2 1 --optimize --grid-points",
        "figure --id 3 --n-angles",
        "figure --id 4 --n-angles",
    ],
)
def test_angle_grids_past_the_ceiling_exit_3_unbuilt(command, points, capsys, monkeypatch):
    # a 1e8-angle grid once took minutes to build before anything checked it
    def unbuilt(*args, **kwargs):
        raise AssertionError("an angle grid was built")

    monkeypatch.setattr(np, "linspace", unbuilt)
    assert cli.main([*command.split(), str(points)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasekit: ") and captured.err.count("\n") == 1
    assert "ceiling of 1048576" in captured.err


def test_montecarlo_command_and_determinism():
    args = ("montecarlo", "--alpha2", "0.1", "--beta2", "1", "--rule", "homodyne",
            "--trials", "20000", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    values = parse_scalars(first.stdout)
    assert 0.25 < values["error_rate"] < 0.35
    assert values["seed"] == 11


def test_figure_csv_and_json():
    csv_run = run_cli("figure", "--id", "1", "--alpha2-grid", "0.1", "--beta2-grid", "1,10")
    assert csv_run.returncode == 0
    lines = csv_run.stdout.decode().splitlines()
    assert lines[0].startswith("alpha2,beta2,p_ken")
    assert len(lines) == 3
    json_run = run_cli("figure", "--id", "1", "--alpha2-grid", "0.1",
                       "--beta2-grid", "1,10", "--format", "json")
    payload = json.loads(json_run.stdout)
    assert len(payload["rows"]) == 2


def test_figure_rejects_options_it_does_not_use(capsys):
    argv = ["figure", "--id", "1", "--alpha2-grid", "0.1", "--beta2-grid", "1",
            "--tail-tol", "0.5", "--n-angles", "100", "--alpha2", "7",
            "--cross-check-alpha2", "0.3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha2, n_angles, cross_check_alpha2, tail_tol" in captured.err
    assert cli.main(argv[:7]) == 0


@pytest.mark.parametrize("tol", ["nan", "5", "-1"])
def test_figure_five_refuses_a_tail_tol_outside_the_unit_interval(tol, capsys):
    assert cli.main(["figure", "--id", "5", "--tail-tol", tol, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasekit: tail_tol must lie in (0, 1)")


@pytest.mark.parametrize("fig_id,alpha2,p_base", [("1", "185.5", "p_ken"), ("2", "370", "p_hom")])
def test_figure_json_has_null_for_an_overflowing_ratio(fig_id, alpha2, p_base, capsys):
    # a subnormal but nonzero baseline P would make the ratio inf
    argv = ["figure", "--id", fig_id, "--alpha2-grid", alpha2, "--beta2-grid", "0"]
    assert cli.main([*argv, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert 0.0 < row[p_base] < 1e-300
    assert row["ratio_p"] is None
    assert cli.main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["ratio_p"] == ""


def test_figure_output_file(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("figure", "--id", "5", "--beta2-grid", "0,1", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == b""
    content = out.read_text()
    assert content.startswith("beta2,d_ratio_series,d_ratio_exact\n")
    assert content.endswith("\n")


def test_figure_invocations_are_byte_identical():
    args = ("figure", "--id", "5", "--beta2-grid", "0,0.5,1,2")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_figure_four_minimum_value():
    proc = run_cli("figure", "--id", "4")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    header = lines[0].split(",")
    kind_idx, p_idx = header.index("kind"), header.index("p_err")
    sweep_vals = [
        float(parts[p_idx])
        for parts in (line.split(",") for line in lines[1:])
        if parts[kind_idx] == "sweep"
    ]
    assert min(sweep_vals) == pytest.approx(0.25, abs=0.005)


@pytest.mark.parametrize("command", sorted(CLI_REFERENCES))
def test_output_matches_benchmark_reference(command, capsys):
    assert cli.main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out == CLI_REFERENCES[command]
    assert captured.err == ""


# sha256 and length of `phasekit figure ... --format json`: every byte of the
# JSON output, metadata key order included, is part of the interface
FIGURE_JSON_DIGESTS = {
    "--id 1": ("c5591ed1f36e66ad4632c02ffe8d0cd2b52b98f573b5cdaf9614e8c0c2580778", 68264),
    "--id 2": ("41ecdcc6014dcf646d732bc3766623944236bbdc631385b56deb7d2f5e1183a7", 68096),
    "--id 3": ("821fd12b4243d4e6c322d3ec328169a536e15cf79581ac8935a8c660a4b6564a", 13547),
    "--id 4": ("4c74cebadc63fd4947d519b4e94ff96a1e3b72ff559899efb0bcf010da15e2d3", 13548),
    "--id 5": ("c334a1c2de2157804f22f3acaa6033a60301820d01a66bcd167d49d25f12356d", 4292),
    "--id 5 --cross-check-alpha2 0.01": (
        "598368d1744773b3935e89127f5665888ffa338b1bf5248cd59b95c5795f333b", 4687
    ),
}


@pytest.mark.parametrize("options", sorted(FIGURE_JSON_DIGESTS))
def test_figure_json_bytes_are_pinned(options, capsys):
    assert cli.main(["figure", *options.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == FIGURE_JSON_DIGESTS[options]
