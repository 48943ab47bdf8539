import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import phasekit.helstrom as helstrom
import phasekit.receivers as receivers
from phasekit.helstrom import d_err_small_alpha, p_err_optimal
from phasekit.model import PulsePair, kennedy_angle
from phasekit.numerics import _BLOCK_ELEMENTS
from phasekit.receivers import (
    _limit_pair,
    p_beamsplitter_ml,
    p_homodyne_asymptotic,
    p_homodyne_generalized,
    p_kennedy_asymptotic,
    p_kennedy_generalized,
)
from phasekit.scan import (
    Table,
    figure_table,
    format_value,
    write_csv,
    write_json,
)

# the benchmark's recorded figure tables, keyed "figure<id> option=value ..."
FIGURE_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text(
        encoding="utf-8"
    )
)["figures"]


def test_default_grid_shape():
    # figure 1's default signal grid, read back from its alpha2 column
    grid = [row["alpha2"] for row in figure_table(1, beta2_grid=[1.0]).rows]
    assert len(grid) == 64
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("fig_id, receiver, tag", [(1, "kennedy", "ken"), (2, "homodyne", "hom")])
def test_kennedy_table_rows_recompute(fig_id, receiver, tag):
    # figures 1 and 2 recompute from the receiver map's (asymptotic, generalized)
    table = figure_table(fig_id, alpha2_grid=[0.1, 0.5], beta2_grid=[1.0, 10.0])
    assert table.columns == (
        "alpha2", "beta2", f"p_{tag}", f"p_{tag}_tilde", "ratio_p",
        f"d_{tag}", f"d_{tag}_tilde", "ratio_d",
    )
    assert len(table.rows) == 4
    asymptotic, generalized = _limit_pair(receiver)
    assert (asymptotic, generalized) == {
        "kennedy": (p_kennedy_asymptotic, p_kennedy_generalized),
        "homodyne": (p_homodyne_asymptotic, p_homodyne_generalized),
    }[receiver]
    for row in table.rows:
        base = asymptotic(row["alpha2"])
        gen = generalized(PulsePair(row["alpha2"], row["beta2"]))
        assert row[f"p_{tag}"] == base.error_probability
        assert row[f"p_{tag}_tilde"] == gen.error_probability
        assert row["ratio_p"] == gen.error_probability / base.error_probability
        assert row["ratio_d"] == gen.distinguishability / base.distinguishability


def test_ratio_columns_are_mutually_consistent():
    table = figure_table(1, alpha2_grid=[0.05, 0.1, 0.8], beta2_grid=[1.0, 4.0])
    for row in table.rows:
        # D and P ratios describe the same row: (1 - ratio_d * D) / 2 = P~
        reconstructed = (1.0 - row["ratio_d"] * row["d_ken"]) / 2.0
        assert abs(reconstructed - row["p_ken_tilde"]) < 1e-12


def test_zero_signal_ratio_is_null():
    table = figure_table(1, alpha2_grid=[0.0, 0.1], beta2_grid=[1.0])
    assert table.rows[0]["ratio_d"] is None
    assert table.rows[1]["ratio_d"] is not None


def test_ratio_p_is_null_where_the_baseline_underflows():
    # a strong signal drives the infinite-reference P to exactly 0
    ken = figure_table(1, alpha2_grid=[1e12], beta2_grid=[1e12])
    hom = figure_table(2, alpha2_grid=[1e12], beta2_grid=[0.0])
    assert ken.rows[0]["p_ken"] == ken.rows[0]["p_ken_tilde"] == 0.0
    assert hom.rows[0]["p_hom"] == 0.0 and hom.rows[0]["p_hom_tilde"] == 0.5
    assert ken.rows[0]["ratio_p"] is None and hom.rows[0]["ratio_p"] is None
    assert ken.rows[0]["ratio_d"] == hom.rows[0]["ratio_d"] + 1.0 == 1.0


def test_homodyne_table_rows_recompute():
    table = figure_table(2, alpha2_grid=[0.1], beta2_grid=[1.0, 10.0])
    for row in table.rows:
        base = p_homodyne_asymptotic(row["alpha2"])
        gen = p_homodyne_generalized(PulsePair(row["alpha2"], row["beta2"]))
        assert row["p_hom_tilde"] == gen.error_probability
        assert row["ratio_p"] == gen.error_probability / base.error_probability


def test_homodyne_table_strong_reference_proxy():
    table = figure_table(2, alpha2_grid=[0.1], beta2_grid=[1e4])
    assert abs(table.rows[0]["ratio_p"] - 1.0) < 1e-3


def test_angle_sweep_table():
    pair = PulsePair(0.1, 1.0)
    table = figure_table(3, alpha2=pair.alpha2, beta2=pair.beta2, n_angles=64)
    sweep = [r for r in table.rows if r["kind"] == "sweep"]
    assert len(sweep) == 64
    assert sweep[0]["phi_over_pi"] == 0.0
    assert sweep[-1]["phi_over_pi"] == pytest.approx(0.25)
    hom_ref = [r for r in table.rows if r["kind"] == "ref_homodyne"]
    ken_ref = [r for r in table.rows if r["kind"] == "ref_kennedy"]
    assert len(hom_ref) == 1 and len(ken_ref) == 1
    assert hom_ref[0]["p_err"] == p_homodyne_generalized(pair).error_probability
    assert ken_ref[0]["p_err"] == p_kennedy_generalized(pair).error_probability
    assert ken_ref[0]["phi_over_pi"] == pytest.approx(kennedy_angle(pair).phi / math.pi)
    # the balanced end of the sweep is the homodyne receiver itself
    assert abs(sweep[-1]["p_err"] - hom_ref[0]["p_err"]) < 1e-12
    # sweep rows come straight from the library
    mid = sweep[20]
    from phasekit.model import Beamsplitter

    direct = p_beamsplitter_ml(pair, Beamsplitter(mid["phi_over_pi"] * math.pi))
    assert mid["p_err"] == direct.error_probability


def test_angle_sweep_no_signal_is_flat():
    table = figure_table(3, alpha2=0.0, beta2=1.0, n_angles=64)
    assert all(r["p_err"] == 0.5 for r in table.rows if r["kind"] == "sweep")


def test_angle_sweep_validates_resolution():
    with pytest.raises(ValueError):
        figure_table(3, alpha2=0.1, beta2=1.0, n_angles=32)


@pytest.mark.parametrize("n_angles", [100.0, 64.5, "128"])
def test_angle_sweep_refuses_a_non_integer_resolution(n_angles):
    with pytest.raises(ValueError, match="^n_angles must be an integer, got "):
        figure_table(3, n_angles=n_angles)


def test_angle_sweep_skips_cancellation_ref_when_absent():
    table = figure_table(3, alpha2=1.0, beta2=0.5, n_angles=64)
    assert not [r for r in table.rows if r["kind"] == "ref_kennedy"]


def test_optimal_ratio_table():
    table = figure_table(5, beta2_grid=[0.0, 1.0, 4.0])
    assert table.rows[0]["d_ratio_series"] == 0.0
    assert table.rows[1]["d_ratio_series"] == pytest.approx(0.77319, abs=5e-5)
    assert table.rows[1]["d_ratio_series"] == d_err_small_alpha(PulsePair(1.0, 1.0)) / 2.0
    assert all(r["d_ratio_exact"] is None for r in table.rows)


def test_optimal_ratio_cross_check_column():
    # at the tiny alpha^2, D = 1 - 2P would cancel to a few digits or none
    for alpha2 in (1e-4, 1e-24, 1e-32):
        table = figure_table(5, beta2_grid=[1.0], cross_check_alpha2=alpha2)
        row = table.rows[0]
        assert row["d_ratio_exact"] is not None
        assert row["d_ratio_exact"] == pytest.approx(row["d_ratio_series"], rel=2e-4)


@pytest.mark.parametrize("beta2_grid", [None, [0, 0.5, 10, 1e3, 5e4, 2e5]])
def test_optimal_ratio_rows_are_the_one_row_calls_bit_for_bit(beta2_grid, monkeypatch):
    # figure 5's columns come from row blocks; each row is the public one-row
    # result at its beta2, to the last bit; every block stays within the
    # element budget unless it is a single row
    shapes = []
    search = helstrom._poisson_search

    def recorded(means, tail_mass):
        found = search(means, tail_mass)
        shapes.append(found[1].shape)
        return found

    monkeypatch.setattr(helstrom, "_poisson_search", recorded)
    alpha2 = 0.01
    table = figure_table(5, beta2_grid=beta2_grid, cross_check_alpha2=alpha2)
    assert shapes and all(rows * width <= _BLOCK_ELEMENTS or rows == 1 for rows, width in shapes)
    if beta2_grid is not None:
        # the series column, then the optimum's: more than one block each
        assert [rows for rows, _ in shapes] == [3, 1, 1, 3, 1, 1]
    monkeypatch.undo()
    for row in table.rows:
        beta2 = row["beta2"]
        series = d_err_small_alpha(PulsePair(1.0, beta2)) / 2.0
        res = p_err_optimal(PulsePair(alpha2, beta2))
        exact = res.metadata["trace_norm"] / 2.0 / (2.0 * math.sqrt(alpha2))
        assert row["d_ratio_series"].hex() == series.hex()
        assert row["d_ratio_exact"].hex() == exact.hex()


def test_optimal_ratio_rows_check_every_beta2_before_searching():
    # a refused beta2 is an argument error even after a row past the ceiling
    with pytest.raises(ValueError, match="^beta2 must be finite and non-negative, got -1.0$"):
        figure_table(5, beta2_grid=[2e6, -1.0])


def test_ratio_table_computes_each_baseline_once(monkeypatch):
    # figure 1's strong-reference baseline once per alpha2, not per (alpha2, beta2)
    calls = []
    asymptotic = receivers.p_kennedy_asymptotic

    def counted(alpha2):
        calls.append(alpha2)
        return asymptotic(alpha2)

    # _limit_pair reads the module's globals at each call
    monkeypatch.setattr(receivers, "p_kennedy_asymptotic", counted)
    table = figure_table(1)
    assert len(table.rows) == 256
    assert sorted(calls) == sorted(row["alpha2"] for row in table.rows if row["beta2"] == 1.0)
    assert len(calls) == 64


# -------------------------------------------------------------------- output


def _format_value_before(value) -> str:
    """The rule ``format_value`` follows, as it read before its float fast path."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


@pytest.mark.parametrize("value", [
    -0.0, 0.0, 5e-324, 1e300, -1e-300, math.inf, -math.inf, math.nan, 1.0 / 3.0,
    np.float64(0.1), np.float64(-0.0), np.float32(0.1), np.float32(1e-40),
    7, -(2**70), np.int64(-3), True, False, None, "ref_kennedy", "",
])
def test_format_value_keeps_its_rule_for_every_type(value):
    assert format_value(value) == _format_value_before(value)


def test_write_csv_writes_the_table_at_once():
    class Recorded(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    table = figure_table(5, beta2_grid=[0.0, 1.0])
    stream = Recorded()
    write_csv(table, stream)
    assert stream.writes == 1
    assert stream.getvalue() == "beta2,d_ratio_series,d_ratio_exact\n0,0,\n1,0.773192656379,\n"


def test_format_value():
    assert format_value(None) == ""
    assert format_value("sweep") == "sweep"
    assert format_value(3) == "3"
    # twelve significant digits, trailing zeros elided as usual for %g
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(0.30000000000001) == "0.3"
    assert format_value(1234567.891234567) == "1234567.89123"


def test_csv_output_format():
    table = figure_table(1, alpha2_grid=[0.0, 0.1], beta2_grid=[1.0])
    buf = io.StringIO()
    write_csv(table, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "alpha2,beta2,p_ken,p_ken_tilde,ratio_p,d_ken,d_ken_tilde,ratio_d"
    assert text.endswith("\n")
    assert len(lines) == 4  # header + 2 rows + trailing empty piece
    # null sentinel renders as an empty field
    assert lines[1].endswith(",")
    # twelve significant digits
    assert "0.335160023018" in lines[2]


def test_json_output_format():
    table = figure_table(1, alpha2_grid=[0.0, 0.1], beta2_grid=[1.0])
    buf = io.StringIO()
    write_json(table, buf)
    payload = json.loads(buf.getvalue())
    assert payload["metadata"]["library_version"]
    assert payload["rows"][0]["ratio_d"] is None
    assert payload["rows"][1]["p_ken"] == pytest.approx(0.335160023018, rel=1e-11)


def test_json_refuses_non_finite_numbers():
    table = Table(("x",), [{"x": math.inf}])
    with pytest.raises(ValueError):
        write_json(table, io.StringIO())


def test_figure_table_dispatch():
    assert figure_table(1, alpha2_grid=[0.1], beta2_grid=[1.0]).metadata["figure"] == 1
    assert figure_table(5, beta2_grid=[1.0]).metadata["figure"] == 5
    t3 = figure_table(3, alpha2_grid=None, n_angles=64)
    assert t3.metadata["figure"] == 3 and t3.metadata["beta2"] == 1.0
    t4 = figure_table(4, n_angles=64)
    assert t4.metadata["figure"] == 4 and t4.metadata["beta2"] == 10.0
    with pytest.raises(ValueError):
        figure_table(6)


@pytest.mark.parametrize(
    "fig_id,options,unused",
    [
        (1, dict(tail_tol=0.5, n_angles=100, alpha2=7.0, cross_check_alpha2=0.3),
         "alpha2, cross_check_alpha2, n_angles, tail_tol"),
        (2, dict(beta2=1.0), "beta2"),
        (3, dict(alpha2_grid=[0.1], beta2_grid=[1.0]), "alpha2_grid, beta2_grid"),
        (4, dict(cross_check_alpha2=0.1), "cross_check_alpha2"),
        (5, dict(alpha2_grid=[0.1], n_angles=8), "alpha2_grid, n_angles"),
        # a name no figure takes, misspelt, is refused the same way
        (1, dict(alpha_grid=[0.1]), "alpha_grid"),
    ],
)
def test_figure_table_rejects_options_the_figure_does_not_use(fig_id, options, unused):
    with pytest.raises(ValueError, match=f"figure {fig_id} does not use {unused}$"):
        figure_table(fig_id, **options)


@pytest.mark.parametrize(
    "fig_id,option,value",
    [
        *((fig_id, "tail_tol", tol)
          for fig_id in (2, 3, 4, 5) for tol in (math.nan, 5.0, -1.0, 0.0, 1.0)),
        *((5, "cross_check_alpha2", x) for x in (math.nan, math.inf, -1.0)),
    ],
)
def test_figure_table_checks_tail_tol_and_cross_check(fig_id, option, value):
    with pytest.raises(ValueError, match=f"^{option} must "):
        figure_table(fig_id, **{option: value})


@pytest.mark.parametrize("key", sorted(FIGURE_REFERENCES))
def test_figure_matches_benchmark_reference(key):
    name, *options = key.split()
    kwargs = {}
    for option in options:
        option_name, value = option.split("=")
        if value != "default":
            kwargs[option_name] = int(value) if value.isdigit() else float(value)
    buf = io.StringIO()
    write_csv(figure_table(int(name.removeprefix("figure")), **kwargs), buf)
    assert buf.getvalue() == FIGURE_REFERENCES[key]
