"""Bit-exact outputs of the analytic layer at fixed strengths.

Each value is ``float.hex`` of the result and of every float in its
metadata, so any change to a floating-point operation in the Poisson
weights, the ML kernel or the sector sum shows here, however small.
"""

import pytest

from phasekit.helstrom import d_err_small_alpha, p_err_optimal
from phasekit.model import Beamsplitter, PulsePair, homodyne_splitter, kennedy_angle
from phasekit.receivers import p_beamsplitter_ml, p_homodyne_generalized


def _ml_at(splitter):
    return lambda pair: p_beamsplitter_ml(pair, splitter(pair))


RECEIVERS = {
    "ml_phi0": _ml_at(lambda pair: Beamsplitter(0.0)),
    "ml_quarter": _ml_at(lambda pair: homodyne_splitter()),
    "ml_dark_port": _ml_at(kennedy_angle),  # infinite slope in port 1
    "ml_interior": _ml_at(lambda pair: Beamsplitter(0.3)),
    "homodyne": p_homodyne_generalized,
    "optimal": p_err_optimal,
    "series": d_err_small_alpha,
}


def _as_hex(value):
    return value.hex() if isinstance(value, float) else value


def _record(name, alpha2, beta2):
    result = RECEIVERS[name](PulsePair(alpha2, beta2))
    if isinstance(result, float):
        return result.hex()
    metadata = sorted((key, _as_hex(value)) for key, value in result.metadata.items())
    return (result.method, result.error_probability.hex(), *metadata)


GOLDEN = {
    ("ml_phi0", 0.1, 10.0): (
        "beamsplitter_ml",
        "0x1.0000000000000p-1",
        ("degenerate", True),
        ("phi", "0x0.0p+0"),
    ),
    ("ml_quarter", 0.1, 1.0): (
        "beamsplitter_ml",
        "0x1.31869e458b49cp-2",
        ("error_bound", "0x1.19799812dea11p-38"),
        ("m_cut", 13),
        ("n_cut", 13),
        ("neglected_mass", "0x1.81f0000000000p-40"),
        ("phi", "0x1.921fb54442d18p-1"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_quarter", 0.1, 1000.0): (
        "beamsplitter_ml",
        "0x1.0de569f90d1e2p-2",
        ("error_bound", "0x1.19ad9812dea11p-38"),
        ("m_cut", 677),
        ("n_cut", 677),
        ("neglected_mass", "0x1.bda8000000000p-40"),
        ("phi", "0x1.921fb54442d18p-1"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_quarter", 0.1, 100000.0): (
        "beamsplitter_ml",
        "0x1.0ddeb5f4c4c17p-2",
        ("error_bound", "0x1.a5f933025bd42p-35"),
        ("m_cut", 51683),
        ("n_cut", 51683),
        ("neglected_mass", "0x1.49bea00000000p-34"),
        ("phi", "0x1.921fb54442d18p-1"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_quarter", 1e-300, 10.0): (
        "beamsplitter_ml",
        "0x1.0000000000000p-1",
        ("degenerate", True),
        ("phi", "0x1.921fb54442d18p-1"),
    ),
    ("ml_quarter", 0.0, 1.0): (
        "beamsplitter_ml",
        "0x1.0000000000000p-1",
        ("degenerate", True),
        ("phi", "0x1.921fb54442d18p-1"),
    ),
    ("ml_dark_port", 0.1, 1.0): (
        "beamsplitter_ml",
        "0x1.63e9e7acf8e89p-2",
        ("error_bound", "0x1.19799812dea11p-38"),
        ("m_cut", 10),
        ("n_cut", 15),
        ("neglected_mass", "0x1.8160000000000p-42"),
        ("phi", "0x1.39a0c6505ac6dp-2"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_dark_port", 0.1, 10.0): (
        "beamsplitter_ml",
        "0x1.5890d714cf6cap-2",
        ("error_bound", "0x1.19799812dea11p-38"),
        ("m_cut", 10),
        ("n_cut", 39),
        ("neglected_mass", "0x1.11a0000000000p-39"),
        ("phi", "0x1.983e282e2cc4cp-4"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_dark_port", 0.1, 100000.0): (
        "beamsplitter_ml",
        "0x1.5734396676d7ap-2",
        ("error_bound", "0x1.9a996604b7a84p-36"),
        ("m_cut", 10),
        ("n_cut", 102233),
        ("neglected_mass", "0x1.1833600000000p-34"),
        ("phi", "0x1.0624d77516e15p-10"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_dark_port", 1e-300, 1000.0): (
        "beamsplitter_ml",
        "0x1.fffffffffd5d8p-2",
        ("error_bound", "0x1.19799812dea11p-38"),
        ("m_cut", 0),
        ("n_cut", 1230),
        ("neglected_mass", "0x1.5138000000000p-39"),
        ("phi", "0x1.a7fdfb3dc0ef6p-504"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_interior", 0.1, 1e-300): (
        "beamsplitter_ml",
        "0x1.0000000000000p-1",
        ("degenerate", True),
        ("phi", "0x1.3333333333333p-2"),
    ),
    ("ml_interior", 0.1, 10.0): (
        "beamsplitter_ml",
        "0x1.0d1e778dcfe9ap-2",
        ("error_bound", "0x1.19799812dea11p-38"),
        ("m_cut", 16),
        ("n_cut", 39),
        ("neglected_mass", "0x1.5398000000000p-40"),
        ("phi", "0x1.3333333333333p-2"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_interior", 0.1, 1000.0): (
        "beamsplitter_ml",
        "0x1.0dde56c7c8b56p-2",
        ("error_bound", "0x1.25ad9812dea11p-38"),
        ("m_cut", 169),
        ("n_cut", 1139),
        ("neglected_mass", "0x1.1b2c000000000p-39"),
        ("phi", "0x1.3333333333333p-2"),
        ("tail_tol", "0x1.19799812dea11p-40"),
        ("tie_log_band", "0x1.19799812dea11p-40"),
    ),
    ("ml_interior", 1e-300, 1.0): (
        "beamsplitter_ml",
        "0x1.0000000000000p-1",
        ("degenerate", True),
        ("phi", "0x1.3333333333333p-2"),
    ),
    ("homodyne", 0.1, 1e-300): (
        "homodyne_generalized",
        "0x1.0000000000000p-1",
        ("degenerate", True),
    ),
    ("homodyne", 0.1, 1.0): (
        "homodyne_generalized",
        "0x1.31869e458b49bp-2",
        ("cutoff", 13),
        ("error_bound", "0x1.19799812dea11p-39"),
        ("neglected_mass", "0x1.81f0000000000p-41"),
        ("tail_tol", "0x1.19799812dea11p-40"),
    ),
    ("homodyne", 0.1, 100000.0): (
        "homodyne_generalized",
        "0x1.0ddeb5f4e66c6p-2",
        ("cutoff", 51683),
        ("error_bound", "0x1.a5f933025bd42p-36"),
        ("neglected_mass", "0x1.26fa000000000p-37"),
        ("tail_tol", "0x1.19799812dea11p-40"),
    ),
    ("homodyne", 1e-300, 1.0): (
        "homodyne_generalized",
        "0x1.0000000000000p-1",
        ("degenerate", True),
    ),
    ("optimal", 0.1, 1.0): (
        "helstrom_truncated",
        "0x1.1c154f410d847p-2",
        ("n_max", 23),
        ("tail_tol", "0x1.b7cdfd9d7bdbbp-34"),
        ("trace_norm", "0x1.c7d5617de4f72p-1"),
        ("truncation_bound", "0x1.465a360429b85p-51"),
    ),
    ("optimal", 0.1, 1000.0): (
        "helstrom_truncated",
        "0x1.b41d5a4229236p-3",
        ("n_max", 1218),
        ("tail_tol", "0x1.b7cdfd9d7bdbbp-34"),
        ("trace_norm", "0x1.25f152decfe8dp+0"),
        ("truncation_bound", "0x1.6af1bf5e49ba9p-38"),
    ),
    ("optimal", 0.1, 100000.0): (
        "helstrom_truncated",
        "0x1.b40af6db3f6dfp-3",
        ("n_max", 102028),
        ("tail_tol", "0x1.b7cdfd9d7bdbbp-34"),
        ("trace_norm", "0x1.25fa84915ff63p+0"),
        ("truncation_bound", "0x1.21d3488c51534p-32"),
    ),
    ("optimal", 1e-300, 10.0): (
        "helstrom_truncated",
        "0x1.0000000000000p-1",
        ("n_max", 46),
        ("tail_tol", "0x1.b7cdfd9d7bdbbp-34"),
        ("trace_norm", "0x1.9d7bcceda0069p-497"),
        ("truncation_bound", "0x1.1aa6e2c897e08p-46"),
    ),
    ("optimal", 0.0, 10.0): (
        "helstrom_truncated",
        "0x1.0000000000000p-1",
        ("degenerate", True),
        ("n_max", 0),
        ("tail_tol", "0x1.b7cdfd9d7bdbbp-34"),
        ("trace_norm", "0x0.0p+0"),
        ("truncation_bound", "0x0.0p+0"),
    ),
    ("series", 0.1, 1.0): "0x1.f4bf07c351857p-2",
    ("series", 0.1, 100000.0): "0x1.43d11b9da9ea8p-1",
    ("series", 1e-300, 1000.0): "0x1.a2f10cbced4d9p-498",
    ("series", 0.1, 1e-300): "0x1.08febd0698959p-499",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: f"{case[0]}-{case[1]}-{case[2]}")
def test_outputs_are_bit_for_bit_the_recorded_ones(case):
    assert _record(*case) == GOLDEN[case]
