"""Configuration resolution, provenance, and the command-line surface
(byte-determinism, embedded-config round trips, exit codes)."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmesim import cli
from fmesim import config as cfg_mod
from fmesim import protocol as pr
from fmesim.cli import main
from fmesim.config import ConfigError

TWO_PI = 2.0 * math.pi


def test_preset_delta_converted_to_angular():
    cfg = cfg_mod.load_config(preset="rb85-87")
    params = cfg_mod.build_setup(cfg).system
    assert params.delta == pytest.approx(TWO_PI * 1.368e9)
    assert cfg.provenance["delta"] == "paper"


def test_preset_paper_values_exact():
    cfg = cfg_mod.load_config(preset="rb85-87")
    assert cfg.values["delta"] == 1.368e9
    assert cfg.values["delta_omega_write"] == 1.8995e9
    assert cfg.values["delta_omega_read"] == 1.368e9
    for key in ("delta", "delta_omega_write", "delta_omega_read"):
        assert cfg.provenance[key] == "paper"


def test_preset_tags_every_other_value_default():
    cfg = cfg_mod.load_config(preset="rb85-87")
    paper = {"delta", "delta_omega_write", "delta_omega_read"}
    assert len(cfg_mod.RB85_87.values) == 10
    for key in cfg_mod.RB85_87.values:
        assert cfg.provenance[key] == ("paper" if key in paper else "default")


# The schema is the one place each configured value is checked: the records
# built from it (SystemParams, DetectorModel, ReadParams) check nothing.
OUT_OF_RANGE = [
    ("delta=0", "delta must be nonzero"),
    ("N_I=0.5", "N_I must be >= 1, got 0.5"),
    ("N_II=0.5", "N_II must be >= 1, got 0.5"),
    ("tau_write=0", "tau_write must be > 0, got 0.0"),
    ("eta=1.5", "eta must be in [0, 1], got 1.5"),
    ("dark_rate_hz=-1", "dark_rate_hz must be >= 0, got -1.0"),
    ("gate_s=0", "gate_s must be > 0, got 0.0"),
    ("retrieval_efficiency_I=1.5", "retrieval_efficiency_I must be in [0, 1], got 1.5"),
    ("retrieval_efficiency_II=-0.5", "retrieval_efficiency_II must be in [0, 1], got -0.5"),
]


@pytest.mark.parametrize("override, message", OUT_OF_RANGE,
                         ids=[override.split("=")[0] for override, _ in OUT_OF_RANGE])
def test_out_of_range_override_rejected(override, message, capsys):
    with pytest.raises(ConfigError) as err:
        cfg_mod.load_config(preset="rb85-87", overrides=[override])
    assert str(err.value) == message
    assert run_cli("protocol", "--preset", "rb85-87", "--runs", "10000000", "--set", override) == 2
    assert capsys.readouterr().err == f"error: {message}\n"  # and no progress line


def test_empty_config_lists_missing_keys():
    with pytest.raises(ConfigError) as err:
        cfg_mod.load_config()
    message = str(err.value)
    for key in cfg_mod.REQUIRED_KEYS:
        assert key in message


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="no_such_key"):
        cfg_mod.load_config(preset="rb85-87", overrides=["no_such_key=1"])


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        cfg_mod.load_config(preset="cesium")


def test_complex_drive_from_pair():
    cfg = cfg_mod.load_config(
        preset="rb85-87", overrides=["omega_rabi_write_I=[0.0, 1.0e7]"]
    )
    params = cfg_mod.build_setup(cfg).system
    assert params.omega_W_I == pytest.approx(TWO_PI * 1.0e7j)


REMOVED_KEYS = (
    "tau_read", "cycle_period", "omega_rabi_read_I", "omega_rabi_read_II",
    "g_read_I", "g_read_II", "kappa", "gamma_gs", "gamma_1", "gamma_2",
    "omega_out_I", "omega_out_II",
)


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_exits_2(key, tmp_path, capsys):
    # a config embedded in an output written before the key was removed
    data = cfg_mod.load_config(preset="rb85-87").serializable_values()
    data[key] = 1.0e-6
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    assert run_cli("protocol", "--config", str(path), "--runs", "5") == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_set_exits_2(key, capsys):
    # no override sets a removed key, nor the rails apart from -/+ delta_omega_read
    assert run_cli("protocol", "--preset", "rb85-87", "--runs", "5", "--set", f"{key}=1") == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "runs" not in err


# One valid value per key, different from the preset's and chosen to bind
# (no run reaches the default retry budget, so max_trials must be 1).
MOVED_VALUES = {
    "g_I": 60.0, "g_II": 60.0, "N_I": 2.0e8, "N_II": 2.0e8,
    "omega_rabi_write_I": 2.0e7, "omega_rabi_write_II": 2.0e7, "delta": 2.0e9,
    "tau_write": 2.0e-6,
    "delta_omega_write": 1.0e9, "delta_omega_read": 1.0e9,
    "eta": 0.5, "dark_rate_hz": 1000.0, "gate_s": 2.0e-6, "max_trials": 1,
    "cutoff": 3, "engine": "exact", "runs": 300,
    "retrieval_efficiency_I": 0.5, "retrieval_efficiency_II": 0.5, "read_phase": 1.0,
}
# The paper's published write sideband splitting, kept for acceptance criterion 7;
# the read splitting moves retrieve's output frequencies.
DOCUMENTARY_KEYS = {"delta_omega_write"}


def _reported(overrides):
    """What write-sim, herald, retrieve and protocol print for the preset with
    the overrides, less the metadata and the per-row config."""
    sets = [arg for text in overrides for arg in ("--set", text)]
    reported = []
    for command in (["write-sim"], ["herald"], ["retrieve"],
                    ["protocol", "--format", "json", "--set", "runs=200"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings at the moved values
            code = main([*command, "--preset", "rb85-87", *sets])
        data = json.loads(out.getvalue())
        data.pop("metadata")
        for row in data.get("results", []):
            row.pop("config")
        reported.append((code, data))
    return reported


def test_every_key_moves_a_reported_number():
    assert sorted(MOVED_VALUES) == sorted(cfg_mod.SCHEMA)
    base = _reported([])
    unmoved = {
        key for key, value in MOVED_VALUES.items()
        if _reported([f"{key}={json.dumps(value)}"]) == base
    }
    assert unmoved == DOCUMENTARY_KEYS


def test_config_file_and_override_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    base = cfg_mod.load_config(preset="rb85-87")
    data = base.serializable_values()
    data["eta"] = 0.8
    path.write_text(json.dumps(data))
    cfg = cfg_mod.load_config(path=str(path), overrides=["eta=0.9"])
    assert cfg.values["eta"] == 0.9
    assert cfg.provenance["eta"] == "user"


def test_dark_rate_not_angular():
    cfg = cfg_mod.load_config(preset="rb85-87")
    det = cfg_mod.build_setup(cfg).detector
    assert det.dark_rate == 400.0
    assert det.p_dark == pytest.approx(1.0 - math.exp(-4.0e-4))


def run_cli(*argv):
    return main(list(argv))


def test_preset_list_flags_paper_values(tmp_path, capsys):
    assert run_cli("preset-list") == 0
    out = capsys.readouterr().out
    assert "rb85-87" in out
    assert "delta = 1368000000.0 Hz [paper]" in out
    assert "delta_omega_write = 1899500000.0 Hz [paper]" in out
    assert "delta_omega_read = 1368000000.0 Hz [paper]" in out
    assert "[default]" in out
    # no untagged numeric lines: every key line carries a provenance flag
    for line in out.splitlines():
        if " = " in line:
            assert "[paper]" in line or "[default]" in line


def test_retrieve_reports_maximal_entanglement(tmp_path):
    out = tmp_path / "qubit.json"
    code = run_cli("retrieve", "--preset", "rb85-87", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["concurrence"] == pytest.approx(1.0, abs=1e-10)
    assert data["retrieval_efficiency"] == 1.0
    assert data["omega_I_hz"] == pytest.approx(-1.368e9)
    assert data["metadata"]["provenance"]["delta"] == "paper"


def test_write_sim_output(tmp_path):
    out = tmp_path / "write.json"
    assert run_cli("write-sim", "--preset", "rb85-87", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    p_i = complex(*data["derived_rates_rad_per_s"]["P_I"])
    assert 0.05 < abs(p_i) < 0.15
    occ = data["expected_occupation"]
    assert occ["photon"] == pytest.approx(occ["spin_I"] + occ["spin_II"], abs=1e-12)


def test_herald_output(tmp_path):
    out = tmp_path / "herald.json"
    assert run_cli("herald", "--preset", "rb85-87", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert 0.0 < data["p_click"] < 1.0
    assert data["p_dark"] == pytest.approx(1.0 - math.exp(-4.0e-4))
    kinds = {b["kind"] for b in data["branches"]}
    assert kinds == {"photon", "dark"}
    conditional = data["conditional_state_single_photon"]
    assert sorted(conditional) == ["spin_I", "spin_II"]
    spin_i, spin_ii = complex(*conditional["spin_I"]), complex(*conditional["spin_II"])
    assert abs(spin_i) ** 2 + abs(spin_ii) ** 2 == pytest.approx(1.0, abs=1e-15)
    assert spin_i == pytest.approx(-spin_ii, abs=1e-15)  # balanced drive: the singlet


def test_write_sim_warns_once_on_weak_drive(tmp_path, capsys):
    # a regime warning prints as one line on stderr, named by the command
    out = tmp_path / "write.json"
    assert run_cli(
        "write-sim", "--preset", "rb85-87", "--set", "tau_write=1e-3", "--out", str(out)
    ) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "weak-drive" in line] == [
        "warning: write-sim: excitation amplitude P = 23 is outside the weak-drive regime "
        "(P << 1); perturbative results are unreliable"
    ]


def test_sweep_warnings_name_their_row(capsys):
    # both rows leave the adiabatic and the weak-drive regime: each row's
    # warnings print once, named as its progress lines are
    assert run_cli("sweep", "--preset", "rb85-87", "--runs", "2", "--sweep", "delta=1e9,-1e9",
                   "--set", "omega_rabi_write_I=1e9", "--out", os.devnull) == 0
    warned = [line for line in capsys.readouterr().err.splitlines()
              if not line.endswith(" runs")]
    assert warned == [
        f"warning: sweep row {row}/2: {message}" for row in (1, 2) for message in (
            "|Omega_W|/|Delta| = 1 exceeds 0.3; the adiabatic elimination is unreliable here",
            "excitation amplitude P = 12.6 is outside the weak-drive regime (P << 1); "
            "perturbative results are unreliable")]


def test_exact_engine_does_not_warn_on_strong_drive(tmp_path, capsys):
    # P = 2.3: the closed form is exact at any P, so only the perturbative
    # route warns
    out = tmp_path / "write.json"
    assert run_cli(
        "write-sim", "--preset", "rb85-87", "--set", "engine=exact",
        "--set", "tau_write=1e-4", "--out", str(out),
    ) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "weak-drive" in line] == []


@pytest.mark.parametrize("cutoff", [1, 2, 32])
def test_exact_occupation_includes_weight_above_cutoff(tmp_path, cutoff):
    # the untruncated two-mode squeezed vacuum has mean photon number sinh^2 r
    out = tmp_path / "write.json"
    assert run_cli(
        "write-sim", "--preset", "rb85-87", "--set", "engine=exact",
        "--set", "tau_write=1e-4", "--set", f"cutoff={cutoff}", "--out", str(out),
    ) == 0
    occ = json.loads(out.read_text())["expected_occupation"]
    assert occ["photon"] == pytest.approx(165.0297293048, rel=1e-12)
    assert occ["spin_I"] + occ["spin_II"] == pytest.approx(occ["photon"], rel=1e-15)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_saturated_state_reports_null_occupation(tmp_path):
    # cosh r overflows: c_0 = 0 and the whole state lies above the cutoff
    out = tmp_path / "write.json"
    assert run_cli(
        "write-sim", "--preset", "rb85-87", "--set", "engine=exact",
        "--set", "N_I=1e300", "--out", str(out),
    ) == 0
    data = json.loads(out.read_text())
    assert data["write_state"]["tail_ratio"] == 1.0
    assert data["expected_occupation"] == {"photon": None, "spin_I": None, "spin_II": None}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_certain_click_reports_probability_one(tmp_path):
    # the branch probabilities of this detector sum to 1.0000000000000002
    certain = ("--preset", "rb85-87", "--set", "eta=1", "--set", "dark_rate_hz=4e7")
    herald, stats = tmp_path / "herald.json", tmp_path / "stats.json"
    assert run_cli("herald", *certain, "--out", str(herald)) == 0
    assert json.loads(herald.read_text())["p_click"] == 1.0
    assert run_cli(
        "protocol", *certain, "--runs", "300", "--format", "json", "--out", str(stats)
    ) == 0
    row = json.loads(stats.read_text())["results"][0]
    assert row["p_click_analytic"] == row["p_click"] == 1.0
    assert row["n_trials"] == row["n_success"] == row["n_runs"] == 300  # one trial per run


def test_protocol_byte_identical_across_runs_and_workers(tmp_path):
    args = ["protocol", "--preset", "rb85-87", "--seed", "42", "--runs", "200"]
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
        path = tmp_path / f"{name}.csv"
        assert run_cli(*args, "--out", str(path), *extra) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_protocol_round_trip_from_embedded_config(tmp_path):
    first = tmp_path / "first.csv"
    assert run_cli(
        "protocol", "--preset", "rb85-87", "--seed", "7", "--runs", "50",
        "--out", str(first),
    ) == 0
    embedded = None
    for line in first.read_text().splitlines():
        if line.startswith("# config: "):
            embedded = json.loads(line[len("# config: "):])
    assert embedded is not None
    cfg_path = tmp_path / "embedded.json"
    cfg_path.write_text(json.dumps(embedded))
    second = tmp_path / "second.csv"
    assert run_cli(
        "protocol", "--config", str(cfg_path), "--seed", "7", "--out", str(second)
    ) == 0
    # identical data rows (comment lines differ only in provenance tags)
    rows1 = [l for l in first.read_text().splitlines() if not l.startswith("#")]
    rows2 = [l for l in second.read_text().splitlines() if not l.startswith("#")]
    assert rows1 == rows2


def test_protocol_json_format(tmp_path):
    out = tmp_path / "stats.json"
    assert run_cli(
        "protocol", "--preset", "rb85-87", "--seed", "1", "--runs", "50",
        "--format", "json", "--out", str(out),
    ) == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["seed"] == 1
    row = data["results"][0]
    assert row["n_runs"] == 50
    assert 0.0 <= row["p_click"] <= 1.0


# The output contract: every protocol/sweep row holds these statistics, in
# this order, after its row index and configuration.
STAT_NAMES = [
    "n_runs", "n_trials", "n_success",
    "p_click", "p_click_stderr", "p_click_analytic",
    "mean_trials", "mean_trials_stderr",
    "false_herald_fraction", "false_herald_analytic",
    "mean_concurrence", "mean_fidelity_bell", "photon_yield",
]


@pytest.mark.parametrize("sets", [
    [],
    ["omega_rabi_write_I=2e7", "retrieval_efficiency_I=0.5", "read_phase=1.0",
     "dark_rate_hz=1e5"],
    ["engine=exact", "cutoff=32"],
], ids=["preset", "unbalanced-dark-rotated", "exact-cutoff-32"])
def test_output_columns_are_named(tmp_path, sets):
    # Every true herald retrieves the one output qubit, so the row's mean
    # concurrence and fidelity are what retrieve prints, exactly, and carry
    # no standard error column.
    sets = [arg for text in sets for arg in ("--set", text)]
    args = ("protocol", "--preset", "rb85-87", *sets, "--runs", "50", "--seed", "1")
    csv_out, json_out = tmp_path / "stats.csv", tmp_path / "stats.json"
    assert run_cli(*args, "--out", str(csv_out)) == 0
    header = next(l for l in csv_out.read_text().splitlines() if not l.startswith("#"))
    assert header.split(",") == ["row", *sorted(cfg_mod.SCHEMA), *STAT_NAMES]
    assert run_cli(*args, "--format", "json", "--out", str(json_out)) == 0
    (row,) = json.loads(json_out.read_text())["results"]
    assert list(row) == ["row", "config", *STAT_NAMES]
    assert sorted(row["config"]) == sorted(cfg_mod.SCHEMA)
    qubit_out = tmp_path / "qubit.json"
    assert run_cli("retrieve", "--preset", "rb85-87", *sets, "--out", str(qubit_out)) == 0
    qubit = json.loads(qubit_out.read_text())
    assert (row["mean_concurrence"], row["mean_fidelity_bell"]) == (
        qubit["concurrence"], qubit["fidelity_bell"])


JSON_TABLES = {
    "protocol": ("protocol",),
    "sweep": ("sweep", "--sweep", "omega_rabi_write_I=[[1e7,0],[2e7,1e6]]",
              "--sweep", "eta=0,0.6", "--sweep", "engine=perturbative,exact"),
}


@pytest.mark.parametrize("command", sorted(JSON_TABLES))
def test_json_table_equals_one_indented_dump(command, tmp_path):
    # the table is written entry by entry around the dumped framing, so its
    # bytes must equal one json.dumps of the whole table, rows in grid order
    out = tmp_path / "table.json"
    args = ("--preset", "rb85-87", "--runs", "500", "--seed", "4", "--format", "json")
    assert run_cli(*JSON_TABLES[command], *args, "--out", str(out)) == 0
    text = out.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2) + "\n"
    results = data["results"]
    assert [r["row"] for r in results] == list(range(len(results)))
    names = ("omega_rabi_write_I", "eta", "engine")
    grid = [tuple(r["config"][name] for name in names) for r in results]
    if command == "protocol":
        assert grid == [tuple(data["metadata"]["config"][name] for name in names)]
        return
    assert grid == [(drive, eta, engine) for drive in ([1e7, 0.0], [2e7, 1e6])
                    for eta in (0.0, 0.6) for engine in ("perturbative", "exact")]
    # eta = 0 detects no photon, so no true herald gives a concurrence
    assert [r["mean_concurrence"] is None for r in results] == [eta == 0 for _, eta, _ in grid]


def test_sweep_dark_rates(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "--preset", "rb85-87", "--seed", "5", "--runs", "100",
        "--sweep", "dark_rate_hz=400,50,5", "--out", str(out),
    ) == 0
    import csv as csv_mod

    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    parsed = list(csv_mod.reader(lines))
    header = parsed[0]
    rows = [dict(zip(header, row)) for row in parsed[1:]]
    assert [float(r["dark_rate_hz"]) for r in rows] == [400.0, 50.0, 5.0]
    analytic = [float(r["false_herald_analytic"]) for r in rows]
    assert analytic[0] > analytic[1] > analytic[2]


@pytest.mark.parametrize("runs, numpy_argv, stdlib_argv", [
    # Two sweep rows of 65,536 runs hold 2^17 runs in all, so cli._run_rows
    # has the numpy kernel draw row 0; protocol draws the same runs (row 0,
    # same seed, eta = 0.6 in both) with the standard-library kernel.
    (65536, ["sweep", "--sweep", "eta=0.6,0.5"], ["protocol"]),
    # Two sweep rows of 65,535 runs draw with the standard-library kernel; a
    # third row takes the invocation past 2^17 runs, so all three draw with numpy.
    (65535, ["sweep", "--sweep", "eta=0.3,0.6,0.9"], ["sweep", "--sweep", "eta=0.3,0.6"]),
], ids=["sweep-row-vs-protocol", "three-rows-vs-two"])
def test_sweep_row_on_the_numpy_kernel_equals_protocol_on_the_standard_library(
        tmp_path, monkeypatch, runs, numpy_argv, stdlib_argv):
    # The rows the standard-library kernel draws are those of the numpy
    # kernel, to the byte.
    drawn = []

    def spy(name):
        kernel = getattr(pr, name)
        return lambda engine, runs, chunk: drawn.append(name) or kernel(engine, runs, chunk)

    for name in ("_numpy_kernel", "_stdlib_kernel"):
        monkeypatch.setattr(pr, name, spy(name))
    results, kernels = [], []
    for argv in (numpy_argv, stdlib_argv):
        drawn.clear()
        out = tmp_path / "table.json"
        assert run_cli(*argv, "--preset", "rb85-87", "--seed", "7", "--runs", str(runs),
                       "--format", "json", "--out", str(out)) == 0
        results.append(json.loads(out.read_text())["results"])
        kernels.append(set(drawn))
    assert kernels == [{"_numpy_kernel"}, {"_stdlib_kernel"}]
    numpy_rows, stdlib_rows = results
    assert numpy_rows[:len(stdlib_rows)] == stdlib_rows
    assert [row["n_runs"] for row in stdlib_rows] == [runs] * len(stdlib_rows)
    assert all(0 < row["n_success"] for row in stdlib_rows)


def test_bad_config_exits_2(capsys):
    assert run_cli("protocol", "--preset", "rb85-87", "--set", "eta=2.0") == 2
    assert "eta" in capsys.readouterr().err


# preset-list reads no configuration and draws nothing: it takes only --out
@pytest.mark.parametrize("argv", [
    ["no-such-command"], ["preset-list", "--set", "bogus=1"], ["preset-list", "--preset", "nope"],
    ["preset-list", "--config", "/nonexistent.json"], ["preset-list", "--seed", "-5"],
], ids=" ".join)
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    named = argv[1] if argv[0] == "preset-list" else argv[0]
    assert named in capsys.readouterr().err


def test_no_success_exits_3(tmp_path):
    out = tmp_path / "none.csv"
    code = run_cli(
        "protocol", "--preset", "rb85-87", "--seed", "2", "--runs", "2",
        "--set", "eta=0.0", "--set", "dark_rate_hz=0.0",
        "--set", "max_trials=5", "--out", str(out),
    )
    assert code == 3


def test_seed_changes_output(tmp_path):
    paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for path, seed in zip(paths, ("1", "2")):
        assert run_cli(
            "protocol", "--preset", "rb85-87", "--seed", seed, "--runs", "100",
            "--out", str(path),
        ) == 0
    assert paths[0].read_bytes() != paths[1].read_bytes()


FLOAT_KEYS = sorted(k for k, s in cfg_mod.SCHEMA.items() if s.kind == "float")
COMPLEX_KEYS = sorted(k for k, s in cfg_mod.SCHEMA.items() if s.kind == "complex")
NON_FINITE = ("NaN", "Infinity", "-Infinity")  # JSON spellings of nan, inf, -inf
BASE_CONFIG = cfg_mod.load_config(preset="rb85-87")


def test_non_finite_number_rejected():
    for key in FLOAT_KEYS + COMPLEX_KEYS:
        for text in NON_FINITE:
            with pytest.raises(ConfigError, match=re.escape(key)):
                cfg_mod.load_config(preset="rb85-87", overrides=[f"{key}={text}"])


@given(
    key=st.sampled_from(FLOAT_KEYS + COMPLEX_KEYS),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    part=st.sampled_from(["number", "real", "imag"]),
)
def test_non_finite_override_value_rejected(key, value, part):
    raw = value
    if cfg_mod.SCHEMA[key].kind == "complex" and part != "number":
        raw = [value, 1.0] if part == "real" else [1.0, value]
    with pytest.raises(ConfigError, match=re.escape(key)):
        cfg_mod.with_overrides(BASE_CONFIG, {key: raw})


@pytest.mark.parametrize("override", ["dark_rate_hz=NaN", "g_I=NaN"])
def test_non_finite_override_exits_2(override, capsys):
    assert run_cli("protocol", "--preset", "rb85-87", "--set", override) == 2
    assert override.split("=")[0] in capsys.readouterr().err


# An integer beyond float range (float() raises OverflowError) used to exit 4
# as "numeric failure: int too large to convert to float", naming no key.
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("key, value, kind", [
    ("N_I", HUGE, "float"),
    ("omega_rabi_write_I", HUGE, "complex"),
    ("omega_rabi_write_II", f"[1, {HUGE}]", "complex"),
], ids=["float", "complex", "complex-pair"])
@pytest.mark.parametrize("source", ["set", "config", "sweep"])
def test_integer_beyond_float_range_exits_2(key, value, kind, source, tmp_path, capsys):
    if source == "set":
        args = ("--set", f"{key}={value}")
    elif source == "config":
        path = tmp_path / "huge.json"
        path.write_text(f'{{"{key}": {value}}}')
        args = ("--config", str(path))
    else:  # a JSON list axis, so a complex pair stays one value
        args = ("--sweep", f"{key}=[1e7, {value}]")
    command = "sweep" if source == "sweep" else "protocol"
    assert run_cli(command, "--preset", "rb85-87", "--runs", "10000000", *args) == 2
    # the value's repr, with the middle of the 401-digit integer elided
    shown = value.replace(HUGE, "1" + "0" * 17 + "..." + "0" * 19)
    assert capsys.readouterr().err == f"error: {key}: cannot interpret value {shown} as {kind}\n"


@pytest.mark.parametrize("key, value, shown, message", [
    ("N_I", "[" * 200 + "]" * 200, "[[[[[[[...]]]]]]]", "N_I: cannot interpret value {} as float"),
    ("N_I", "x" * 5000, "'" + "x" * 12 + "..." + "x" * 13 + "'",
     "N_I: cannot interpret value {} as float"),
    ("engine", "[" + "0, " * 3000 + "0]", "[0, 0, 0, 0, 0, 0, ...]",
     "engine must be one of ('perturbative', 'exact'), got {}"),
    ("engine", "x" * 5000, "'" + "x" * 12 + "..." + "x" * 13 + "'",
     "engine must be one of ('perturbative', 'exact'), got {}"),
], ids=["nested", "long-string", "long-list-choice", "long-string-choice"])
def test_rejected_value_is_abridged(key, value, shown, message, capsys):
    # a rejected value used to be echoed whole, however long
    assert run_cli("protocol", "--preset", "rb85-87", "--set", f"{key}={value}") == 2
    assert capsys.readouterr().err == "error: " + message.format(shown) + "\n"


def test_deeply_nested_value_is_abridged_on_the_command_line():
    # 3,000 levels pass the JSON decoder's recursion limit, so the value stays
    # the 6,000-character string, which was echoed whole in a 6,047-byte line
    argv = ["protocol", "--preset", "rb85-87", "--set", "N_I=" + "[" * 3000 + "]" * 3000]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "fmesim", *argv], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 2
    shown = "'" + "[" * 12 + "..." + "]" * 13 + "'"
    assert out.stderr == f"error: N_I: cannot interpret value {shown} as float\n"


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # Python refuses to parse an integer of more than 4300 digits (a ValueError
    # that is not a JSONDecodeError), which used to end in a traceback.
    digits = "1" * 5000
    shown = "'" + "1" * 12 + "..." + "1" * 13 + "'"  # the string's repr, middle elided
    assert run_cli("protocol", "--preset", "rb85-87", "--set", f"N_I={digits}") == 2
    assert capsys.readouterr().err == f"error: N_I: cannot interpret value {shown} as float\n"
    assert run_cli("sweep", "--preset", "rb85-87", "--sweep", f"N_I=1e8,{digits}") == 2
    assert capsys.readouterr().err == f"error: N_I: cannot interpret value {shown} as float\n"
    path = tmp_path / "digits.json"
    path.write_text(f'{{"N_I": {digits}}}')
    assert run_cli("protocol", "--preset", "rb85-87", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON: Exceeds the limit")


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback and exit 1
    path = tmp_path / "f.json"
    path.write_bytes(b'{"eta": 0.5\xff}')
    assert run_cli("herald", "--preset", "rb85-87", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON: 'utf-8' codec")
    assert err.count("\n") == 1


# Nested deeper than the recursion limit, json's decoder raises RecursionError,
# which used to end in a traceback and exit 1.
DEEP = "[" * 3000 + "]" * 3000


def test_deeply_nested_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"N_I": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run_cli("herald", "--preset", "rb85-87", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ("protocol", "--set", f"N_I={DEEP}"),
    ("sweep", "--sweep", f"N_I={DEEP}"),
    ("sweep", "--sweep", f"N_I=1,{DEEP}"),
], ids=["set", "sweep-list", "sweep-value"])
def test_deeply_nested_value_exits_2(command, capsys):
    assert run_cli(*command, "--preset", "rb85-87", "--runs", "5") == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: N_I: ", "error: --sweep N_I: ")) and err.count("\n") == 1


# 10^5 levels of objects, with no comma to split a --sweep axis on
DEEP_OBJECT = '{"a": ' * 100_000 + "1" + "}" * 100_000


@pytest.mark.parametrize("text, value", [
    ("2.5e7", 2.5e7),
    ("perturbative", "perturbative"),
    ("1" * 5000, "1" * 5000),
    (DEEP_OBJECT, DEEP_OBJECT),
], ids=["number", "bare-string", "past-digit-limit", "nested-1e5"])
def test_set_and_sweep_read_a_value_alike(text, value):
    # JSON when it parses, else the text, by config.parse_value either way
    assert cfg_mod.parse_set_override(f"N_I={text}") == ("N_I", value)
    assert cli._parse_sweep_axis(f"N_I={text}") == ("N_I", [value])


@pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 5), "-1"])
def test_seed_outside_64_bits_exits_2(seed, capsys):
    assert run_cli("protocol", "--preset", "rb85-87", "--runs", "5", "--seed", seed) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("protocol",), ("sweep", "--sweep", "eta=0.5")])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(command, workers, capsys):
    args = (*command, "--preset", "rb85-87", "--runs", "5", "--workers", workers)
    assert run_cli(*args) == 2
    assert "--workers" in capsys.readouterr().err


# Test-only modules: the runtime depends on numpy alone and ships no oracle.
TEST_ONLY_MODULES = ("scipy", "hypothesis", "pytest", "hilbert", "write_oracles", "polariton")


def test_cli_import_loads_no_executor():
    # no executor is imported: the process pool's import cost every command about 15 ms;
    # sys.path below includes tests/, so an import of an oracle module would succeed
    code = (
        "import sys, fmesim.cli; print(sorted(m for m in sys.modules "
        f"if 'concurrent' in m or m.split('.')[0] in {TEST_ONLY_MODULES!r}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_protocol_run_imports_no_dataclasses():
    # the records are NamedTuples, so no run pays for importing dataclasses or building them
    code = (
        "import sys\nfrom fmesim.cli import main\ncode = main(sys.argv[1:])\n"
        "print('dataclasses' in sys.modules, file=sys.stderr)\nsys.exit(code)"
    )
    argv = ["protocol", "--preset", "rb85-87", "--runs", "300"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "False"


def test_setup_path_imports_no_numpy():
    # tests/setup_without_numpy.py runs each set-up, state-command and
    # small Monte Carlo case in a fresh interpreter with numpy blocked; CI runs
    # the same script against the installed package
    script = os.path.join(os.path.dirname(__file__), "setup_without_numpy.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, script], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("\nok ") == 24


def test_bad_sweep_value_exits_before_any_row(capsys):
    args = ("sweep", "--preset", "rb85-87", "--runs", "1000000")
    assert run_cli(*args, "--sweep", "eta=0.5,0.6,2") == 2
    assert capsys.readouterr().err == "error: eta must be in [0, 1], got 2.0\n"
    # rejected by the engine build, not the schema: the good first row draws no run either
    dark_ii = ("--set", "retrieval_efficiency_II=0", "--sweep", "retrieval_efficiency_I=1,0")
    assert run_cli(*args, *dark_ii) == 2
    err = capsys.readouterr().err
    assert "sweep row" not in err  # no progress line
    assert err.startswith("error: a true herald retrieves no photon") and err.count("\n") == 1


def test_runs_beyond_32_bit_counter_exits_2(capsys):
    assert run_cli("protocol", "--preset", "rb85-87", "--runs", str(2**32 + 1)) == 2
    assert "runs" in capsys.readouterr().err


def test_max_trials_beyond_32_bit_counter_exits_2(capsys):
    args = ("protocol", "--preset", "rb85-87", "--runs", "5")
    assert run_cli(*args, "--set", f"max_trials={2**32 + 1}") == 2
    assert "max_trials" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", [33, 100000])
def test_cutoff_beyond_bound_exits_2(cutoff, capsys):
    args = ("herald", "--preset", "rb85-87", "--set", f"cutoff={cutoff}")
    assert run_cli(*args) == 2
    assert "cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["perturbative", "exact"])
def test_cutoff_bound_is_inclusive(engine, tmp_path):
    args = ("herald", "--preset", "rb85-87", "--set", "cutoff=32", "--set", f"engine={engine}")
    assert run_cli(*args, "--out", str(tmp_path / "h.json")) == 0


def test_counter_bounds_are_inclusive():
    cfg = cfg_mod.load_config(
        preset="rb85-87", overrides=[f"runs={2**32}", f"max_trials={2**32}"]
    )
    assert cfg.values["runs"] == cfg.values["max_trials"] == 2**32


def test_sweep_repeated_key_exits_2(capsys):
    # a later axis on the same key used to overwrite the earlier one, so
    # eta 0.5 and 0.6 never ran and both rows read eta 0.7
    args = ("sweep", "--preset", "rb85-87", "--runs", "10", "--format", "json")
    assert run_cli(*args, "--sweep", "eta=0.5,0.6", "--sweep", "eta=0.7") == 2
    err = capsys.readouterr().err
    assert re.search(r"\beta\b", err) and "sweep row" not in err


def test_sweep_grid_beyond_row_limit_exits_2(monkeypatch, capsys):
    # rows key the random streams, so a grid may not exceed ROW_LIMIT rows;
    # the check runs before the grid is expanded (test_cli_process.py runs an
    # unpatched grid of 8.1e9 rows)
    monkeypatch.setattr(cfg_mod, "ROW_LIMIT", 4)
    args = ("sweep", "--preset", "rb85-87", "--runs", "10", "--out", os.devnull)
    assert run_cli(*args, "--sweep", "eta=0.5,0.6", "--sweep", "gate_s=1e-6,2e-6") == 0
    capsys.readouterr()
    assert run_cli(*args, "--sweep", "eta=0.5,0.6,0.7", "--sweep", "gate_s=1e-6,2e-6") == 2
    err = capsys.readouterr().err
    assert "--sweep" in err and "6 points" in err and "sweep row" not in err


def test_sweep_removed_key_exits_2(capsys):
    args = ("sweep", "--preset", "rb85-87", "--runs", "10")
    assert run_cli(*args, "--sweep", "omega_out_II=-1.368e9") == 2
    err = capsys.readouterr().err
    assert repr("omega_out_II") in err and "sweep row" not in err


OUT_COMMANDS = (
    ("preset-list",),
    ("write-sim", "--preset", "rb85-87"),
    ("herald", "--preset", "rb85-87"),
    ("retrieve", "--preset", "rb85-87"),
    ("protocol", "--preset", "rb85-87", "--runs", "5"),
    ("sweep", "--preset", "rb85-87", "--runs", "5", "--sweep", "eta=0.5,0.6"),
)


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", OUT_COMMANDS, ids=lambda command: command[0])
def test_unwritable_out_exits_2(command, target, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
    assert run_cli(*command, "--out", str(out)) == 2
    last = capsys.readouterr().err.splitlines()[-1]  # after any progress lines
    assert last.startswith(f"error: cannot write --out {out}: ")


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", [c for c in OUT_COMMANDS if c[0] in ("protocol", "sweep")],
                         ids=lambda command: command[0])
def test_unwritable_out_exits_before_any_run(command, target, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
    assert run_cli(*command, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {out}: ") and "runs" not in err
    assert sorted(os.listdir(tmp_path)) == []  # the check creates nothing


@pytest.mark.parametrize("command", [c for c in OUT_COMMANDS
                                     if c[0] in ("herald", "protocol", "sweep")],
                         ids=lambda command: command[0])
def test_empty_out_exits_before_any_run(command, tmp_path, monkeypatch, capsys):
    # "" names no file, though os.path.dirname("") reads as the current directory
    monkeypatch.chdir(tmp_path)
    assert run_cli(*command, "--out", "") == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write --out : No such file or directory\n"
    assert os.listdir(tmp_path) == []


def test_writable_out_is_neither_created_nor_truncated_by_the_check(tmp_path):
    out = tmp_path / "stats.csv"
    out.write_text("kept")
    args = cli.build_parser().parse_args(["protocol", "--preset", "rb85-87", "--out", str(out)])
    cli._load(args)
    assert out.read_text() == "kept"
    new = tmp_path / "new.csv"
    cli._load(cli.build_parser().parse_args(["herald", "--preset", "rb85-87", "--out", str(new)]))
    assert not new.exists()


def test_retrieve_prints_output_frequencies_as_given(tmp_path):
    # the rails are -/+ the read half-splitting, in Hz as configured: passing
    # through 2 pi and back would move the last bit of about one value in eight
    value = 3964744420.5640144
    out = tmp_path / "qubit.json"
    assert run_cli("retrieve", "--preset", "rb85-87", "--set", f"delta_omega_read={value!r}",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["omega_II_hz"] == value == data["metadata"]["config"]["delta_omega_read"]
    assert data["omega_I_hz"] == -value


def test_retrieve_rails_default_to_one_gigahertz(tmp_path):
    # no preset and no delta_omega_read: the declared default gives -/+ 1e9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: cfg_mod.RB85_87.values[k] for k in cfg_mod.REQUIRED_KEYS}))
    out = tmp_path / "qubit.json"
    assert run_cli("retrieve", "--config", str(path), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert (data["omega_I_hz"], data["omega_II_hz"]) == (-1.0e9, 1.0e9)
    assert data["metadata"]["provenance"]["delta_omega_read"] == "default"


NO_PHOTON = (
    ("retrieval_efficiency_I=0", "retrieval_efficiency_II=0"),
    ("retrieval_efficiency_I=0", "omega_rabi_write_II=0"),
)


@pytest.mark.parametrize("overrides", NO_PHOTON)
@pytest.mark.parametrize(
    "command", [["protocol", "--runs", "50"], ["sweep", "--sweep", "eta=0.5,0.6"], ["retrieve"]]
)
def test_true_herald_without_photon_exits_2(command, overrides, capsys):
    sets = [arg for text in overrides for arg in ("--set", text)]
    assert run_cli(*command, "--preset", "rb85-87", *sets) == 2
    err = capsys.readouterr().err
    assert "retrieval_efficiency_I " in err and "retrieval_efficiency_II" in err


@pytest.mark.parametrize("overrides", NO_PHOTON)
def test_build_setup_rejects_true_herald_without_photon(overrides):
    # the config module's own rejection, which every command above reports
    cfg = cfg_mod.load_config(preset="rb85-87", overrides=list(overrides))
    message = "a true herald retrieves no photon: retrieval_efficiency_I and retrieval_efficiency_II "
    with pytest.raises(ConfigError, match=message):
        cfg_mod.build_setup(cfg)


@pytest.mark.parametrize(
    "overrides", [["N_I=1e300"], ["g_I=1e300"], ["omega_rabi_write_I=1e300"]]
)
def test_overflow_exits_4(overrides, capsys):
    sets = [arg for text in overrides for arg in ("--set", text)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("protocol", "--preset", "rb85-87", "--runs", "50", *sets) == 4
    # the finiteness checks report the failure; numpy's own warnings stay silent
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "numeric failure" in err and "(34," not in err
    if overrides == ["omega_rabi_write_I=1e300"]:  # |P|^2 overflows in the Taylor chain
        assert "cannot normalize a write state of norm inf" in err


@pytest.mark.parametrize("eta", [0.6, 0.0])
def test_saturated_exact_state_is_all_tail(eta, tmp_path):
    # N_I = 1e300 gives |chi| t ~ 1e145 and omega_rabi_write_I = 1e300 about
    # 1e292: the exact state has all its weight above the cutoff, so every
    # click is a false herald
    p_dark = cfg_mod.build_setup(cfg_mod.load_config(preset="rb85-87")).detector.p_dark
    for overflow in ("N_I=1e300", "omega_rabi_write_I=1e300"):
        sets = ("--set", overflow, "--set", "engine=exact", "--set", f"eta={eta}")
        out = tmp_path / "herald.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("herald", "--preset", "rb85-87", *sets, "--out", str(out)) == 0
            stats = tmp_path / "stats.json"
            args = ("protocol", "--preset", "rb85-87", "--runs", "50", "--format", "json")
            assert run_cli(*args, *sets, "--out", str(stats)) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        herald = json.loads(out.read_text())
        assert herald["p_click"] == (1.0 if eta else p_dark)
        assert herald["false_herald_fraction"] == 1.0
        assert [b["n_photons"] for b in herald["branches"]] == [3]
        (row,) = json.loads(stats.read_text())["results"]
        assert row["false_herald_fraction"] == 1.0 and row["mean_concurrence"] is None


PROBE_KEYS = (
    "g_I", "N_I", "delta", "tau_write", "omega_rabi_write_II", "eta",
    "dark_rate_hz", "gate_s", "retrieval_efficiency_II", "omega_rabi_write_I",
)


def _probe_values(key):
    typical = BASE_CONFIG.values[key]
    return [0.0, 1e-300, 1.0, complex(typical).real, 1e300, -1.0]


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


@settings(max_examples=60, deadline=None)
@given(
    runs=st.integers(1, 50),
    max_trials=st.integers(1, 100),
    cutoff=st.integers(1, 3),
    engine=st.sampled_from(["perturbative", "exact"]),
    overrides=st.lists(
        st.sampled_from(PROBE_KEYS).flatmap(
            lambda k: st.sampled_from(_probe_values(k)).map(lambda v: f"{k}={v!r}")
        ),
        max_size=3,
    ),
)
@pytest.mark.filterwarnings("ignore")  # regime warnings are expected at extreme values
def test_protocol_argv_exits_cleanly(runs, max_trials, cutoff, engine, overrides):
    argv = [
        "protocol", "--preset", "rb85-87", "--format", "json", "--runs", str(runs),
        "--set", f"max_trials={max_trials}", "--set", f"cutoff={cutoff}",
        "--set", f"engine={engine}",
    ]
    for text in overrides:
        argv += ["--set", text]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code in (0, 3):
        data = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert all(math.isfinite(x) for x in _numbers(data))


SWEEP_VALUES = {
    "eta": [0.0, 0.3, 1.0, 2.0],
    "dark_rate_hz": [0.0, 50.0, 1e300, -1.0],
    "omega_rabi_write_II": [0.0, 1e7, 1e300],
    "runs": [1, 7, 50, 0],
    "cutoff": [1, 3, 33],
    "engine": ["perturbative", "exact"],
}


def _axis_text(key, values, as_json):
    if as_json:
        return f"{key}={json.dumps(values)}"
    return f"{key}=" + ",".join(v if isinstance(v, str) else repr(v) for v in values)


SWEEP_AXIS = st.sampled_from(sorted(SWEEP_VALUES)).flatmap(
    lambda key: st.tuples(
        st.just(key),
        st.lists(st.sampled_from(SWEEP_VALUES[key]), min_size=1, max_size=3),
        st.booleans(),
    )
)


@settings(max_examples=40, deadline=None)
@given(
    runs=st.integers(1, 50),
    axes=st.lists(SWEEP_AXIS, min_size=1, max_size=3).filter(
        lambda axes: math.prod(len(values) for _, values, _ in axes) <= 12
    ),
)
@pytest.mark.filterwarnings("ignore")  # regime warnings are expected at extreme values
def test_sweep_argv_exits_cleanly(runs, axes):
    argv = ["sweep", "--preset", "rb85-87", "--format", "json", "--runs", str(runs)]
    for key, values, as_json in axes:
        argv += ["--sweep", _axis_text(key, values, as_json)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    keys = [key for key, _, _ in axes]
    repeated = [key for key in keys if keys.count(key) > 1]
    if repeated:
        assert code == 2 and repeated[0] in err.getvalue(), (argv, err.getvalue())
        assert "sweep row" not in err.getvalue()
    if code != 0:
        return
    data = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert all(math.isfinite(x) for x in _numbers(data))
    points = [{}]
    for key, values, _ in axes:
        points = [{**p, key: v} for p in points for v in values]
    results = data["results"]
    assert len(results) == len(points)
    for row, point in zip(results, points):
        got = {key: row["config"][key] for key in point}  # complex keys read [re, im]
        assert {k: complex(*v) if isinstance(v, list) else v for k, v in got.items()} == point


def test_progress_prints_at_most_once_per_tenth(capsys):
    n_runs = 10_000_000  # drawn by the numpy kernel
    chunk_ends = [*range(pr._NUMPY_CHUNK, n_runs, pr._NUMPY_CHUNK), n_runs]
    assert len(chunk_ends) == math.ceil(n_runs / pr._NUMPY_CHUNK)
    progress = cli._progress("protocol", [n_runs])
    for done in chunk_ends:
        progress(0, done)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) <= 11
    assert lines[-1] == "protocol: 10000000/10000000 runs"


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def readme_commands() -> list[list[str]]:
    """The argv of each fmesim line of README's command-line block, with its
    backslash continuations joined and its comments dropped."""
    block = readme_text().split("## Command line\n\n```bash\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("fmesim ")]


def test_readme_command_lines_exit_0(tmp_path, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {name for name, *_ in cli._COMMANDS}
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        if "--out" in argv:
            assert os.path.getsize(argv[argv.index("--out") + 1]) > 0


def readme_section(heading: str) -> str:
    """The body of README's `## heading` section, or "" if it has none."""
    parts = readme_text().split(f"\n## {heading}\n", 1)
    return parts[1].split("\n## ", 1)[0] if len(parts) == 2 else ""


def test_readme_names_every_column_key_and_exit_code():
    text = readme_text()
    names = [*pr.ProtocolStats._fields, *cfg_mod.SCHEMA]
    assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []
    codes = re.findall(r"^- `(\d)`: ", readme_section("Exit codes"), re.MULTILINE)
    assert codes == ["0", "2", "3", "4"]


# A quoted measurement: a time, memory or size unit after a number, a decimal
# number of seconds, or a summary statistic of repeated timings.
MEASUREMENT = re.compile(
    r"\d\s*(?:ns|µs|us|ms|KB|KiB|kB|MB|MiB|GB)\b|\d\.\d+\s*s(?:econds?)?\b|\b(?:median|quartile)s?\b",
    re.IGNORECASE,
)


def test_readme_has_one_layout_row_per_module_and_quotes_no_measurement():
    table = [line for line in readme_section("Library layout").splitlines() if line.startswith("|")]
    rows = table[2:]  # after the header and its rule
    named = [re.match(r"\| `fmesim\.(\w+)` \|", row) for row in rows]
    modules = sorted(
        name[:-3] for name in os.listdir(os.path.dirname(cli.__file__))
        if name.endswith(".py") and name not in ("__init__.py", "__main__.py")
    )
    assert all(named) and sorted(m.group(1) for m in named) == modules, rows
    assert [row for row in rows if len(row.replace("|", " ").split()) > 30] == []

    assert MEASUREMENT.search("took 0.92 s") and MEASUREMENT.search("peaked at 29.7 MB")
    assert not MEASUREMENT.search("delta = 1.368e9 Hz, tau_write = 4.0e-6, 1.368 GHz")
    fenced = False
    quoted = []
    for line in readme_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and MEASUREMENT.search(line):
            quoted.append(line)
    assert quoted == []
