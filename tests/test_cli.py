import contextlib
import copy
import io
import json
import logging
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hiermimo.cli as cli
from hiermimo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    compare_baselines,
    load_policy,
    load_scenario,
    main,
    run_scenario,
)
from hiermimo.errors import ConfigError

DESK = {
    "num_bs": 2,
    "num_users": 6,
    "num_antennas": 16,
    "rank": 3,
    "power_limit_db": 10.0,
    "rzf_nu": 0.01,
    "theta_db": 10.0,
    "utility": {"kind": "pfs", "eps": 1e-4},
    "mode": "greedy",
    "seed": 7,
    "draws": 40,
    "geometry": {"inter_site_m": 300.0},
}


def write_config(tmp_path, overrides=None, name="scenario.json"):
    data = dict(DESK)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_missing_field_names_it(tmp_path):
    data = dict(DESK)
    del data["num_bs"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert "num_bs" in str(err.value)
    assert err.value.field == "num_bs"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"num_bs\": 2,\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert "line" in str(err.value)


def test_exhaustive_guard_on_config(tmp_path):
    path = write_config(tmp_path, {"num_users": 25, "mode": "exhaustive"})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    # also when forced via the flag
    path2 = write_config(tmp_path, {"num_users": 25}, name="s2.json")
    assert main(["run", str(path2), "--mode", "exhaustive",
                 "--out", str(tmp_path / "out2")]) == EXIT_CONFIG


def test_draws_above_the_guard_exit_two_and_name_draws(tmp_path, capsys):
    path = write_config(tmp_path, {"draws": cli.MAX_DRAWS + 1})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'draws'" in capsys.readouterr().err
    assert main(["run", str(write_config(tmp_path)), "--draws", str(10**9),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'draws'" in capsys.readouterr().err


def test_network_above_the_size_guard_exits_two_and_names_the_first_field(tmp_path, capsys):
    # 2^20 users alone stay within 2^26 factor entries; times 128 BSs they do not
    path = write_config(tmp_path, {"num_users": 2**20, "num_bs": 128})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'num_bs'" in capsys.readouterr().err
    path = write_config(tmp_path, {"num_users": 10**8})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'num_users'" in capsys.readouterr().err
    # the 7 BS x 84 users x M=256 rank-8 rung (about 2^20 entries) still parses
    rung = {**DESK, "num_bs": 7, "num_users": 84, "num_antennas": 256, "rank": 8,
            "baselines": {"comp_cluster_size": 7}}
    assert load_scenario(write_config(tmp_path, rung)).num_antennas == 256


def test_run_produces_expected_files(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    for name in ("policy.json", "trace.csv", "validation.csv", "summary.json"):
        assert (out / name).exists()
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,U_E,support,certificate"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    for later, earlier in zip(values[1:], values):
        assert later >= earlier - 1e-9
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["power_limit_linear"] == pytest.approx(10.0)
    assert summary["config"]["theta_linear"] == pytest.approx(10.0)
    assert summary["converged"] is True


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(path, out1)
    run_scenario(path, out2)
    for name in ("policy.json", "trace.csv", "validation.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_policy_reloads_and_revalidates(tmp_path):
    from hiermimo.cli import build_network

    path = write_config(tmp_path)
    out = tmp_path / "out"
    run_scenario(path, out)
    policy = load_policy(out / "policy.json")
    scn = load_scenario(path)
    corr_set, graph = build_network(scn)
    policy.validate(corr_set, graph, scn.rzf_nu, scn.power_limit)


def test_cli_overrides_change_results(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(path, out1, seed=7)
    run_scenario(path, out2, seed=8)
    assert (out1 / "validation.csv").read_bytes() != (out2 / "validation.csv").read_bytes()


def test_compare_emits_rows_and_orderings(tmp_path):
    path = write_config(tmp_path, {"baselines": {"ffr_partitions": 2,
                                                 "comp_cluster_size": 2,
                                                 "comp_delay_rhos": [1.0, 0.0]}})
    out = tmp_path / "cmp"
    summary = compare_baselines(path, out, draws=60)
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "scheme,sum_rate,worst_decile_rate,cross_interference,seed"
    schemes = [line.split(",")[0] for line in lines[1:]]
    assert schemes == ["proposed", "ffr", "comp_rho1", "comp_rho0"]
    seeds = {line.split(",")[-1] for line in lines[1:]}
    assert seeds == {"7"}
    comp = summary["comparison"]
    assert comp["comp_rho1"]["sum_rate"] >= comp["comp_rho0"]["sum_rate"]
    # two partitions over two cells: FFR interference column must be zero
    ffr_row = lines[2].split(",")
    assert float(ffr_row[3]) == 0.0


@pytest.mark.parametrize("rhos", [[1.0, 1.0], [0.5, 0.5000001], [0.0, 0.3, 0.0]])
def test_comp_delays_with_one_scheme_name_exit_two(tmp_path, capsys, rhos):
    # every delay names its comparison row comp_rho{rho:g}: two delays of one
    # name would write two rows to comparison.csv and one to summary.json
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(with_field(DESK, "baselines.comp_delay_rhos", rhos)),
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "baselines.comp_delay_rhos" in capsys.readouterr().err
    assert not out.exists()
    distinct = with_field(DESK, "baselines.comp_delay_rhos", [0.5, 0.500001])
    config.write_text(json.dumps(distinct), encoding="utf-8")
    assert load_scenario(config).baselines["comp_delay_rhos"] == [0.5, 0.500001]


def test_overloaded_cell_fails_before_the_optimizer(tmp_path, capsys):
    # 20 users per cell with 16 antennas: the FFR cell (and the CoMP cluster)
    # cannot zero-force them, which compare reports before optimizing
    from hiermimo.cli import EXIT_NUMERICAL

    path = write_config(tmp_path, {"num_users": 40, "draws": 2000})
    out = tmp_path / "out"
    with mock.patch.object(cli, "optimize_policy", wraps=cli.optimize_policy) as spy:
        assert main(["compare", str(path), "--out", str(out)]) == EXIT_NUMERICAL
    assert not spy.called
    assert "ValidationError: ffr_baseline: cell 0 serves 20 users with 16 antennas" in \
        capsys.readouterr().err
    assert not any(out.iterdir())


def test_compare_files_reproducible(tmp_path):
    path = write_config(tmp_path, {"draws": 30})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    compare_baselines(path, out1)
    compare_baselines(path, out2)
    assert (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()


def test_correlation_file_roundtrip(tmp_path):
    from hiermimo.cli import build_network
    from hiermimo.corrmat import dump_correlation_set

    path = write_config(tmp_path)
    scn = load_scenario(path)
    corr_set, _ = build_network(scn)
    dump = tmp_path / "corr.txt"
    dump_correlation_set(corr_set, dump)
    path2 = write_config(tmp_path, {"correlation_file": str(dump)}, name="s3.json")
    scn2 = load_scenario(path2)
    corr2, _ = build_network(scn2)
    for key, mat in corr_set.matrices.items():
        dense = mat.dense()
        assert np.linalg.norm(corr2.matrices[key].dense() - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("serving", [(0, 0, 1), (0, 1, 0)], ids=["shared-cell", "own-cell"])
def test_compare_gives_users_without_channel_zero_beams(tmp_path, serving):
    # user 1 has no channel at any BS. Sharing a cell, its zero FFR beam was
    # normalized to NaN, which spread to every rate of its band; alone in a
    # cell and in a CoMP cluster of one BS, its zero rows failed the
    # zero-forcing regularizer check. Either way the user gets a zero beam
    # and rate 0, and the comparison stays finite
    from hiermimo.cli import build_network
    from hiermimo.corrmat import CorrelationMatrix, CorrelationSet, dump_correlation_set
    from hiermimo.harness import comp_baseline, ffr_baseline

    shape = {"num_users": 3, "num_antennas": 8, "rank": 2, "draws": 20,
             "baselines": {"ffr_partitions": 1, "comp_cluster_size": 1,
                           "comp_delay_rhos": [1.0, 0.0]}}
    corr_set, _ = build_network(load_scenario(write_config(tmp_path, shape)))
    matrices = dict(corr_set.matrices)
    for n in range(corr_set.num_bs):
        matrices[(1, n)] = CorrelationMatrix.from_dense(np.zeros((8, 8), dtype=complex), None, 0.0)
    dump = tmp_path / "corr.txt"
    dump_correlation_set(CorrelationSet(corr_set.num_bs, 3, matrices, dict(enumerate(serving)),
                                        corr_set.cluster_ids), dump)
    path = write_config(tmp_path, {**shape, "correlation_file": str(dump)}, name="zero.json")
    out = tmp_path / "out"
    assert main(["compare", str(path), "--out", str(out)]) == EXIT_OK
    comparison = json.loads((out / "summary.json").read_text())["comparison"]
    assert set(comparison) == {"proposed", "ffr", "comp_rho1", "comp_rho0"}
    for row in comparison.values():
        assert np.isfinite(row["sum_rate"]) and np.isfinite(row["cross_interference"])
    for line in (out / "comparison.csv").read_text().splitlines()[1:]:
        assert np.all(np.isfinite([float(v) for v in line.split(",")[1:]])), line
    network = build_network(load_scenario(path))
    for report in (ffr_baseline(*network, 10.0, 1, 5, 7),
                   comp_baseline(*network, 10.0, 1, 5, 7, delay_rho=0.0)):
        assert report.user_rate_mean[1] == 0.0
        assert np.all(report.user_rate_mean[[0, 2]] > 0)
        assert np.all(np.isfinite(report.bs_power_mean))


def test_missing_correlation_file_is_config_error(tmp_path):
    path = write_config(tmp_path, {"correlation_file": str(tmp_path / "nope.txt")})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_numerical_failure_exits_three(tmp_path, capsys):
    from hiermimo import det_equiv
    from hiermimo.cli import EXIT_NUMERICAL
    from hiermimo.errors import NumericalError

    # a valid scenario whose gain solver fails: a numerical error, not a config error
    path = write_config(tmp_path, {"draws": 5})
    failure = NumericalError("effective-gain fixed point: Gram matrix is singular")
    with mock.patch.object(det_equiv, "solve_effective_gains", side_effect=failure):
        assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "NumericalError" in err and "effective-gain fixed point" in err


def test_summary_carries_de_diagnostics(tmp_path):
    path = write_config(tmp_path, {"draws": 10})
    out = tmp_path / "out"
    run_scenario(path, out)
    summary = json.loads((out / "summary.json").read_text())
    diag = summary["de_diagnostics"]
    assert len(diag) == len(json.loads((out / "policy.json").read_text())["probs"])
    assert all(entry["iterations"] >= 1 for entry in diag)
    assert all(entry["residual"] <= 1e-9 for entry in diag)


def test_unknown_utility_kind_rejected(tmp_path):
    path = write_config(tmp_path, {"utility": {"kind": "maximin"}})
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert err.value.field == "utility"


def test_nonpositive_fields_rejected(tmp_path):
    for field, value in (("num_antennas", 0), ("rzf_nu", -0.1), ("draws", 0)):
        path = write_config(tmp_path, {field: value}, name=f"bad_{field}.json")
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        assert err.value.field == field


def test_max_outer_zero_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"max_outer": 0})
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert err.value.field == "max_outer"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "max_outer" in capsys.readouterr().err


@pytest.mark.parametrize("inter_site_m", [60.0, 70.0, -5.0, "far"])
def test_short_inter_site_distance_exits_two_without_hanging(tmp_path, inter_site_m):
    import os
    import subprocess
    import sys

    import hiermimo

    # the sampler for user positions used to spin forever on these geometries,
    # so the run gets a wall-clock bound instead of an in-process call
    path = write_config(tmp_path, {"geometry": {"inter_site_m": inter_site_m}})
    src = str(Path(hiermimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hiermimo.cli", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "geometry.inter_site_m" in proc.stderr


def with_field(config, path, value):
    """Deep copy of ``config`` with ``value`` at the dotted ``path``."""
    out = copy.deepcopy(config)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return out


TRUNCATED = object()


MALFORMED = [
    ("power_limit_db", "abc"),
    ("eps_stop", "x"),
    ("seed", "x"),
    ("geometry.hotspots_per_cell", "two"),
    ("geometry.pathloss_exponent", "x"),
    ("utility.weights", [1, 2]),
    ("utility.alpha", "x"),
    ("utility.eps", -1),
    ("baselines.ffr_partitions", "x"),
    ("baselines.comp_delay_rhos", 1.0),
    ("baselines.comp_cluster_size", 3),  # does not divide num_bs = 2
    ("correlation_file", TRUNCATED),
]


# dB values whose linear value overflows to infinity or underflows to zero
OVERFLOWING_DB = [
    ("power_limit_db", 4000),
    ("power_limit_db", -4000),
    ("theta_db", 4000),
    ("geometry.ref_gain_db", 4000),
]

# scenario fields under which the desk network's correlation dump (M = 16,
# rank 3) does not fit: fewer antennas, or a rank below its links' rank
MISFIT_DUMPS = [{"num_antennas": 8, "rank": 2}, {"rank": 2}]

# positive dB values whose linear value rounds to 1, which theta must exceed
THETA_ROUNDING_TO_ONE = [("theta_db", 1e-17), ("theta_db", 1e-300)]


@pytest.mark.parametrize(
    "path, value",
    MALFORMED + OVERFLOWING_DB + THETA_ROUNDING_TO_ONE
    + [("correlation_file", fields) for fields in MISFIT_DUMPS],
    ids=[path for path, _ in MALFORMED]
    + [f"{path}={value}" for path, value in OVERFLOWING_DB + THETA_ROUNDING_TO_ONE]
    + ["correlation_file+" + ",".join(f"{k}={v}" for k, v in f.items()) for f in MISFIT_DUMPS],
)
def test_malformed_field_exits_two_and_names_it(tmp_path, capsys, path, value):
    scenario = DESK
    if path == "correlation_file":
        from hiermimo.corrmat import dump_correlation_set

        corr_set, _ = cli.build_network(load_scenario(write_config(tmp_path, name="ok.json")))
        dump = tmp_path / "corr.txt"
        dump_correlation_set(corr_set, dump)
        if value is TRUNCATED:
            lines = dump.read_text().splitlines()
            dump.write_text("\n".join(lines[:-2]) + "\n")
        else:
            scenario = {**DESK, **value}
        value = str(dump)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(with_field(scenario, path, value)), encoding="utf-8")
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert path in capsys.readouterr().err


DESK_FILE = json.loads(
    (Path(__file__).resolve().parents[1] / "scenarios" / "desk.json").read_text()
)
DESK_SCALARS = sorted(
    [name for name, v in DESK_FILE.items() if not isinstance(v, (dict, list))]
    + [f"{name}.{key}" for name, v in DESK_FILE.items() if isinstance(v, dict)
       for key, leaf in v.items() if not isinstance(leaf, list)]
)
VALID_STRINGS = {"mode": ("greedy", "exhaustive"), "utility.kind": ("pfs", "alpha_fair", "sum_rate")}


class ParsePassed(BaseException):
    """Raised when a malformed config gets past the parse boundary."""


@settings(max_examples=150, deadline=None)
@given(
    path=st.sampled_from(DESK_SCALARS),
    value=st.one_of(
        st.text(max_size=6),
        st.none(),
        st.lists(st.integers(-2, 2), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    ),
)
def test_non_number_in_any_scalar_field_exits_two(tmp_path_factory, path, value):
    assume(value not in VALID_STRINGS.get(path, ()))
    config = tmp_path_factory.getbasetemp() / "malformed.json"
    config.write_text(json.dumps(with_field(DESK_FILE, path, value)), encoding="utf-8")
    err = io.StringIO()
    with mock.patch.object(cli, "build_network", side_effect=ParsePassed), \
            contextlib.redirect_stderr(err):
        code = main(["run", str(config), "--out", str(config.parent / "never")])
    assert code == EXIT_CONFIG
    assert path in err.getvalue()


def test_unread_geometry_key_still_loads(tmp_path):
    # the benchmark's generated scenarios carry geometry.hotspot_radius_m, which
    # nothing reads
    plain = load_scenario(write_config(tmp_path))
    geometry = dict(DESK["geometry"], hotspot_radius_m=50.0)
    legacy = load_scenario(write_config(tmp_path, {"geometry": geometry}, name="legacy.json"))
    assert legacy == plain


def test_run_and_compare_share_one_pipeline(tmp_path):
    path = write_config(tmp_path, {"draws": 20})
    run_out, cmp_out = tmp_path / "run", tmp_path / "compare"
    run_scenario(path, run_out)
    compare_baselines(path, cmp_out)
    for name in ("policy.json", "trace.csv", "validation.csv"):
        assert (run_out / name).read_bytes() == (cmp_out / name).read_bytes()
    run_summary = json.loads((run_out / "summary.json").read_text())
    cmp_summary = json.loads((cmp_out / "summary.json").read_text())
    assert "comparison" not in run_summary
    assert set(cmp_summary.pop("comparison")) == {"proposed", "ffr", "comp_rho1", "comp_rho0"}
    assert cmp_summary == run_summary


@pytest.mark.parametrize("ref_gain_db, warns", [(20.0, True), (None, False)])
def test_weak_channels_warn_that_the_deterministic_equivalents_fail(
        tmp_path, caplog, ref_gain_db, warns):
    # at ref_gain_db 20 the effective gains are about 1e-6, far below rzf_nu
    # 0.01; on desk.json itself the smallest is 4.27
    data = copy.deepcopy(DESK_FILE)
    if ref_gain_db is not None:
        data["geometry"]["ref_gain_db"] = ref_gain_db
    config = tmp_path / "desk.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    with caplog.at_level("WARNING", logger="hiermimo.cli"):
        assert main(["run", str(config), "--draws", "5", "--out", str(tmp_path / "out")]) == EXIT_OK
    warnings = [rec.getMessage() for rec in caplog.records
                if rec.name == "hiermimo.cli" and rec.levelname == "WARNING"]
    if warns:
        assert len(warnings) == 1
        assert "below rzf_nu" in warnings[0]
    else:
        assert warnings == []


@pytest.mark.parametrize("level, warns", [("WARNING", True), ("ERROR", False)])
def test_log_level_filters_the_weak_channel_warning(tmp_path, caplog, level, warns):
    # the ref_gain_db 20 case above: --log-level ERROR drops its warning
    data = copy.deepcopy(DESK_FILE)
    data["geometry"]["ref_gain_db"] = 20.0
    config = tmp_path / "desk.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    package = logging.getLogger("hiermimo")
    try:
        assert main(["run", str(config), "--draws", "5", "--out", str(tmp_path / "out"),
                     "--log-level", level]) == EXIT_OK
        assert package.level == getattr(logging, level)
    finally:
        package.setLevel(logging.NOTSET)
    warnings = [rec.getMessage() for rec in caplog.records
                if rec.name == "hiermimo.cli" and "below rzf_nu" in rec.getMessage()]
    assert len(warnings) == (1 if warns else 0)


def test_log_level_rejects_unknown_levels(tmp_path):
    with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stderr(io.StringIO()):
        main(["run", str(tmp_path / "desk.json"), "--log-level", "VERBOSE"])
    assert exit_info.value.code == 2
