import contextlib
import copy
import io
import json
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
        assert np.array_equal(corr2.matrices[key].entries, mat.entries)


def test_missing_correlation_file_is_config_error(tmp_path):
    path = write_config(tmp_path, {"correlation_file": str(tmp_path / "nope.txt")})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_numerical_failure_exits_three(tmp_path):
    from hiermimo.cli import EXIT_NUMERICAL

    # cluster size that does not divide the BS count: a runtime validation
    # failure inside the baseline, not a config error
    path = write_config(tmp_path, {"draws": 5,
                                   "baselines": {"comp_cluster_size": 3}})
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL


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
    ("correlation_file", TRUNCATED),
]


@pytest.mark.parametrize("path, value", MALFORMED, ids=[path for path, _ in MALFORMED])
def test_malformed_field_exits_two_and_names_it(tmp_path, capsys, path, value):
    if value is TRUNCATED:
        from hiermimo.corrmat import dump_correlation_set

        corr_set, _ = cli.build_network(load_scenario(write_config(tmp_path, name="ok.json")))
        dump = tmp_path / "corr.txt"
        dump_correlation_set(corr_set, dump)
        lines = dump.read_text().splitlines()
        dump.write_text("\n".join(lines[:-2]) + "\n")
        value = str(dump)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(with_field(DESK, path, value)), encoding="utf-8")
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
