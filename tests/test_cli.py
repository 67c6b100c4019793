import base64
import contextlib
import copy
import io
import json
import logging
import re
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
from hiermimo.scheduler import ControlPolicy

from conftest import de_rel_err

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

DESK_PATH = Path(__file__).resolve().parents[1] / "scenarios" / "desk.json"


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


def _control(data):
    return data["controls"][0]


def _add_unknown_user(data):
    _control(data)["power"]["99"] = 1.0


def _drop_controls(data):
    del data["controls"]


def _drop_power(data):
    del _control(data)["power"]


def _word_user_key(data):
    power = _control(data)["power"]
    power["one"] = power.pop(next(iter(power)))


def _string_power(data):
    power = _control(data)["power"]
    k = next(iter(power))
    power[k] = str(power[k])


def _string_probability(data):
    data["probs"][0] = str(data["probs"][0])


def _nan_probability(data):
    data["probs"][0] = float("nan")


@pytest.mark.parametrize("tamper, message", [
    (_add_unknown_user, "unknown user 99"),
    (_drop_controls, "'controls' is missing"),
    (_drop_power, r"'controls\[0\]\.power' is missing"),
    (_word_user_key, r"'controls\[0\]\.power' must be keyed by non-negative integers"),
    (_string_power, r"'controls\[0\]\.power\.\d+' must be a finite number"),
    (_string_probability, r"'probs\[0\]' must be a finite number"),
    (_nan_probability, r"'probs\[0\]' must be a finite number"),
], ids=["unknown-user", "missing-controls", "missing-power", "word-user-key",
        "string-power", "string-probability", "nan-probability"])
def test_reloaded_policy_rejects_a_tampered_file(tmp_path, tamper, message):
    from hiermimo.cli import build_network
    from hiermimo.errors import ValidationError

    path = write_config(tmp_path, {"draws": 5})
    out = tmp_path / "out"
    run_scenario(path, out)
    data = json.loads((out / "policy.json").read_text())
    tamper(data)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data), encoding="utf-8")
    scn = load_scenario(path)
    corr_set, graph = build_network(scn)
    with pytest.raises(ValidationError, match=message):
        load_policy(tampered).validate(corr_set, graph, scn.rzf_nu, scn.power_limit)


def test_load_policy_names_a_missing_file_and_where_its_json_breaks(tmp_path):
    from hiermimo.errors import ValidationError

    missing = tmp_path / "absent.json"
    with pytest.raises(ValidationError, match=f"policy file not found: {re.escape(str(missing))}$"):
        load_policy(missing)
    broken = tmp_path / "broken.json"
    broken.write_text('{"probs": [1.0],\n "controls": [}', encoding="utf-8")
    with pytest.raises(ValidationError, match="parse error at line 2, column 15: Expecting value"):
        load_policy(broken)


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe\x00")  # a UTF-16 byte-order mark, then half a character
    return path


@pytest.mark.parametrize("make, reason", [(_directory, "cannot be read: {}: Is a directory"),
                                          (_not_utf8, "is not UTF-8 text: {}: invalid start byte")],
                         ids=["directory", "not-utf8"])
def test_unreadable_inputs_name_their_path_and_exit_two(tmp_path, capsys, make, reason):
    from hiermimo.errors import ValidationError

    path = make(tmp_path)
    reason = re.escape(reason.format(path))
    with pytest.raises(ConfigError, match=f"^config file {reason}"):
        load_scenario(path)
    with pytest.raises(ValidationError, match=f"^policy file {reason}"):
        load_policy(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert re.search(f"config file {reason}", capsys.readouterr().err)


def _same_bits(a, b):
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _encode_block(f):
    """An outer precoder as older policy files held it: base64 of its
    little-endian complex128 entries in C order, with its shape."""
    data = np.ascontiguousarray(f, dtype="<c16")
    return {"shape": list(data.shape), "c16": base64.b64encode(data.tobytes()).decode("ascii")}


def test_policy_file_rebuilds_the_run_bitwise(tmp_path):
    # policy.json holds only the probabilities and the power maps: the outer
    # precoders rebuilt from it and the Monte Carlo report on it are the
    # run's, bit for bit
    from hiermimo.harness import monte_carlo_policy
    from hiermimo.scheduler import build_outer_precoders

    results, reports = [], []
    optimize, measure = cli.optimize_policy, cli.monte_carlo_policy

    def keep(*args, **kwargs):
        results.append(optimize(*args, **kwargs))
        return results[-1]

    def keep_report(*args):
        reports.append(measure(*args))
        return reports[-1]

    out = tmp_path / "out"
    with mock.patch.object(cli, "optimize_policy", keep), \
            mock.patch.object(cli, "monte_carlo_policy", keep_report):
        run_scenario(DESK_PATH, out)
    (result,), (report,) = results, reports
    data = json.loads((out / "policy.json").read_text())
    assert set(data) == {"probs", "controls"}
    assert all(set(entry) == {"power"} for entry in data["controls"])
    reloaded = load_policy(out / "policy.json")
    assert reloaded.controls == result.policy.controls
    assert [list(power) for power in reloaded.controls] == [
        sorted(power) for power in reloaded.controls]
    assert np.array_equal(reloaded.probs, result.policy.probs)
    scn = load_scenario(DESK_PATH)
    corr_set, graph = cli.build_network(scn)
    outers = [build_outer_precoders(power, corr_set, graph) for power in reloaded.controls]
    assert len(outers) == len(result.outers) == len(reloaded.controls)
    for rebuilt, built in zip(outers, result.outers):
        assert rebuilt.keys() == built.keys()
        assert all(_same_bits(rebuilt[n], f) for n, f in built.items())
    again = monte_carlo_policy(reloaded, outers, corr_set, graph, scn.rzf_nu, scn.draws,
                               scn.seed)
    for name, value in vars(report).items():
        if isinstance(value, np.ndarray):
            assert _same_bits(getattr(again, name), value), name
        else:
            assert getattr(again, name) == value, name
    # a file in the older format, with every control's outer precoders as
    # base64 blocks, loads to the same policy and validates
    for entry, outer in zip(data["controls"], outers):
        entry["outer"] = {str(n): _encode_block(f) for n, f in outer.items()}
    older = tmp_path / "older.json"
    older.write_text(json.dumps(data), encoding="utf-8")
    policy = load_policy(older).validate(corr_set, graph, scn.rzf_nu, scn.power_limit)
    assert policy.controls == reloaded.controls
    assert np.array_equal(policy.probs, reloaded.probs)


def test_a_leaking_outer_precoder_exits_three_and_names_the_bs(tmp_path, capsys):
    # the solve stage checks every outer precoder it builds: one aimed at a
    # protected neighbour's range fails the run with exit 3
    from hiermimo import scheduler

    build = scheduler.outer_precoder

    def aimed(corr_set, selected, blocked, bs):
        if blocked:
            f = corr_set.link(blocked[0], bs)
            return f[:, :1] / np.linalg.norm(f[:, 0])
        return build(corr_set, selected, blocked, bs)

    with mock.patch.object(scheduler, "outer_precoder", aimed):
        code = main(["run", str(DESK_PATH), "--draws", "5", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
    assert re.search(r"ValidationError: BS \d leaks onto protected user \d", capsys.readouterr().err)
    assert not (tmp_path / "out" / "policy.json").exists()


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
    for k in range(corr_set.num_users):
        for n in range(corr_set.num_bs):
            f, back = corr_set.link(k, n), corr2.link(k, n)
            dense = f @ f.conj().T
            assert np.linalg.norm(back @ back.conj().T - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_correlation_file_with_a_non_finite_entry_exits_two_and_names_the_link(
        tmp_path, capsys, bad):
    # an inf entry passed every check as a NaN comparison and silently made
    # user 0's serving link rank 0; a nan one failed inside the
    # eigensolver, naming no link
    from hiermimo.cli import build_network
    from hiermimo.corrmat import dump_correlation_set

    corr_set, _ = build_network(load_scenario(DESK_PATH))
    dump = tmp_path / "corr.txt"
    dump_correlation_set(corr_set, dump)
    lines = dump.read_text().splitlines()
    toks = lines[3].split()  # link (0, 0)
    toks[0] = f"{bad},0.0"
    lines[3] = " ".join(toks)
    dump.write_text("\n".join(lines) + "\n")
    path = tmp_path / "desk.json"
    scenario = {**json.loads(DESK_PATH.read_text()), "correlation_file": str(dump)}
    path.write_text(json.dumps(scenario))
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert re.search(r"matrix \(0,0\): entries are not all finite", capsys.readouterr().err)


def test_hotspots_beyond_the_user_count_exit_two_at_once(tmp_path, capsys):
    # the generator drew a centre for each of the 2 * 10^9 hotspots; the
    # parse now stops the run before the generator is called
    path = write_config(tmp_path, {"geometry": {"hotspots_per_cell": 10**9}})
    with mock.patch.object(cli, "build_hotspot_network") as generator:
        assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    generator.assert_not_called()
    assert "'geometry.hotspots_per_cell'" in capsys.readouterr().err
    assert load_scenario(write_config(tmp_path, {"geometry": {"hotspots_per_cell": 6}}))


@pytest.mark.parametrize("serving", [(0, 0, 1), (0, 1, 0)], ids=["shared-cell", "own-cell"])
def test_compare_gives_users_without_channel_zero_beams(tmp_path, serving):
    # user 1 has no channel at any BS. Sharing a cell, its zero FFR beam was
    # normalized to NaN, which spread to every rate of its band; alone in a
    # cell and in a CoMP cluster of one BS, its zero rows failed the
    # zero-forcing regularizer check. Either way the user gets a zero beam
    # and rate 0, and the comparison stays finite
    from hiermimo.cli import build_network
    from hiermimo.corrmat import CorrelationSet, dump_correlation_set
    from hiermimo.harness import comp_baseline, ffr_baseline

    shape = {"num_users": 3, "num_antennas": 8, "rank": 2, "draws": 20,
             "baselines": {"ffr_partitions": 1, "comp_cluster_size": 1,
                           "comp_delay_rhos": [1.0, 0.0]}}
    corr_set, _ = build_network(load_scenario(write_config(tmp_path, shape)))
    factor = corr_set.factor.copy()
    factor[1] = 0.0
    dump = tmp_path / "corr.txt"
    dump_correlation_set(CorrelationSet(factor, dict(enumerate(serving)), corr_set.cluster_ids),
                         dump)
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


@pytest.mark.parametrize("db", [120.0, 150.0])
def test_high_snr_runs_pass_their_own_budget_check(tmp_path, db):
    # at 120 dB one ulp of the 1e12 budget is 1.2e-4, more than an absolute
    # 1e-6 slack, so the optimizer's own policy failed validation with exit 3
    from hiermimo.cli import build_network

    path = write_config(tmp_path, {"power_limit_db": db})
    for command in ("run", "compare"):
        out = tmp_path / command
        assert main([command, str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert np.all(np.isfinite(summary["mc_bs_powers"]))
        for line in (out / "validation.csv").read_text().splitlines()[1:]:
            assert np.all(np.isfinite([float(v) for v in line.split(",")[:4]])), line
    assert np.all(np.isfinite([float(v) for line in
                               (tmp_path / "compare" / "comparison.csv").read_text().splitlines()[1:]
                               for v in line.split(",")[1:]]))
    scn = load_scenario(path)
    corr_set, graph = build_network(scn)
    load_policy(tmp_path / "run" / "policy.json").validate(corr_set, graph, scn.rzf_nu,
                                                           scn.power_limit)


# `compare scenarios/desk.json` as the Monte Carlo layer wrote it when it
# still formed the effective rows and beams: scheme -> (sum_rate,
# worst_decile_rate, cross_interference), and user -> (mc_rate, mc_stderr)
DESK_COMPARISON = {
    "proposed": (41.12237574311195, 5.823287662553303, 2.2914786656630516e-30),
    "ffr": (21.621929456428468, 3.0029148874431746, 0.0),
    "comp_rho1": (39.113562945030274, 6.51892706300457, 0.0),
    "comp_rho0": (8.467325478149284, 0.6456949131478182, 0.0),
}
DESK_VALIDATION = [
    (6.787696926289213, 6.092695662489716e-05),
    (7.985505122784445, 1.3070777600526928e-05),
    (6.420653345769212, 7.578707073391196e-05),
    (5.651926477807159, 0.0002723092000117158),
    (5.994648847299448, 0.00019119583835746246),
    (8.281945023162473, 1.2557019975523592e-05),
]


def test_desk_compare_stays_within_round_off_of_the_row_evaluation(tmp_path):
    # zero forcing from Gram matrices moves the Monte Carlo results by
    # round-off only: within 1e-12 relative of the values above. The policy's
    # powers follow the gain cache's warm starts, which the oracles' pruning
    # changed by skipping solves: they moved by up to 2.2e-11 relative, a
    # user's mc_rate by 1.5e-12, and the proposed scheme's cross interference,
    # itself round-off of a leak that is 0 in exact arithmetic, by 4.9e-12
    out = tmp_path / "out"
    assert main(["compare", str(DESK_PATH), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == list(DESK_COMPARISON)
    got = np.array([[float(v) for v in row[1:4]] for row in rows])
    want = np.array(list(DESK_COMPARISON.values()))
    np.testing.assert_allclose(got[:, :2], want[:, :2], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=1e-9, atol=0)
    rows = [line.split(",") for line in (out / "validation.csv").read_text().splitlines()[1:]]
    np.testing.assert_allclose([[float(v) for v in row[2:4]] for row in rows], DESK_VALIDATION,
                               rtol=1e-10, atol=0)


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


def test_one_de_pass_feeds_validation_csv_and_summary_json(tmp_path):
    from hiermimo import det_equiv, scheduler

    # a hand-made policy of two controls stands in for the optimizer's: user
    # 4 is blocked at BS 1 in the second, user 5 is served by neither, so its
    # DE rate is 0 and its rel_err NaN
    path = write_config(tmp_path, {"draws": 20})
    scn = load_scenario(path)
    corr_set, graph = cli.build_network(scn)
    controls = []
    for selected in ((0, 1, 2), (1, 3, 4)):
        wsr = scheduler.weighted_sum_rate(selected, np.ones(scn.num_users), corr_set, graph,
                                          scn.rzf_nu, scn.power_limit)
        controls.append(wsr.powers)
    policy = ControlPolicy(controls=controls, probs=np.array([0.3, 0.7]))
    outers = [scheduler.build_outer_precoders(power, corr_set, graph) for power in controls]
    result = scheduler.PolicyResult(
        policy=policy, outers=outers, trace=[scheduler.TraceRecord(0, 0.0, 2, 0.0)],
        certificate=None, certificate_kind="unavailable", converged=True, utility=0.0)
    calls = []  # (power map, result) of every de_rate_power call, in order
    original = det_equiv.de_rate_power

    def recording(power, *args):
        calls.append((power, original(power, *args)))
        return calls[-1][1]

    spy = mock.Mock(side_effect=recording)
    out = tmp_path / "out"
    with mock.patch.object(cli, "optimize_policy", return_value=result), \
            mock.patch.object(det_equiv, "de_rate_power", spy), \
            mock.patch.object(scheduler, "de_rate_power", spy):
        run_scenario(path, out)
    # validate, then the output pass: each control once, in control order
    assert [power for power, _ in calls] == controls + controls
    des = [de for _, de in calls[len(controls):]]
    de_rates, de_powers = np.zeros(scn.num_users), np.zeros(scn.num_bs)
    for q, de in zip(policy.probs, des):
        de_rates += q * de.rates
        de_powers += q * de.powers
    assert de_rates[5] == 0.0 and np.all(de_rates[:5] > 0)

    header, *lines = (out / "validation.csv").read_text().splitlines()
    assert header == "user,de_rate,mc_rate,mc_stderr,rel_err"
    _, de_rate, mc_rate, _, rel_err = np.array([line.split(",") for line in lines], dtype=float).T
    np.testing.assert_array_equal(de_rate, de_rates)
    np.testing.assert_array_equal(rel_err, de_rel_err(mc_rate, de_rates))
    assert np.isnan(rel_err[5])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["de_sum_rate"] == float(np.sum(de_rates))
    assert summary["de_bs_powers"] == de_powers.tolist()
    assert summary["de_diagnostics"] == [
        {
            "gains": {str(k): float(xi) for k, xi in sorted(de.gains.items())},
            "rates": de.rates.tolist(),
            "powers": de.powers.tolist(),
            "iterations": de.iterations,
            "residual": de.residual,
        }
        for de in des
    ]


def test_a_run_computes_each_final_control_de_twice(tmp_path):
    from hiermimo import det_equiv, harness, scheduler

    # once in ControlPolicy.validate (scheduler's binding), once in the
    # output pass (looked up on det_equiv); the Monte Carlo layer never. On
    # this network the policy time-shares several controls
    path = write_config(tmp_path, {"num_users": 12, "num_antennas": 8, "rank": 2, "seed": 5,
                                   "draws": 10})
    out = tmp_path / "out"
    spies = [mock.patch.object(module, "de_rate_power", wraps=module.de_rate_power)
             for module in (scheduler, det_equiv, harness)]
    with spies[0] as validate, spies[1] as output, spies[2] as measure:
        run_scenario(path, out)
    controls = len(json.loads((out / "policy.json").read_text())["probs"])
    assert controls >= 2
    assert validate.call_count == output.call_count == controls
    assert measure.call_count == 0
    for checked, written in zip(validate.call_args_list, output.call_args_list):
        assert checked.args[0] is written.args[0]


def test_unknown_utility_kind_rejected(tmp_path):
    path = write_config(tmp_path, {"utility": {"kind": "maximin"}})
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert err.value.field == "utility"


# a network whose first oracle pick leaves some users at rate 0
ZERO_RATE_PICK = {"num_users": 21, "num_antennas": 8, "rank": 2, "seed": 5}


@pytest.mark.parametrize("utility", [
    {"kind": "pfs", "eps": 0},
    {"kind": "alpha_fair", "eps": 0},
    {"kind": "alpha_fair", "alpha": 1.0, "eps": 0},
    {"kind": "alpha_fair", "alpha": 0.5, "eps": 0},
], ids=["pfs", "alpha_fair-default", "alpha_fair-1", "alpha_fair-0.5"])
def test_zero_eps_with_positive_alpha_exits_two(tmp_path, capsys, utility):
    # the gradient w (r + eps)^-alpha is infinite at a zero rate, which the
    # first pick gives some users of this network
    path = write_config(tmp_path, {**ZERO_RATE_PICK, "utility": utility})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "utility.eps" in capsys.readouterr().err


def test_zero_eps_is_allowed_at_alpha_zero(tmp_path):
    for utility in ({"kind": "sum_rate", "eps": 0}, {"kind": "alpha_fair", "alpha": 0, "eps": 0}):
        scn = load_scenario(write_config(tmp_path, {"utility": utility}))
        assert cli.build_utility(scn).alpha == 0.0


def test_config_root_must_be_an_object_in_an_existing_file(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config root must be a JSON object" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert "config file not found" in capsys.readouterr().err


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
    ("geometry", 5),
    ("utility", "pfs"),
    ("rank", 17),  # above num_antennas = 16
]

# further malformed values of fields that MALFORMED names, with ids of their own
MALFORMED_AGAIN = {
    "correlation_file=5": ("correlation_file", 5),
    "utility.weights=negative": ("utility.weights", [-0.1, 0.3, 0.2, 0.2, 0.2, 0.2]),
    "utility.weights=string": ("utility.weights", ["x", 0.2, 0.2, 0.2, 0.2, 0.2]),
}


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
    + [("correlation_file", fields) for fields in MISFIT_DUMPS] + list(MALFORMED_AGAIN.values()),
    ids=[path for path, _ in MALFORMED]
    + [f"{path}={value}" for path, value in OVERFLOWING_DB + THETA_ROUNDING_TO_ONE]
    + ["correlation_file+" + ",".join(f"{k}={v}" for k, v in f.items()) for f in MISFIT_DUMPS]
    + list(MALFORMED_AGAIN),
)
def test_malformed_field_exits_two_and_names_it(tmp_path, capsys, path, value):
    scenario = DESK
    if path == "correlation_file" and (value is TRUNCATED or isinstance(value, dict)):
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


DESK_FILE = json.loads(DESK_PATH.read_text())
DESK_SCALARS = sorted(
    [name for name, v in DESK_FILE.items() if not isinstance(v, (dict, list))]
    + [f"{name}.{key}" for name, v in DESK_FILE.items() if isinstance(v, dict)
       for key, leaf in v.items() if not isinstance(leaf, list)]
)
@pytest.mark.parametrize("utility", [{"kind": "alpha_fair", "alpha": 2.0}, {"kind": "sum_rate"}],
                         ids=["alpha_fair-2", "sum_rate"])
def test_compare_runs_every_utility_kind(tmp_path, utility):
    config = tmp_path / "desk.json"
    config.write_text(json.dumps({**DESK_FILE, "utility": utility}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", str(config), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    for row in summary["comparison"].values():
        assert np.isfinite(row["sum_rate"]) and np.isfinite(row["cross_interference"])
    for line in (out / "comparison.csv").read_text().splitlines()[1:]:
        assert np.all(np.isfinite([float(v) for v in line.split(",")[1:4]])), line


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
