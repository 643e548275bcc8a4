import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import restrictlab.cli as cli
from restrictlab import frequency, integrals, measures, modes, spherical
from restrictlab.errors import DomainError
from restrictlab.frequency import BumpPair
from restrictlab.geometry import GroupElement
from restrictlab.hecke import MAXIMAL_ORDER_2_3, QuatAlgebra
from restrictlab.sampling import even_table

from conftest import check_band_transforms, record_band_transforms
from test_hecke import hecke_returns


def test_load_config_defaults_echoed(tmp_path):
    cfg = cli.load_config(experiment="kernel", overrides={"lambda": 100.0})
    assert cfg.params == {"lambda": 100.0, "x_max": 4.0}


def test_load_config_rejects_bad_alpha():
    with pytest.raises(DomainError) as exc:
        cli.load_config(experiment="theorem3", overrides={"alpha": 0.4})
    assert "alpha" in str(exc.value)


def test_load_config_rejects_unknown_experiment():
    with pytest.raises(DomainError):
        cli.load_config(experiment="warp-drive")


def test_load_config_rejects_unknown_param():
    with pytest.raises(DomainError) as exc:
        cli.load_config(experiment="kernel", overrides={"lambduh": 3})
    assert "lambduh" in str(exc.value)


def test_load_config_malformed_file_names_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "kernel",\n  "params": {oops}}')
    with pytest.raises(DomainError) as exc:
        cli.load_config(path=str(p))
    assert "line 2" in str(exc.value)


def test_load_config_file_plus_overrides(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "measure",
                             "params": {"alpha": 0.7, "depth": 3},
                             "seed": 5}))
    cfg = cli.load_config(path=str(p), overrides={"depth": 4})
    assert cfg.params["alpha"] == 0.7
    assert cfg.params["depth"] == 4
    assert cfg.seed == 5


def test_explicit_flags_win_over_config_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"params": {"N": 16, "draws": 3}, "seed": 5,
                             "out": "from_file"}))
    assert cli.main(["amplifier", "--config", str(p), "--seed", "7",
                     "--out", "from_flag", "-p", "draws=2"]) == 0
    cfg = json.loads(capsys.readouterr().out)["config"]
    assert (cfg["seed"], cfg["out"], cfg["params"]["draws"]) == (7, "from_flag", 2)
    assert (tmp_path / "from_flag" / "amplifier.csv").exists()
    assert not (tmp_path / "from_file").exists()
    # without the flags the file's seed and out stand
    assert cli.main(["amplifier", "--config", str(p)]) == 0
    cfg = json.loads(capsys.readouterr().out)["config"]
    assert (cfg["seed"], cfg["out"]) == (5, "from_file")


@pytest.mark.parametrize("content", [
    {"seed": "x"},
    {"seed": True},
    {"seed": 1.5},
    {"params": [1]},
    {"params": "alpha=0.5"},
    {"out": 3},
    {"seed": -3},
], ids=["seed-str", "seed-bool", "seed-float", "params-list", "params-str", "out-int",
        "seed-negative"])
def test_load_config_rejects_bad_file_fields(tmp_path, capsys, content):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "measure", **content}))
    with pytest.raises(DomainError):
        cli.load_config(path=str(p))
    assert cli.main(["measure", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    # refused by the config, before the output directory is made
    assert cli.main(["amplifier", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, case):
    cfg = {"missing": tmp_path / "missing.json", "directory": tmp_path,
           "non-utf8": tmp_path / "bytes.json"}[case]
    if case == "non-utf8":
        cfg.write_bytes(b'{"experiment": "\xff\xfe"}')
    assert cli.main(["measure", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unusable_out_exits_2_before_running(tmp_path, capsys, monkeypatch, below):
    runs = []
    schema = cli._EXPERIMENTS["exponents"][1]
    monkeypatch.setitem(cli._EXPERIMENTS, "exponents", (runs.append, schema))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "res" if below else blocker
    assert cli.main(["exponents", "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert runs == []


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: bare {name}")


def test_stdout_is_strict_json(tmp_path, capsys, monkeypatch):
    # a NaN contrast (|I| = 0 at t = 0) and an infinite value print as null
    monkeypatch.setattr(integrals, "rapid_decay_shears",
                        lambda *args: (float("inf"), [(0.0, 0.0, 0.0)]))
    monkeypatch.setattr(integrals, "eval_I",
                        lambda *args: integrals.IntegralReport(0j, 0.0, 10.0, 1, True))
    rc = cli.main(["rapid-decay", "-p", "lambda=10", "-p", "t_factors=[0,4]",
                   "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["summary"]
    assert summary["contrast"] is None and summary["threshold_t"] is None
    assert summary["contrast_ok"] is False


def test_exponents_experiment(tmp_path):
    out = tmp_path / "res"
    rc = cli.main(["exponents", "--out", str(out)])
    assert rc == 0
    lines = (out / "exponents.csv").read_text().splitlines()
    assert lines[0].startswith("#{")
    meta = json.loads(lines[0][1:])
    assert meta["experiment"] == "exponents" and "out" not in meta
    assert lines[1] == "alpha,gamma,delta,marshall"
    assert len(lines) == 102   # metadata + header + 100 rows
    row_one = [l for l in lines if l.startswith("1,")]
    assert row_one and row_one[0].split(",")[2] == "1/28"


def test_determinism_byte_identical(tmp_path, capsys):
    # every experiment at its defaults, run twice in one process, writes the
    # same CSV bytes and the same summary
    for experiment in cli.EXPERIMENTS:
        name = experiment.replace("-", "_") + ".csv"
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert cli.main([experiment, "--out", str(out)]) == 0
            runs.append(((out / name).read_bytes(),
                         json.loads(capsys.readouterr().out)["summary"]))
        assert runs[0] == runs[1], experiment


def test_validation_exit_code():
    assert cli.main(["theorem3", "-p", "alpha=0.4", "--out", "/tmp/x"]) == 2


def test_resource_exit_code(tmp_path):
    rc = cli.main(["kernel", "-p", "lambda=1000000.0", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ["kernel", "-p", "lambda=1e5", "-p", "x_max=0.01"],
    ["integrals", "-p", "lambda=1e5"],
])
def test_spectral_nodes_exit_3(tmp_path, capsys, argv):
    # few radial nodes but more than TABLE_BUDGET spectral nodes: refused
    # before the s-grid is built
    assert cli.main(argv + ["--out", str(tmp_path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "spectral nodes" in out.err


def _count_calls(monkeypatch, owner, name) -> list:
    """A list that grows by one on each call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_weight_work_budget_exit_code(tmp_path, capsys, monkeypatch):
    # 256 atoms x 819,204 window points on a 1.6M-point grid: refused at once
    # instead of looping, and before the bump table is built; likewise the
    # other weight-building runs, and a 3.2M-node kernel table, before the bump
    # or the weight is built
    builds = _count_calls(monkeypatch, BumpPair, "__init__")
    weights = _count_calls(monkeypatch, measures, "build_weight")
    fine = ["-p", "resolution_per_wavelength=4096"]
    assert cli.main(["integrals", *fine, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out == ""
    for argv in (["beta-scaling", *fine], ["rapid-decay", *fine],
                 ["dyadic", "-p", "lambda=1e7"], ["dyadic", "-p", "lambda=20000"],
                 ["integrals", "-p", "lambda=200000"]):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 3
        assert capsys.readouterr().out == ""
    assert builds == [] and weights == []


@pytest.mark.parametrize("experiment, param", [
    ("measure", "n_r=1e30"),
    ("energy", "depths=[21]"),
    ("amplifier", "N=1e30"),
    ("amplifier", "N=1e12"),
    ("amplifier", "draws=1e11"),
    ("exponents", "n_alpha=1e11"),
    ("hecke-returns", "n_max=1000000"),
    ("hecke-returns", "a=1000000000000000003"),
    ("hecke-returns", "b=1000000000000000003"),
    ("hecke-returns", "b=-1000000000000000003"),
    ("dyadic", "lambda=20000"),
    ("dyadic", "lambda=1e308"),
    ("integrals", "resolution_per_wavelength=1" + "0" * 400),
    ("integrals", "lambda=1e308"),
])
def test_huge_sizes_exit_3(tmp_path, capsys, experiment, param):
    # valid but huge sizes are refused by a budget before the work starts,
    # instead of ending in a traceback or a hang
    assert cli.main([experiment, "-p", param, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out == ""


def test_band_budget_exits_3_without_csv(tmp_path, capsys, monkeypatch):
    # the shear's band pairs are counted before any pair is evaluated
    monkeypatch.setattr(integrals, "BAND_BUDGET", 1 << 10)
    argv = ["integrals", "-p", "lambda=100", "-p", "shear_t=0.3", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # shear 0.3's half band passes up to lambda = 6115
    ["integrals", "-p", "lambda=7000", "-p", "shear_t=0.3"],
    # shears 0.25 t* and 0.5 t* are over budget, t*, 2 t* and 4 t* are not
    ["rapid-decay", "-p", "lambda=5500"],
], ids=["integrals", "rapid-decay"])
def test_band_budget_refuses_before_building(tmp_path, capsys, monkeypatch, argv):
    # each shear's cells are counted from the window grid and the kernel's
    # node count, so nothing is built
    for owner, name in ((frequency, "BumpPair"), (measures, "build_weight"),
                        (spherical, "make_kernel")):
        monkeypatch.setattr(owner, name, _refuse_to_build)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("run", [["beta-scaling"], ["rapid-decay", "-p", "t_factors=[0]"]],
                         ids=["beta-scaling", "rapid-decay"])
def test_projected_runs_pass_the_old_padding_ceiling(tmp_path, capsys, monkeypatch, run):
    # at lambda = 21846 the window grid's 1,048,609 points once padded to
    # 2^23, past a padding budget of 2^22; the projection's transforms are
    # now O(n), which the weight's budget bounds, so the run passes every
    # refusal and reaches the build, also at lambda = 25600
    for owner, name in ((frequency, "BumpPair"), (measures, "build_weight"),
                        (spherical, "make_kernel")):
        monkeypatch.setattr(owner, name, _refuse_to_build)
    for lam in ("21846", "25600"):
        with pytest.raises(_Built):
            cli.main([*run, "-p", f"lambda={lam}", "--out", str(tmp_path)])
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("run", [
    [["beta-scaling", "-p", "beta_exponents=[0.2,0.8]"]],
    [["rapid-decay", "-p", "t_factors=[0]", "-p", f"beta_exponent={e}"] for e in (0.001, 0.999)]],
    ids=["beta-scaling", "rapid-decay"])
def test_band_projection_transform_sizes(tmp_path, monkeypatch, run):
    # at the schema's extreme bands and its coarsest grid (the default 8
    # samples per wavelength), each projection of phi w transforms n points
    # to K <= n/4 + 256 per band and back
    calls = record_band_transforms(monkeypatch)
    for lam in (10, 100, 1600):
        for argv in run:
            assert cli.main([*argv, "-p", f"lambda={lam}", "--out", str(tmp_path)]) == 0
    check_band_transforms(calls)
    assert len(calls) == 6


def test_band_budget_counts_up_front_what_the_sum_counts(tmp_path, monkeypatch):
    # the count before the set-up sees the same grid, step and kernel reach
    # as the sum's own count, and counts the half band the quadratic sum reads
    seen = []
    check = integrals.check_band_budget

    def recorded(g, x, h, reach, quadratic=False):
        seen.append((g.m.tobytes(), x, h, reach, quadratic))
        return check(g, x, h, reach, quadratic)

    monkeypatch.setattr(integrals, "check_band_budget", recorded)
    argv = ["integrals", "-p", "lambda=100", "-p", "shear_t=0.3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    (m1, x1, h1, s1, q1), (m2, x2, h2, s2, q2) = seen
    assert m1 == m2 and np.array_equal(x1, x2) and h1 == h2
    assert s1 == s2 == spherical._kernel_reach(100.0)
    assert q1 is q2 is True


def test_kn_experiment(tmp_path, capsys):
    rc = cli.main(["kn", "-p", "degree=64", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert 0.2 < summary["s_kn"] <= 1.0


def test_schema_limits_read_their_owners(monkeypatch):
    # kn's degree cap is modes.MAX_DEGREE; the kernel and integral runs' least
    # lambda is spherical.MIN_LAMBDA, which dyadic, building no kernel, does
    # not read
    monkeypatch.setattr(modes, "MAX_DEGREE", 2000)
    assert cli.load_config(experiment="kn", overrides={"degree": 1500}).params["degree"] == 1500
    monkeypatch.setattr(spherical, "MIN_LAMBDA", 20)
    for experiment in ("kernel", "integrals", "beta-scaling", "rapid-decay"):
        with pytest.raises(DomainError, match="lambda"):
            cli.load_config(experiment=experiment, overrides={"lambda": 15.0})
    with pytest.raises(DomainError, match="lam must be >= 20"):
        spherical.make_kernel(15.0)
    assert cli.load_config(experiment="dyadic", overrides={"lambda": 15.0}).params["lambda"] == 15


def test_amplifier_experiment(tmp_path, capsys):
    rc = cli.main(["amplifier", "-p", "draws=50", "--out", str(tmp_path),
                   "--seed", "1"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["holds"] is True
    assert summary["n_primes"] == 8


def test_kernel_past_cosh_overflow_exits_cleanly(tmp_path, capsys):
    # cosh overflows past x = 710.48, but no circle node lies past
    # SPOT_RADIUS: the run exits 0 with no warning, and every row past the
    # support prints k = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["kernel", "-p", "lambda=10", "-p", "x_max=1000",
                       "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["summary"]["verify_residual"] <= 1e-6
    assert "Warning" not in out.err and "Traceback" not in out.err
    rows = [line.split(",") for line in
            (tmp_path / "kernel.csv").read_text().splitlines()[2:]]
    assert len(rows) == 10001 and rows[-1][0] == "1000"
    past = [k for x, k in rows if float(x) > spherical.SphericalKernel.support_radius]
    assert len(past) == 9998 and set(past) == {"0"}


@pytest.mark.parametrize("lam, x_max", [(400.0, 8.0), (1600.0, 8.0), (10.0, 12.0),
                                        (10.0, 250.0), (100.0, 64.0), (6400.0, 4.0)])
def test_kernel_spot_checks_accept_correct_tables(tmp_path, capsys, lam, x_max):
    # past the support k is 0; with the table's node count and no radius
    # cap, the spot checks there read up to 2.9e+01 (lam = 1600, x_max = 8)
    # and refused these tables with exit 4
    rc = cli.main(["kernel", "-p", f"lambda={lam}", "-p", f"x_max={x_max}",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["summary"]["verify_residual"] <= 1e-7


@pytest.mark.parametrize("x_max", [1.0, 8.0])
@pytest.mark.parametrize("t_lo, t_hi, rc", [(1.0, 2.0, 0), (0.0, 0.05, 4), (0.1, 0.15, 4),
                                            (0.5, 0.9, 4)])
def test_kernel_q_corruption_has_one_outcome_whatever_x_max(tmp_path, capsys, monkeypatch,
                                                            x_max, t_lo, t_hi, rc):
    # Q off by 1e-3 of its peak on [t_lo, t_hi]: on [1, 2], past SPOT_RADIUS,
    # no circle node reads it and the table builds; on the support or on the
    # spot checks' range past it the run exits 4 and writes no CSV; and
    # either outcome holds at every x_max
    tables = []

    def corrupted(step, values):
        if not tables:   # the first table is Q on its t-grid
            t = step * np.arange(values.size)
            values = values + np.where((t >= t_lo) & (t <= t_hi),
                                       1e-3 * np.abs(values).max(), 0.0)
        tables.append(step)
        return even_table(step, values)

    monkeypatch.setattr(spherical, "even_table", corrupted)
    assert cli.main(["kernel", "-p", "lambda=400", "-p", f"x_max={x_max}",
                     "--out", str(tmp_path)]) == rc
    if rc:
        assert "residual" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    else:
        assert (tmp_path / "kernel.csv").exists()


@pytest.mark.parametrize("x_max", ["1e-4", "0.000625", "0.00125"])
def test_kernel_below_one_wavelength_prints_the_origin(tmp_path, capsys, x_max):
    # one, two and three radial nodes on [0, x_max] at lam = 100: the build
    # is the default run's, and the one row printed is x = 0 at its k(0)
    assert cli.main(["kernel", "--out", str(tmp_path / "default")]) == 0
    default = json.loads(capsys.readouterr().out)["summary"]
    assert cli.main(["kernel", "-p", f"x_max={x_max}", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["k_at_0"] == default["k_at_0"]
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    first = (tmp_path / "default" / "kernel.csv").read_text().splitlines()[2]
    assert lines[1:] == ["x,k", first] and first.startswith("0,")


def test_kernel_table_ending_before_support(tmp_path, capsys):
    # x_max = 0.1 ends inside the support radius 0.2; the table still runs
    # to the support, and the rows are its nodes up to x_max
    rc = cli.main(["kernel", "-p", "x_max=0.1", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["summary"]["support_radius"] == 0.2
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[1] == "x,k"
    rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
    assert [x for x, _ in rows] == pytest.approx([0.01 * i for i in range(11)], abs=1e-15)
    assert [k for _, k in rows] == pytest.approx(
        [960.98736428, 703.835072619, 164.68339808, -216.637736212, -240.442031685,
         -62.680368282, 69.3145254984, 72.1234843767, 17.9876435166, -14.1118485584,
         -12.9603484228], rel=1e-9)


def test_integrals_default_writes_real_value(tmp_path, capsys):
    # at its default g = e, and at a shear, whose band matrix is symmetric,
    # the integral is real, and the CSV says so exactly
    for name, params in (("e", []), ("shear", ["-p", "shear_t=0.3"])):
        out = tmp_path / name
        assert cli.main(["integrals", *params, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["value"][1] == 0.0
        lines = (out / "integrals.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert row["value_im"] == "0" and float(row["value_re"]) != 0


def test_restrict_experiment_small(tmp_path, capsys):
    rc = cli.main(["restrict", "-p", "degrees=[16,32,64]", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert "fit_exponent" in summary


def test_dyadic_experiment(tmp_path, capsys):
    rc = cli.main(["dyadic", "-p", "k_indices=[-1]", "-p", "lambda=64.0",
                   "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["per_k"]["-1"]["decay_slope"] is not None


def test_hecke_returns_with_order_basis_config(tmp_path, capsys):
    cfg = tmp_path / "alg.json"
    cfg.write_text(json.dumps({
        "experiment": "hecke-returns",
        "params": {"a": 2, "b": 3, "q": 6, "n_max": 4,
                   "order_basis": [["1", "0", "1/2", "0"],
                                    ["0", "1", "1/2", "1/2"],
                                    ["0", "0", "1/2", "0"],
                                    ["0", "0", "0", "1/2"]]}}))
    rc = cli.main(["hecke-returns", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["max_shape_ratio"] >= 0.5   # the n=1 identity row


def test_measure_experiment_summary(tmp_path, capsys):
    rc = cli.main(["measure", "--out", str(tmp_path), "-p", "depth=5"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["atoms"] == 32
    assert summary["sup_ratio_overall"] > 0


# stderr text pinned for some cases of test_invalid_params_exit_2 below
INVALID_PARAM_MESSAGES = {
    ("integrals", "alpha=0.1"): "Cantor atoms collide in floating point at alpha = 0.1,"
                                " depth = 8: cells are r^depth = 8.27e-25 wide with"
                                " r = 2^(-1/alpha) = 0.000976562",
    **{(run, "depth=8"): "unknown parameter(s) ['depth']"
       for run in ("integrals", "beta-scaling", "rapid-decay", "theorem3")},
}


@pytest.mark.parametrize("experiment, param", [
    ("restrict", 'degrees=["a"]'),
    ("hecke-returns", "kappas=[0]"),
    ("hecke-returns", "order_basis=[[1]]"),
    ("measure", "depth=true"),
    ("beta-scaling", "beta_exponents=[]"),
    ("rapid-decay", "t_factors=[1.0]"),
    ("theorem3", "degrees=[]"),
    # degrees outside 1 <= l <= MAX_DEGREE, refused by SphereMode
    ("restrict", "degrees=[0]"),
    ("restrict", "degrees=[2000]"),
    ("theorem3", "degrees=[1001]"),
    ("hecke-returns", "a=1"),
    ("hecke-returns", "b=1"),
    ("hecke-returns", "b=7"),
    # lattices that are not orders: not closed (w^2 = 2 is not in it), norms
    # that are not integers (of w W / 3 and of w / 2), and 2 O (no 1)
    ("hecke-returns", "order_basis=[[100000000000000000000,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"),
    ("hecke-returns", 'order_basis=[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,"1/3"]]'),
    ("hecke-returns", 'order_basis=[[1,0,0,0],[0,"1/2",0,0],[0,0,1,0],[0,0,0,1]]'),
    ("hecke-returns", "order_basis=[[2,0,0,0],[0,2,0,0],[0,0,2,0],[0,0,0,2]]"),
    # Z + N O, an order whose integer matrices (N = 10^19) or whose norm-form
    # values over the scan box (N = 10^9) do not fit int64
    ("hecke-returns", "order_basis=[[1,0,0,0],[0,10000000000000000000,0,0],"
                      "[0,0,10000000000000000000,0],[0,0,0,10000000000000000000]]"),
    ("hecke-returns", "order_basis=[[1,0,0,0],[0,1000000000,0,0],[0,0,1000000000,0],"
                      "[0,0,0,1000000000]]"),
    # non-finite numbers: JSON's NaN and Infinity, and the raw strings nan, inf
    ("integrals", "shear_t=NaN"),
    ("integrals", "shear_t=Infinity"),
    ("integrals", "shear_t=nan"),
    ("integrals", "lambda=Infinity"),
    ("rapid-decay", "epsilon0=Infinity"),
    ("rapid-decay", "t_factors=[0,NaN]"),
    ("dyadic", "lambda=Infinity"),
    ("kernel", "x_max=Infinity"),
    ("kernel", "x_max=inf"),
    # a radial range that is empty
    ("kernel", "x_max=0"),
    ("kernel", "x_max=-1e-4"),
    # empty sweeps
    ("energy", "depths=[]"),
    ("energy", "s_values=[]"),
    # a depth-0 measure is one atom, whose energy is 0
    ("energy", "depths=[0]"),
    ("energy", "depths=[0,1]"),
    ("energy", "depths=[1,0]"),
    ("restrict", "degrees=[]"),
    ("dyadic", "k_indices=[]"),
    ("hecke-returns", "kappas=[]"),
    # 2^k > 1/2, refused before 2^k overflows
    ("dyadic", "k_indices=[5000]"),
    # sweeps that repeat a value, refused before any work: a repeat would
    # duplicate rows under one summary key, or leave a fit degenerate
    ("energy", "depths=[6,6]"),
    ("energy", "s_values=[0.5,0.5]"),
    ("restrict", "degrees=[64,64,128]"),
    ("theorem3", "degrees=[64,64,128]"),
    ("dyadic", "k_indices=[-1,-1]"),
    ("hecke-returns", "kappas=[0.5,0.5]"),
    ("rapid-decay", "t_factors=[0,1,1]"),
    ("beta-scaling", "beta_exponents=[0.3,0.5,0.5]"),
    # the kernel's Paley-Wiener width is a constant, not a parameter
    ("kernel", "h_width=0.05"),
    # r = 2^-10: at the default depth 8 the Cantor atoms collide in floats
    ("integrals", "alpha=0.1"),
    # the integral runs derive their depth from lambda and alpha
    ("integrals", "depth=8"),
    ("beta-scaling", "depth=8"),
    ("rapid-decay", "depth=8"),
    # theorem3's lhs, the equator value of |e|, is the same for every measure
    ("theorem3", "depth=8"),
])
def test_invalid_params_exit_2(tmp_path, capsys, experiment, param):
    assert cli.main([experiment, "-p", param, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert INVALID_PARAM_MESSAGES.get((experiment, param), "") in err


@pytest.mark.parametrize("experiment, key", [
    (name, key) for name, (_, schema) in cli._EXPERIMENTS.items()
    for key, (kind, _, _) in schema.items() if kind in ([int], [float])])
def test_flat_list_params_refuse_empty_and_repeats(experiment, key):
    # every flat list parameter is a sweep: an empty list has no rows, and a
    # repeat would duplicate rows under one summary key
    first = cli._EXPERIMENTS[experiment][1][key][1][0]
    for value in ([], [first, first]):
        with pytest.raises(DomainError):
            cli.load_config(experiment=experiment, overrides={key: value})


def test_nonfinite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "integrals", "params": {"shear_t": NaN}}')
    assert cli.main(["integrals", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["beta-scaling", "-p", "beta_exponents=[0.1,0.5]"],
    ["dyadic", "-p", "k_indices=[-10]"],
    ["rapid-decay", "-p", "epsilon0=1000"],
    ["rapid-decay", "-p", "epsilon0=0.5"],
    ["rapid-decay", "-p", "t_factors=[0,1e308]"],
    ["rapid-decay", "-p", "t_factors=[0,100000]"],
    # t* = 100^-0.1 (100^0.9)^(1/2) ~ 5, so t = 1e308 t* = inf
    ["rapid-decay", "-p", "epsilon0=0.4", "-p", "beta_exponent=0.9",
     "-p", "t_factors=[0,1e308]"],
], ids=["beta-scaling-exponents", "dyadic-k", "rapid-decay-epsilon0-1000",
        "rapid-decay-epsilon0-half", "rapid-decay-shear-nan", "rapid-decay-shear-edge",
        "rapid-decay-shear-inf"])
def test_refusals_come_before_the_bump(tmp_path, capsys, monkeypatch, argv):
    # a beta = lam^e outside [lam^0.2, lam^0.8], 2^k below lam^(-1/2), an
    # epsilon0 outside (0, 1/2), and a shear that is infinite or whose
    # distance to A dist_to_diag flags (NaN, or a minimizer at the bracket
    # edge) are refused before the bump, the weight or the kernel is built,
    # with the validation line alone
    # (dist_to_diag's numpy overflow warnings on t ~ 1e308 stay silent)
    builds = _count_calls(monkeypatch, BumpPair, "__init__")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert builds == []


@pytest.mark.parametrize("basis, n_max", [(None, 8), (MAXIMAL_ORDER_2_3, 4)],
                         ids=["default", "maximal"])
def test_hecke_returns_rows_match_hecke_returns(tmp_path, basis, n_max):
    params = {"n_max": n_max}
    if basis is not None:
        params["order_basis"] = [[str(v) for v in row] for row in basis]
    cli.run_experiment(cli.load_config(experiment="hecke-returns", overrides=params,
                                       out=str(tmp_path)))
    lines = (tmp_path / "hecke_returns.csv").read_text().splitlines()
    assert lines[1] == "n,kappa,M,shape_ratio"
    alg = QuatAlgebra(basis=basis)
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4 * n_max
    for n, kappa, M, _ in rows:
        assert int(M) == hecke_returns(alg, GroupElement.identity(), int(n), float(kappa))


@pytest.mark.parametrize("experiment, params", [
    ("rapid-decay", ["lambda=10", "t_factors=[0,4]"]),
    ("beta-scaling", ["lambda=10", "beta_exponents=[0.3,0.6]"]),
], ids=["rapid-decay", "beta-scaling"])
def test_integral_runs_build_one_bump(tmp_path, monkeypatch, experiment, params):
    builds = _count_calls(monkeypatch, BumpPair, "__init__")
    argv = [experiment, "--out", str(tmp_path)]
    for p in params:
        argv += ["-p", p]
    assert cli.main(argv) == 0
    assert len(builds) == 1


# ---------------------------------------------------------------- CLI fuzz

# experiments that run in well under a second at their defaults
_CHEAP = ("measure", "energy", "hecke-returns", "amplifier", "kn", "exponents",
          "restrict")

_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.just({}),
                   st.just([[]]), st.sampled_from(["1/2", "1e3", "true"]))
_INTS = st.one_of(st.sampled_from([0, 1, -1, 2, 8]), st.integers(-10 ** 4, -1),
                  st.just(-10 ** 30), st.integers(10 ** 7, 10 ** 30),
                  st.sampled_from([0.5, 2.0, -1e300]))
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 1e-12, 1e-300, 1e300,
                                     float("nan"), float("inf"), float("-inf")]),
                    st.floats(-10.0, 0.0), st.integers(-2, 2))


_ENTRIES = st.one_of(st.sampled_from([0, 1, -1, 2, "1/2", "1/3"]),
                     st.integers(10 ** 7, 10 ** 30))
# whole 4 x 4 order bases: the maximal order, mostly non-orders, and Z + N O
# with N up to 10^20
_BASES = st.one_of(
    st.just([[str(v) for v in row] for row in MAXIMAL_ORDER_2_3]),
    st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), min_size=4, max_size=4),
    st.integers(1, 10 ** 20).map(
        lambda N: [[1, 0, 0, 0], [0, N, 0, 0], [0, 0, N, 0], [0, 0, 0, N]]))


def _value(typ):
    """Typed-wrong, out-of-range and boundary values for a parameter of type typ;
    positive sizes are either small or huge (10^7 to 10^30), so every accepted
    draw is a cheap run or a budget refusal."""
    if isinstance(typ, list):
        return st.one_of(_WRONG, _value(typ[0]), st.lists(_value(typ[0]), max_size=4))
    if typ is int:
        return st.one_of(_WRONG, _INTS)
    if typ is float:
        return st.one_of(_WRONG, _FLOATS)
    if typ is str:
        return st.one_of(_WRONG, st.sampled_from(["zonal", "highest_weight", ""]))
    return st.one_of(_WRONG, _INTS, st.sampled_from(["1/2", "0", "x"]))   # _rational


@st.composite
def _fuzzed_run(draw):
    experiment = draw(st.sampled_from(_CHEAP))
    schema = cli._EXPERIMENTS[experiment][1]
    keys = draw(st.lists(st.sampled_from(sorted(schema)), min_size=1, max_size=3,
                         unique=True))
    if "order_basis" in schema and draw(st.booleans()):
        # a whole basis alone, so no other invalid parameter stops the run first
        return experiment, {"order_basis": draw(_BASES)}
    return experiment, {k: draw(_value(schema[k][0])) for k in keys}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzzed_run(), st.one_of(st.none(), _INTS))
# a negative seed with parameters that all pass, which the draws rarely give:
# each is refused with exit 2, before numpy's default_rng would raise; a
# seed past 64 bits on a valid run, which exits 0; and an n_max whose grid
# SCAN_BUDGET refuses at n = 177, exit 3, before any list of n_max pairs
@example(("measure", {}), -1)
@example(("energy", {}), -1)
@example(("hecke-returns", {}), -1)
@example(("amplifier", {}), -1)
@example(("kn", {}), -1)
@example(("exponents", {}), -1)
@example(("restrict", {}), -1)
@example(("amplifier", {"draws": 1}), 10 ** 30)
@example(("hecke-returns", {"n_max": 10 ** 30}), None)
def test_cli_fuzz_exit_codes_and_strict_json(tmp_path, capsys, run, seed):
    experiment, params = run
    argv = [experiment, "--out", str(tmp_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    for key, val in params.items():
        argv += ["-p", f"{key}={json.dumps(val)}"]
    try:
        rc = cli.main(argv)
    except SystemExit as e:   # argparse refuses a seed that is not an integer
        rc = e.code
    out = capsys.readouterr().out
    assert rc in (0, 2, 3, 4)
    if out:
        json.loads(out, parse_constant=_reject_constant)


_INTEGRAL_RUNS = ("integrals", "beta-scaling", "rapid-decay")
# values that pass the integral runs' schemas or sit on their edges, up to an
# integer beyond float range and a float near the top of it
_IN_RANGE = st.sampled_from([0, 0.3, 0.49, 0.5, 0.6, 0.9, 1.0, 4.0, 8, 10, 100.3, 1e5,
                             2 ** 24, 2 ** 24 + 1, 1e300, 1.7e308, 10 ** 400])


class _Built(Exception):
    """Raised by the stubbed builders: the run passed every refusal."""


def _refuse_to_build(*args, **kwargs):
    raise _Built


def _integral_value(typ):
    if isinstance(typ, list):
        lists = st.lists(st.one_of(_IN_RANGE, st.floats(0.0, 1e6), _value(typ[0])),
                         min_size=1, max_size=4)
        return st.one_of(lists.map(lambda v: [0] + v), lists, _value(typ))
    return st.one_of(_IN_RANGE, st.floats(0.0, 1e6), _value(typ))


@st.composite
def _fuzzed_integral_run(draw):
    experiment = draw(st.sampled_from(_INTEGRAL_RUNS))
    schema = cli._EXPERIMENTS[experiment][1]
    keys = draw(st.lists(st.sampled_from(sorted(schema)), min_size=1, max_size=2,
                         unique=True))
    return experiment, {k: draw(_integral_value(schema[k][0])) for k in keys}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzzed_integral_run())
@example(("integrals", {"resolution_per_wavelength": 10 ** 400}))
@example(("rapid-decay", {"epsilon0": 1000.0}))
@example(("rapid-decay", {"t_factors": [0, 1e308]}))
# the derived depth 15, 2^15 atoms, passes every budget
@example(("integrals", {"lambda": 19000.0, "alpha": 1.0}))
def test_integral_runs_fuzz_refuse_before_building(tmp_path, capsys, monkeypatch, run):
    # every draw is refused (rc 2 or 3, empty stdout) or reaches the bump, the
    # weight or the kernel, which are stubbed so the fuzz stays cheap
    for owner, name in ((frequency, "BumpPair"), (measures, "build_weight"),
                        (spherical, "make_kernel")):
        monkeypatch.setattr(owner, name, _refuse_to_build)
    experiment, params = run
    argv = [experiment, "--out", str(tmp_path)]
    for key, val in params.items():
        argv += ["-p", f"{key}={json.dumps(val)}"]
    try:
        rc = cli.main(argv)
    except _Built:
        return
    assert rc in (2, 3)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("alpha, lam, depth", [
    (0.9, 100.0, 8), (0.9, 400.0, 8), (0.9, 800.0, 9), (0.9, 1600.0, 10),
    (0.9, 3200.0, 11), (0.9, 12800.0, 13),
    # r^d = 1/lam exactly: 2^-9 = 1/512, and 2^(-8/0.8) = 1/1024
    (1.0, 512.0, 9), (0.8, 1024.0, 8),
])
def test_integral_runs_derive_depth(tmp_path, monkeypatch, alpha, lam, depth):
    # the Cantor depth is the smallest d >= 8 whose cells r^d = 2^(-d/alpha)
    # are at most 1/lam wide
    smallest = 8
    while 2.0 ** (-smallest / alpha) > 1.0 / lam:
        smallest += 1
    assert smallest == depth
    seen = []

    def spy(a, d):
        seen.append((a, d))
        raise _Built

    monkeypatch.setattr(measures, "make_cantor_measure", spy)
    for run in _INTEGRAL_RUNS:
        with pytest.raises(_Built):
            cli.main([run, "-p", f"lambda={lam}", "-p", f"alpha={alpha}",
                      "--out", str(tmp_path)])
    assert seen == [(alpha, depth)] * len(_INTEGRAL_RUNS)
