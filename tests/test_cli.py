import json
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import restrictlab.cli as cli
from restrictlab import frequency, measures, spherical
from restrictlab.errors import DomainError
from restrictlab.frequency import BumpPair
from restrictlab.geometry import GroupElement
from restrictlab.hecke import MAXIMAL_ORDER_2_3, QuatAlgebra

from test_hecke import hecke_returns


def test_load_config_defaults_echoed(tmp_path):
    cfg = cli.load_config(experiment="kernel", overrides={"lambda": 100.0})
    assert cfg.params == {"lambda": 100.0, "h_width": 0.05, "x_max": 4.0}


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
], ids=["seed-str", "seed-bool", "seed-float", "params-list", "params-str", "out-int"])
def test_load_config_rejects_bad_file_fields(tmp_path, capsys, content):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "measure", **content}))
    with pytest.raises(DomainError):
        cli.load_config(path=str(p))
    assert cli.main(["measure", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


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
    from restrictlab import integrals
    monkeypatch.setattr(integrals, "rapid_decay_shears",
                        lambda *args: (float("inf"), [(0.0, 0.0, 0.0)]))
    monkeypatch.setattr(integrals, "rapid_decay_experiment",
                        lambda *args: ([{"t": 0.0}], float("nan")))
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


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["measure", "--out", str(out), "--seed", "3",
                       "-p", "depth=4"])
        assert rc == 0
        outs.append((out / "measure.csv").read_bytes())
    assert outs[0] == outs[1]


def test_validation_exit_code():
    assert cli.main(["theorem3", "-p", "alpha=0.4", "--out", "/tmp/x"]) == 2


def test_resource_exit_code(tmp_path):
    rc = cli.main(["kernel", "-p", "lambda=1000000.0", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ["kernel", "-p", "h_width=1e-6"],
    ["kernel", "-p", "lambda=1e5", "-p", "x_max=0.01"],
    ["integrals", "-p", "depth=0", "-p", "lambda=1e5"],
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
    # 2^22 atoms x 3201 grid points: refused at once instead of looping, and
    # before the bump table is built; likewise the other weight-building runs,
    # and a 3.2M-node kernel table, before the bump or the weight is built
    builds = _count_calls(monkeypatch, BumpPair, "__init__")
    weights = _count_calls(monkeypatch, measures, "build_weight")
    assert cli.main(["integrals", "-p", "depth=22", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out == ""
    for argv in (["beta-scaling", "-p", "depth=22"], ["rapid-decay", "-p", "depth=22"],
                 ["dyadic", "-p", "lambda=1e7"], ["dyadic", "-p", "lambda=20000"],
                 ["integrals", "-p", "lambda=200000", "-p", "depth=0"]):
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
    ("integrals", "resolution_per_wavelength=1" + "0" * 400),
    ("integrals", "lambda=1e308"),
])
def test_huge_sizes_exit_3(tmp_path, capsys, experiment, param):
    # valid but huge sizes are refused by a budget before the work starts,
    # instead of ending in a traceback or a hang
    assert cli.main([experiment, "-p", param, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out == ""


def test_kn_experiment(tmp_path, capsys):
    rc = cli.main(["kn", "-p", "degree=64", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert 0.2 < summary["s_kn"] <= 1.0


def test_amplifier_experiment(tmp_path, capsys):
    rc = cli.main(["amplifier", "-p", "draws=50", "--out", str(tmp_path),
                   "--seed", "1"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["holds"] is True
    assert summary["n_primes"] == 8


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
    # a kernel table of one radial node
    ("kernel", "x_max=1e-4"),
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
])
def test_invalid_params_exit_2(tmp_path, capsys, experiment, param):
    assert cli.main([experiment, "-p", param, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


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
], ids=["beta-scaling-exponents", "dyadic-k", "rapid-decay-epsilon0-1000",
        "rapid-decay-epsilon0-half", "rapid-decay-shear-nan", "rapid-decay-shear-edge"])
def test_refusals_come_before_the_bump(tmp_path, capsys, monkeypatch, argv):
    # a beta = lam^e outside [lam^0.2, lam^0.8], 2^k below lam^(-1/2), an
    # epsilon0 outside (0, 1/2), and a shear whose distance to A dist_to_diag
    # flags (NaN, or a minimizer at the bracket edge) are refused before the
    # bump, the weight or the kernel is built, with the validation line alone
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
@given(_fuzzed_run())
def test_cli_fuzz_exit_codes_and_strict_json(tmp_path, capsys, run):
    experiment, params = run
    argv = [experiment, "--out", str(tmp_path)]
    for key, val in params.items():
        argv += ["-p", f"{key}={json.dumps(val)}"]
    rc = cli.main(argv)
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
