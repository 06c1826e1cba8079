import argparse
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbspde.cli import _flags, _load_config, build_parser, main, run_verification
from fracbspde.grid import Grid1D, GridFunction, write_field_csv


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def test_kernel_subcommand_mass(tmp_path):
    out = tmp_path / "k.csv"
    rep = tmp_path / "k.json"
    code = main(
        [
            "kernel",
            "--alpha",
            "1.5",
            "--A",
            "1.0",
            "--output",
            str(out),
            "--report",
            str(rep),
        ]
    )
    assert code == 0
    header, data = read_csv(out)
    assert header == ["x", "G", "DG", "D2G"]
    tail = json.load(open(rep))["tail_mass_beyond_box"]
    mass = np.trapezoid(data[:, 1], data[:, 0]) + tail
    assert abs(mass - 1.0) < 1e-6


def test_unknown_flag_exits_2(capsys):
    assert main(["kernel", "--frobnicate"]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alpha": 1.5, "bogus_key": 1}')
    code = main(["kernel", "--config", str(cfg), "--output", str(tmp_path / "k.csv")])
    assert code == 2


def test_fraclap_round_trip(tmp_path):
    grid = Grid1D(-32.0, 32.0, 256)
    xi3 = 2 * np.pi * 3 / grid.length
    f = GridFunction.from_callable(grid, lambda x: np.sin(xi3 * x))
    src = tmp_path / "f.csv"
    write_field_csv(f, str(src))
    for method, tol in (("spectral", 1e-10), ("integral", 1e-3)):
        out = tmp_path / f"out_{method}.csv"
        code = main(
            [
                "fraclap",
                "--alpha",
                "1.5",
                "--method",
                method,
                "--input",
                str(src),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        _, data = read_csv(out)
        assert np.max(np.abs(data[:, 1] - xi3**1.5 * f.values)) < max(tol, 1e-3)


def test_levy_outputs(tmp_path):
    out = tmp_path / "paths.csv"
    summ = tmp_path / "summary.json"
    code = main(
        [
            "levy",
            "--alpha",
            "1.5",
            "--paths",
            "3",
            "--steps",
            "16",
            "--seed",
            "11",
            "--output",
            str(out),
            "--summary",
            str(summ),
        ]
    )
    assert code == 0
    header, data = read_csv(out)
    assert header == ["t", "path0", "path1", "path2"]
    assert data.shape == (17, 4)
    assert np.all(data[0, 1:] == 0.0)
    s = json.load(open(summ))
    assert set(s["empirical_char_function"]) == {"0.5", "1.0", "2.0"}


def test_solve_pde_subcommand(tmp_path):
    cfg = tmp_path / "pde.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"x_min": -32.0, "x_max": 32.0, "n": 128},
                "alpha": 1.5,
                "T": 1.0,
                "g": "sin:1",
                "steps": 32,
            }
        )
    )
    out = tmp_path / "sol.csv"
    code = main(["solve-pde", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    _, data = read_csv(out)
    # terminal snapshot reproduces g, and t=0 shows single-mode decay
    xi1 = 2 * np.pi / 64.0
    last = data[data[:, 0] == 1.0]
    assert np.max(np.abs(last[:, 2] - np.sin(xi1 * last[:, 1]))) < 1e-9
    first = data[data[:, 0] == 0.0]
    assert np.max(
        np.abs(first[:, 2] - np.exp(-(xi1**1.5)) * np.sin(xi1 * first[:, 1]))
    ) < 1e-9


def test_solve_bspde_subcommand(tmp_path):
    cfg = tmp_path / "bspde.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"x_min": -32.0, "x_max": 32.0, "n": 128},
                "alpha": 1.5,
                "g_profile": "sin:1",
                "g_c0": 0.5,
                "g_c1": 1.0,
                "paths": 400,
                "steps": 32,
            }
        )
    )
    rep = tmp_path / "probe.json"
    code = main(
        [
            "solve-bspde",
            "--config",
            str(cfg),
            "--seed",
            "3",
            "--probe",
            "0.0,16.0",
            "--output",
            str(tmp_path / "b.csv"),
            "--report",
            str(rep),
        ]
    )
    assert code == 0
    probes = json.load(open(rep))["probes"]
    assert abs(probes[0]["difference_mean"]) < 0.05


def test_zakai_subcommand(tmp_path):
    out = tmp_path / "movie.csv"
    code = main(["zakai", "--steps", "16", "--seed", "5", "--output", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["t", "x", "p"]
    t0 = data[data[:, 0] == 0.0]
    assert abs(np.trapezoid(t0[:, 2], t0[:, 1]) - 1.0) < 1e-3


def test_control_subcommand(tmp_path):
    cfg = tmp_path / "ctrl.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"x_min": -32.0, "x_max": 32.0, "n": 64},
                "controls": [0.0, 0.5],
                "intervals": 1,
                "paths": 200,
                "steps": 16,
            }
        )
    )
    out = tmp_path / "control.json"
    code = main(["control", "--config", str(cfg), "--seed", "2", "--output", str(out)])
    payload = json.load(open(out))
    assert payload["maximum_principle_passed"] == (code == 0)
    assert len(payload["policy_table"]) == 2


def test_verify_all_subset_and_determinism(tmp_path):
    args = [
        "verify-all",
        "--checks",
        "gaussian-reduction,chapman-kolmogorov",
        "--seed",
        "7",
    ]
    r1, t1 = tmp_path / "r1.json", tmp_path / "t1.json"
    r2, t2 = tmp_path / "r2.json", tmp_path / "t2.json"
    assert main(args + ["--report", str(r1), "--timing", str(t1)]) == 0
    assert main(args + ["--report", str(r2), "--timing", str(t2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()  # canonical report is byte-identical
    payload = json.loads(r1.read_text())
    assert payload["tier"] == "custom"
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_all_unknown_check_exits_2(tmp_path):
    code = main(
        [
            "verify-all",
            "--checks",
            "not-a-check",
            "--report",
            str(tmp_path / "r.json"),
            "--timing",
            str(tmp_path / "t.json"),
        ]
    )
    assert code == 2


def test_run_verification_payload_schema():
    payload, timings = run_verification(ids=["gaussian-reduction"], seed=1)
    assert payload["checks"][0]["id"] == "gaussian-reduction"
    assert "gaussian-reduction" in timings
    # timings are excluded from the canonical payload by design
    assert "seconds" not in payload
    with pytest.raises(Exception):
        run_verification(tier="bogus")


def _config_error(capsys, argv) -> str:
    """Run argv, require exit code 2, and return the key path the error names."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.split("config error at ")[1].split(":")[0]


def test_control_rejects_steps_off_the_check_grid(tmp_path, capsys):
    base = ["control", "--paths", "8", "--output", str(tmp_path / "c.json")]
    # interval midpoints of 4 intervals at 24 steps are off the halved probe grid
    assert _config_error(capsys, base + ["--intervals", "4"]) == "steps"
    assert _config_error(capsys, base + ["--steps", "25", "--intervals", "1"]) == "steps"
    assert _config_error(capsys, base + ["--intervals", "0"]) == "intervals"
    assert not (tmp_path / "c.json").exists()


def test_solve_pde_off_grid_output_times_exit_2(tmp_path, capsys):
    cfg = tmp_path / "pde.json"
    cfg.write_text(json.dumps({"grid": {"n": 64}, "steps": 16, "output_times": [0.0, 0.3]}))
    argv = ["solve-pde", "--config", str(cfg), "--output", str(tmp_path / "s.csv")]
    assert _config_error(capsys, argv) == "output_times"


def test_solve_bspde_off_grid_probe_exit_2(tmp_path, capsys):
    argv = ["solve-bspde", "--paths", "50", "--output", str(tmp_path / "b.csv")]
    # 0.3 lies between the nodes 0.296875 and 0.3125 of the default 64-step grid
    assert _config_error(capsys, argv + ["--probe", "0.3,0"]) == "probe"
    assert main(argv + ["--probe", "0.3"]) == 2  # not a t,x pair


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"grid": {"n": 100}}, "grid.n"),
        ({"grid": {"n": True}}, "grid.n"),
        ({"grid": {"x_min": 1.0, "x_max": 1.0}}, "grid.x_max"),
        ({"grid": {"x_min": "a"}}, "grid.x_min"),
        ({"steps": True}, "steps"),
        ({"T": False}, "T"),
        # a config file that is missing, and one that is not JSON
        (None, "config"),
        ("not-json", "config"),
        # counts below their minimum, from a config file and from flags
        ({"steps": 0}, "steps"),
        (["levy", "--steps", "0"], "steps"),
        (["levy", "--paths", "0"], "paths"),
        (["solve-bspde", "--steps", "0"], "steps"),
        (["solve-bspde", "--paths", "0"], "paths"),
        (["solve-pde", "--steps", "0"], "steps"),
        (["kernel", "--samples", "0"], "samples"),
        (["fraclap", "--method", "integral", "--quad-points", "0"], "quadrature_points"),
        # the maximum-principle check takes a standard error over paths
        (["control", "--paths", "1"], "paths"),
        # lengths that must be > 0, and the control set
        (["levy", "--horizon", "0"], "horizon"),
        (["kernel", "--xrange", "0"], "x_range"),
        (["kernel", "--xrange", "-5"], "x_range"),
        ({"p0_width": 0}, "p0_width"),
        ({"T": -1}, "T"),
        ({"T": 0}, "T"),
        (("solve-pde", {"T": -1}), "T"),
        (("solve-pde", {"T": 0}), "T"),
        (("solve-bspde", {"T": -1}), "T"),
        (("solve-bspde", {"T": 0}), "T"),
        (("control", {"T": -1}), "T"),
        (("control", {"T": 0}), "T"),
        (("control", {"controls": []}), "controls"),
        (("control", {"controls": ["a"]}), "controls"),
        # the initial Gaussian underflows to zero on a grid far from the origin
        ({"grid": {"n": 32, "x_min": 15.0, "x_max": 20.0}, "p0_width": 0.3}, "p0_width"),
        (("control", {"grid": {"n": 32, "x_min": 45.0, "x_max": 60.0}}), "grid"),
        # --method takes no argparse choices; the subcommand rejects a bad one
        (["fraclap", "--method", "bogus"], "method"),
        # values out of their range, which exited 1 without a key path
        (("kernel", {"alpha": 2.5}), "alpha"),
        (["levy", "--alpha", "0.5"], "alpha"),
        (["kernel", "--A", "0"], "A"),
        (["fraclap", "--method", "integral", "--inner-cutoff", "0"], "inner_cutoff"),
        (["fraclap", "--method", "integral", "--alpha", "2"], "alpha"),
        (("solve-pde", {"a": "const:-1"}), "a"),
        (("solve-bspde", {"a": "const:-1"}), "a"),
        # positive values that the solvers still cannot take
        (["kernel", "--A", "1e-300"], "A"),
        (["fraclap", "--method", "integral", "--inner-cutoff", "0.5"], "inner_cutoff"),
        ({"mu": "const:0"}, "mu"),
    ],
)
def test_config_type_and_grid_errors_exit_2(tmp_path, capsys, cfg, key):
    """cfg is the argv of a subcommand, a (subcommand, config dict) pair, or a
    zakai config (a dict, raw text, or None for no file)."""
    path = tmp_path / "z.json"
    if isinstance(cfg, list):
        argv = cfg
    else:
        command, cfg = cfg if isinstance(cfg, tuple) else ("zakai", cfg)
        argv = [command, "--config", str(path)]
        if cfg is not None:
            path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "out"
    assert _config_error(capsys, argv + ["--output", str(out)]) == key
    assert not out.exists()


def _subparsers() -> dict:
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_every_flag_sets_its_config_key():
    for name, sub in _subparsers().items():
        dests = {a.dest for a in sub._actions} - {"help", "config"}
        assert dests <= set(sub.get_default("schema")), name


# every flag of every subcommand besides --config: spelling -> (dest, value type)
_FLAGS = {
    "kernel": {
        "--alpha": ("alpha", float),
        "--A": ("A", float),
        "--xrange": ("x_range", float),
        "--samples": ("samples", int),
        "--output": ("output", None),
        "--report": ("report", None),
    },
    "fraclap": {
        "--alpha": ("alpha", float),
        "--method": ("method", None),
        "--input": ("input", None),
        "--output": ("output", None),
        "--quad-points": ("quadrature_points", int),
        "--inner-cutoff": ("inner_cutoff", float),
    },
    "levy": {
        "--alpha": ("alpha", float),
        "--paths": ("paths", int),
        "--steps": ("steps", int),
        "--seed": ("seed", int),
        "--horizon": ("horizon", float),
        "--output": ("output", None),
        "--summary": ("summary", None),
    },
    "solve-pde": {
        "--steps": ("steps", int),
        "--output": ("output", None),
        "--report": ("report", None),
    },
    "solve-bspde": {
        "--paths": ("paths", int),
        "--steps": ("steps", int),
        "--seed": ("seed", int),
        "--probe": ("probe", list),
        "--output": ("output", None),
        "--report": ("report", None),
    },
    "zakai": {
        "--steps": ("steps", int),
        "--seed": ("seed", int),
        "--output": ("output", None),
        "--report": ("report", None),
    },
    "control": {
        "--paths": ("paths", int),
        "--steps": ("steps", int),
        "--seed": ("seed", int),
        "--intervals": ("intervals", int),
        "--output": ("output", None),
    },
    "verify-all": {
        "--tier": ("tier", None),
        "--seed": ("seed", int),
        "--checks": ("checks", list),
        "--report": ("report", None),
        "--timing": ("timing", None),
    },
}


def test_flag_spellings_and_dests():
    subs = _subparsers()
    assert set(subs) == set(_FLAGS)
    for name, sub in subs.items():
        flags = {
            opt: (a.dest, a.type)
            for a in sub._actions
            for opt in a.option_strings
            if a.dest not in ("help", "config")
        }
        assert set(flags) == set(_FLAGS[name]), name
        for opt, (dest, kind) in _FLAGS[name].items():
            # the list flags are pinned by how they parse, below
            assert flags[opt][0] == dest and (kind is list or flags[opt][1] is kind), (name, opt)
    args = build_parser().parse_args(["solve-bspde", "--probe", "0.5,1", "--probe", "1,-2.5"])
    assert args.probe == [[0.5, 1.0], [1.0, -2.5]]
    args = build_parser().parse_args(["verify-all", "--checks", "kernel-mass,gaussian-reduction"])
    cfg = _load_config(args.config, args.schema, _flags(args, args.schema))
    assert cfg["checks"] == ["kernel-mass", "gaussian-reduction"]


@pytest.mark.parametrize("how", ["config", "flag"])
def test_verify_all_rejects_custom_tier(tmp_path, capsys, monkeypatch, how):
    # custom labels a --checks run; as a tier it used to run every check
    monkeypatch.setattr("fracbspde.cli.run_checks", lambda **kw: pytest.fail("checks ran"))
    cfg = tmp_path / "v.json"
    cfg.write_text('{"tier": "custom"}')
    report = tmp_path / "r.json"
    argv = ["verify-all", "--report", str(report), "--timing", str(tmp_path / "t.json")]
    argv += ["--config", str(cfg)] if how == "config" else ["--tier", "custom"]
    assert _config_error(capsys, argv) == "tier"
    assert not report.exists()


def test_verify_all_rejects_negative_seed(tmp_path, capsys, monkeypatch):
    # the checks seed numpy generators, which raised a ValueError traceback
    monkeypatch.setattr("fracbspde.cli.run_checks", lambda **kw: pytest.fail("checks ran"))
    report = tmp_path / "r.json"
    argv = ["verify-all", "--seed", "-1", "--checks", "chapman-kolmogorov", "--report", str(report)]
    assert _config_error(capsys, argv + ["--timing", str(tmp_path / "t.json")]) == "seed"
    assert not report.exists()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("solve-pde", {"f": "const:1e308"}),
        ("solve-pde", {"c": "const:1000"}),
        ("solve-bspde", {"f": "const:1e308", "paths": 50}),
    ],
)
def test_non_finite_solution_exits_1(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path), "--output", str(out)]) == 1
    assert not caught  # the error line is the only report of the overflow
    err = capsys.readouterr().err
    assert "error: " in err and "not finite" in err and "Traceback" not in err
    # the subcommand names the run; an inner solver's name would misdirect
    solvers = ("fourier", "kernel_deterministic", "pde_variable", "linear_gaussian", "regression")
    assert not any(name in err for name in solvers)
    assert not out.exists()


def test_csv_preset_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "pde.json"
    off_grid = tmp_path / "g.csv"  # a 4-point field on a 64-point grid
    off_grid.write_text("x,value\n0,1\n1,2\n2,3\n3,4\n")
    argv = ["solve-pde", "--config", str(cfg), "--output", str(tmp_path / "s.csv")]
    for g in (str(tmp_path / "nope.csv"), str(off_grid)):
        cfg.write_text(json.dumps({"grid": {"n": 64}, "steps": 16, "g": "csv:" + g}))
        assert _config_error(capsys, argv) == "g"
    assert not (tmp_path / "s.csv").exists()


def test_fraclap_rejects_uneven_csv(tmp_path, capsys):
    src = tmp_path / "f.csv"
    src.write_text("x,value\n0,1\n1,2\n3,3\n4,4\n")
    out = tmp_path / "out.csv"
    argv = ["fraclap", "--input", str(src), "--output", str(out)]
    assert _config_error(capsys, argv) == "input"
    assert _config_error(capsys, argv[:2] + [str(tmp_path / "missing.csv")] + argv[3:]) == "input"
    assert not out.exists()


def _scalar(lo, hi):
    """Floats on [lo, hi] with lo < 0, and 0 itself."""
    return st.one_of(st.just(0.0), st.floats(lo, hi, allow_nan=False))


_SMALL_GRID = st.fixed_dictionaries(
    {"n": st.sampled_from([1, 2, 8, 32, 64]), "x_min": _scalar(-20, 5), "x_max": _scalar(-5, 20)}
)
_COUNT = st.integers(-1, 8)
_SEED = st.integers(-3, 3)
# valid sizes and lengths, so that the runs below mostly reach their solvers
# (the parametrized exit-2 test covers each invalid count and length)
_VALID_GRID = st.fixed_dictionaries(
    {"n": st.sampled_from([8, 32, 64]), "x_min": st.floats(-20, -1), "x_max": st.floats(1, 20)}
)
_ALPHA = st.floats(1.01, 2.0)
# (subcommand, config) for small runs: grid n <= 64, steps <= 8, paths <= 4, samples <= 33;
# fraclap reads a 32-point field that the test writes
_SMALL_RUNS = st.one_of(
    st.tuples(
        st.just("kernel"),
        st.fixed_dictionaries(
            {
                "alpha": _scalar(-1, 3),
                "A": _scalar(-1, 3),
                "x_range": _scalar(-5, 30),
                "samples": st.integers(-1, 33),
            }
        ),
    ),
    st.tuples(
        st.just("levy"),
        st.fixed_dictionaries(
            {
                "alpha": _scalar(-1, 3),
                "paths": st.integers(-1, 4),
                "steps": _COUNT,
                "seed": st.integers(-3, 3),
                "horizon": _scalar(-1, 3),
            }
        ),
    ),
    st.tuples(
        st.just("solve-pde"),
        st.fixed_dictionaries(
            {"grid": _SMALL_GRID, "alpha": _scalar(-1, 3), "T": _scalar(-1, 2), "steps": _COUNT}
        ),
    ),
    st.tuples(
        st.just("zakai"),
        st.fixed_dictionaries(
            {
                "grid": _SMALL_GRID,
                "alpha": _scalar(-1, 3),
                "T": _scalar(-1, 1),
                "p0_width": _scalar(-1, 3),
                "steps": _COUNT,
                "seed": _SEED,
            }
        ),
    ),
    st.tuples(
        st.just("fraclap"),
        st.fixed_dictionaries(
            {
                "alpha": _ALPHA,
                "method": st.sampled_from(["spectral", "integral"]),
                "quadrature_points": st.integers(8, 16),
                "inner_cutoff": _scalar(-1, 3),
            }
        ),
    ),
    st.tuples(
        st.just("solve-bspde"),
        st.fixed_dictionaries(
            {
                "grid": _VALID_GRID,
                "alpha": _ALPHA,
                "T": st.floats(0.05, 2.0),
                "g_c1": _scalar(-2, 2),
                "paths": st.integers(1, 4),
                "steps": st.integers(1, 8),
                "seed": _SEED,
            }
        ),
    ),
    st.tuples(
        st.just("control"),
        st.fixed_dictionaries(
            {
                "grid": _VALID_GRID,
                "alpha": _ALPHA,
                "T": st.floats(0.05, 1.0),
                "controls": st.lists(_scalar(-1, 1), min_size=1, max_size=3),
                "intervals": st.integers(1, 2),
                "paths": st.integers(2, 4),
                "steps": st.sampled_from([4, 8]),
                "seed": _SEED,
            }
        ),
    ),
    st.tuples(
        st.just("verify-all"),
        st.fixed_dictionaries(
            {
                "tier": st.sampled_from(["quick", "full", "custom"]),
                "checks": st.just(["chapman-kolmogorov"]),
                "seed": _SEED,
            }
        ),
    ),
)


@settings(max_examples=80, deadline=None)
@given(run=_SMALL_RUNS)
def test_small_configs_exit_cleanly(run):
    """Every generated config exits 0, 1 or 2 without a traceback."""
    command, cfg = run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        tmp = Path(tmp)
        if command == "fraclap":
            field = GridFunction.from_callable(Grid1D(-4.0, 4.0, 32), np.sin)
            write_field_csv(field, str(tmp / "field.csv"))
            cfg = {**cfg, "input": str(tmp / "field.csv")}
        path = tmp / "cfg.json"
        path.write_text(json.dumps(cfg))
        if command == "verify-all":
            outputs = ["--report", str(tmp / "report.json"), "--timing", str(tmp / "timing.json")]
        else:
            outputs = ["--output", str(tmp / "out")]
        code = main([command, "--config", str(path)] + outputs)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_control_adjoint_symbol_over_one_exits_1(tmp_path, capsys):
    # k = 6 passes the filter's CFL check (0.5) but not the explicit adjoint's
    # forward-Euler symbol; the run used to fail the optimality check instead
    # (margin -47.2 against a tolerance of 2.97)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"controls": [-6.0, 6.0], "paths": 64, "intervals": 1, "steps": 24}))
    out = tmp_path / "control.json"
    assert main(["control", "--config", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: explicit adjoint symbol |1 - dt a |xi|^alpha + i dt k xi| = 1.5607 > 1; "
        "raise n_steps to at least 43\n"
    )
    assert not out.exists()
