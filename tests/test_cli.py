import json

import numpy as np
import pytest

from sbcubature.cli import main

SQUARE = {
    "curves": [
        {"type": "segment", "from": [0, 0], "to": [1, 0]},
        {"type": "segment", "from": [1, 0], "to": [1, 1]},
        {"type": "segment", "from": [1, 1], "to": [0, 1]},
        {"type": "segment", "from": [0, 1], "to": [0, 0]},
    ]
}


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(SQUARE))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_integrate_constant(square_file, capsys):
    code, out = run(capsys, ["integrate", square_file, "expr:1", "1", "1"])
    assert code == 0
    assert out.strip() == "1.0000000000000000"


def test_nonfinite_integrand_exit_3(square_file, capsys):
    assert main(["integrate", square_file, "expr:1/0", "1", "1"]) == 3
    assert "evaluation error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "builtin:egg", "expr:ln(x)", "4", "4"],
    ["tmvi", "builtin:egg", "expr:ln(x)", "--grid", "3"],
], ids=["integrate", "tmvi"])
def test_nonfinite_field_exit_3_naming_the_point(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("evaluation error: integrand is not finite at (")
    x, y = (float(v) for v in err[err.index("(") + 1:-1].split(", "))
    assert x < 0.0 and np.isfinite(y)


def test_rule_csv(square_file, capsys):
    code, out = run(capsys, ["rule", square_file, "1", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,w"
    assert len(lines) == 5
    w = [float(s.split(",")[2]) for s in lines[1:]]
    np.testing.assert_allclose(w, 0.25)


def test_rule_vertex_center_drops_edges(square_file, capsys):
    code, out = run(capsys, ["rule", square_file, "2", "2", "--center", "vertex:0"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 2 * (2 * 2)  # two surviving edges


def test_rule_reproduces_integrate(square_file, capsys):
    _, out = run(capsys, ["rule", square_file, "3", "2"])
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    )
    dot = np.dot(rows[:, 0] ** 2 * rows[:, 1], rows[:, 2])
    _, out = run(capsys, ["integrate", square_file, "expr:x^2*y", "3", "2"])
    assert dot == pytest.approx(float(out), abs=1e-15)
    assert float(out) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_output_is_deterministic(square_file, capsys):
    _, a = run(capsys, ["rule", square_file, "7", "5", "--center", "custom:0.3,0.4"])
    _, b = run(capsys, ["rule", square_file, "7", "5", "--center", "custom:0.3,0.4"])
    assert a == b


def test_convergence_sweep(capsys):
    code, out = run(
        capsys,
        ["convergence", "builtin:convex_quad", "builtin:fC2", "1", "6", "--sweep", "xi"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,abs_err,rel_err"
    errs = {int(r.split(",")[0]): float(r.split(",")[2]) for r in lines[1:]}
    assert set(errs) == set(range(1, 7))
    assert errs[1] > 1e-6
    assert errs[4] <= 1e-13 and errs[6] <= 1e-13


def test_singular_flags(capsys):
    args = [
        "integrate", "builtin:T3", "builtin:fS1", "2", "60",
        "--beta", "0.5", "--xc", "0", "0",
        "--radial", "jacobi", "--t-transform", "r1",
    ]
    code, out = run(capsys, args)
    assert code == 0
    ref_args = [
        "integrate", "builtin:T3", "builtin:fS1", "64", "64",
        "--beta", "0.5", "--xc", "0", "0", "--radial", "jacobi",
    ]
    _, ref = run(capsys, ref_args)
    assert float(out) == pytest.approx(float(ref), rel=1e-12)


def test_hni_flag(capsys):
    code, out = run(
        capsys, ["integrate", "builtin:convex_quad", "expr:x^2*y", "1", "4", "--hni", "3"]
    )
    assert code == 0
    _, ref = run(capsys, ["integrate", "builtin:convex_quad", "expr:x^2*y", "3", "2"])
    assert float(out) == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["distfield", "builtin:nonconvex_quad", "--grid", "3"],
    ["tmvi", "builtin:nonconvex_quad", "expr:x", "--grid", "3"],
], ids=["distfield", "tmvi"])
def test_grid_commands_warn_on_a_nonconvex_loop(capsys, argv):
    with pytest.warns(UserWarning, match="boundary loop does not look convex"):
        code, out = run(capsys, argv)
    assert code == 0 and len(out.splitlines()) == 10


def test_distfield_center_of_circle(capsys):
    code, out = run(capsys, ["distfield", "builtin:circle", "--grid", "3", "--p", "2"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 9
    center = lines[4].split(",")
    assert abs(float(center[0])) < 1e-12 and abs(float(center[1])) < 1e-12
    assert float(center[2]) == pytest.approx((2 * np.pi) ** -0.5, rel=1e-6)


def test_distfield_marks_exterior_cells_empty(capsys):
    # on a 4x4 grid over the circle's bounding box the corner cells at
    # (+-0.75, +-0.75) lie outside the disk
    _, out = run(capsys, ["distfield", "builtin:circle", "--grid", "4"])
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 16
    corners = [lines[i].split(",")[2] for i in (0, 3, 12, 15)]
    assert all(c == "" for c in corners)
    assert sum(1 for s in lines if s.split(",")[2] != "") == 12


@pytest.mark.parametrize("p", ["10", "100"])
def test_distfield_high_p_masks_with_its_own_kernel(capsys, p):
    # the mask must use the evaluator's kernel power 2+p: with power 3 it
    # admitted exterior cells that the Lp kernel then rejected (exit 2)
    code, out = run(
        capsys, ["distfield", "builtin:egg", "--p", p, "--grid", "64", "--n-t", "732"]
    )
    assert code == 0
    rows = np.array(
        [[float(v) if v else np.nan for v in line.split(",")]
         for line in out.strip().splitlines()[1:]]
    )
    assert len(rows) == 64 * 64
    x, y, v = rows.T
    # egg boundary: x = cos(th), y = 4 sin(th) / (5 + cos(th))
    th = np.arccos(np.clip(x, -1.0, 1.0))
    inside = (np.abs(x) < 1.0) & (np.abs(y) < 4.0 * np.sin(th) / (5.0 + x))
    filled = ~np.isnan(v)
    assert not np.any(filled & ~inside)
    assert filled.sum() >= 0.99 * inside.sum()
    assert np.all(v[filled] >= 0.0)


@pytest.mark.filterwarnings("error")
def test_distfield_high_p_fills_interior_without_overflow(capsys):
    code, out = run(
        capsys, ["distfield", "builtin:egg", "--p", "100", "--grid", "64", "--n-t", "732"]
    )
    assert code == 0
    vals = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    filled = np.array([float(v) for v in vals if v])
    assert len(filled) > 0.5 * len(vals)
    assert np.all(filled > 0.0)


def test_tmvi_linear_field(capsys):
    code, out = run(
        capsys, ["tmvi", "builtin:circle", "expr:1+x-2*y", "--grid", "3"]
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        x, y, v = line.split(",")
        if v:
            assert float(v) == pytest.approx(
                1 + float(x) - 2 * float(y), abs=1e-9
            )


@pytest.mark.parametrize(
    "argv",
    [["tmvi", "builtin:egg", "expr:1+x-2*y"], ["distfield", "builtin:egg", "--p", "10"]],
    ids=["tmvi", "distfield"],
)
def test_grid_commands_run_one_kernel_pass(capsys, monkeypatch, argv):
    # the inside mask comes from the same kernel pass as the values
    from sbcubature import tmvi

    calls = []
    kernel = tmvi._scaled_kernel

    def spy(*args, **kwargs):
        calls.append(len(args[2]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(tmvi, "_scaled_kernel", spy)
    code, out = run(capsys, argv + ["--grid", "8"])
    assert code == 0
    assert calls == [64]
    vals = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert 0 < sum(1 for v in vals if v) < 64


def _domain_file(tmp_path, **changes):
    p = tmp_path / "domain.json"
    p.write_text(json.dumps(dict(SQUARE, **changes)))
    return str(p)


def test_integrate_takes_center_without_hni_or_beta(capsys):
    code, out = run(capsys, ["integrate", "builtin:T3", "expr:1", "2", "4", "--center", "origin"])
    _, ref = run(capsys, ["integrate", "builtin:T3", "expr:1", "2", "4"])
    assert code == 0 and float(out) == pytest.approx(float(ref), rel=1e-14)


@pytest.mark.parametrize("center, x0", [
    ("origin", {"strategy": "origin"}),
    ("vertex_average", {"strategy": "vertex_average"}),
    ("vertex:2", {"strategy": "vertex", "index": 2}),
    ("custom:0.3,-0.25", {"strategy": "custom", "point": [0.3, -0.25]}),
    ("custom:0.5,1", {"strategy": "custom", "point": [0.5, 1]}),
])
def test_center_flag_and_domain_x0_give_the_same_rule(tmp_path, capsys, square_file, center, x0):
    _, by_flag = run(capsys, ["rule", square_file, "3", "4", "--center", center])
    _, by_file = run(capsys, ["rule", _domain_file(tmp_path, x0=x0), "3", "4"])
    assert by_flag == by_file
    assert len(by_flag.splitlines()) > 1


def test_hni_takes_n_xi_1(capsys):
    argv = ["integrate", "builtin:convex_quad", "expr:x^2*y", "1", "4", "--hni", "3"]
    assert run(capsys, argv) == (0, "48.700000000000024\n")


@pytest.mark.parametrize("sweep", [["--sweep", "t"], []], ids=["t", "both-by-default"])
def test_convergence_sweep_t_and_both(capsys, sweep):
    code, out = run(capsys, ["convergence", "builtin:bezier", "builtin:fC2", "2", "12"] + sweep)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,abs_err,rel_err" and len(lines) == 1 + 11
    errs = {int(r.split(",")[0]): float(r.split(",")[2]) for r in lines[1:]}
    assert sorted(errs) == list(range(2, 13))
    assert errs[2] > 1e-3
    assert max(errs[n] for n in (10, 11, 12)) <= 1e-13


def test_an_integral_float_vertex_index_is_that_vertex(tmp_path, capsys, square_file):
    _, ref = run(capsys, ["rule", square_file, "3", "4", "--center", "vertex:2"])
    code, by_flag = run(capsys, ["rule", square_file, "3", "4", "--center", "vertex:2.0"])
    _, by_file = run(capsys, ["rule", _domain_file(tmp_path, x0={"strategy": "vertex", "index": 2.0}),
                              "3", "4"])
    assert code == 0 and by_flag == by_file == ref
