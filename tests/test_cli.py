import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import trafficflow
import trafficflow.cli
from trafficflow import (
    NonConvergenceError,
    gen_example2,
    make_network,
    parse_network,
    save_network,
)
from trafficflow.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_solve_two_class_network(tmp_path, capsys):
    path = tmp_path / "net.json"
    code, out, _ = _run(capsys, "gen", "example3", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = _run(capsys, "solve", str(path), "--kind", "gm")
    assert code == 0
    assert "unstable: {1, 2}" in out
    assert "rates: [2, 1, 0, 0]" in out


def test_solve_overflow_requires_best_effort_on_degenerate_triangle(tmp_path, capsys):
    path = tmp_path / "tri.json"
    _run(capsys, "gen", "example4", "--alpha1", "0.5", "--out", str(path))
    code, _, err = _run(capsys, "solve", str(path), "--kind", "overflow")
    assert code == 3
    assert "not verified" in err
    code, out, _ = _run(
        capsys, "solve", str(path), "--kind", "overflow", "--best-effort"
    )
    assert code == 0
    assert "0.66666666666666" in out


def _save(tmp_path, name, *args):
    path = tmp_path / name
    save_network(make_network(*args), path)
    return path


def _unfed_two_cycle(tmp_path):
    return _save(tmp_path, "isolated.json", [0, 0], [1, 1], [[0.0, 1.0], [1.0, 0.0]])


def _fed_overflow_two_cycle(tmp_path):
    return _save(tmp_path, "fed.json", [3, 0], [1, 1], np.zeros((2, 2)), [[0, 1], [1, 0]])


def test_solve_reports_isolated_class(tmp_path, capsys):
    path = _unfed_two_cycle(tmp_path)
    for kind in (["--kind", "gm"], []):  # the default kind is overflow
        code, out, err = _run(capsys, "solve", str(path), *kind)
        assert code == 2
        assert out == ""
        assert err == "error: isolated classes present: {1, 2}\n"


def test_check_isolated_class_leaves_condition_unknown(tmp_path, capsys):
    code, out, _ = _run(capsys, "check", str(_unfed_two_cycle(tmp_path)))
    assert code == 0
    assert "NI: no" in out.splitlines()
    assert (
        "overflow condition: unknown, network has an isolated class; "
        "no-overflow solution undefined"
    ) in out.splitlines()


def test_oracle_reports_no_solution(tmp_path, capsys):
    code, out, _ = _run(capsys, "oracle", str(_fed_overflow_two_cycle(tmp_path)))
    assert code == 0
    assert out == "NoSolution (4 patterns checked)\n"


def test_best_effort_solve_reports_singular_inner_system(tmp_path, capsys):
    path = _fed_overflow_two_cycle(tmp_path)
    code, out, err = _run(capsys, "solve", str(path), "--best-effort")
    assert code == 3
    assert out == ""
    assert err == (
        "error: inner system is singular-inconsistent for stable rows [] "
        "and overflow rows [0, 1]\n"
    )


def test_non_convergence_is_exit_four(tmp_path, capsys, monkeypatch):
    def fail(net, *, best_effort):
        raise NonConvergenceError("exceeded iteration cap 5 without reaching a fixed point")

    monkeypatch.setattr(trafficflow.cli, "solve_overflow", fail)
    path = _save(tmp_path, "one.json", [0.5], [1.0], [[0.0]])
    code, out, err = _run(capsys, "solve", str(path), "--best-effort")
    assert code == 4
    assert out == ""
    assert err == "error: exceeded iteration cap 5 without reaching a fixed point\n"


def test_import_loads_no_scipy():
    # scipy is only needed by the census on multi-dimensional continua and
    # is imported there; loading it at import time costs a few tenths of a
    # second and tens of megabytes on every CLI call.  The linear solves
    # use the LAPACK that numpy's wheel bundles, when it is there: the
    # pure-Python fallback is about ten times slower.
    src = str(Path(trafficflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, trafficflow, trafficflow.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(trafficflow.linalg._kernel.__name__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    scipy_modules, kernel = result.stdout.splitlines()
    assert scipy_modules == "[]"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    if list(libs.glob("libscipy_openblas64_*.so")):
        assert kernel == "_solve_lapack"


def test_unreadable_file_is_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = _run(capsys, "solve", str(path))
    assert code == 1
    assert "error" in err


def test_check_reports_condition_split(tmp_path, capsys):
    path = tmp_path / "net.json"
    _run(capsys, "gen", "example3", "--out", str(path))
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 0
    assert "FD: no" in out
    assert "NI: yes" in out
    assert "holds-by-sufficient-check" in out
    # The unfed class {3, 4} drains through node 3 into {1, 2}, the only
    # class with input, whose rows keep all traffic inside it; so {1, 2}
    # sits one level below {3, 4}.
    assert out.startswith(
        "classes:\n"
        "  C1 = {3, 4}  fillable=no ext-drained=no int-drained=yes isolated=no level=0\n"
        "  C2 = {1, 2}  fillable=yes ext-drained=no int-drained=no isolated=no level=1\n"
        "FD: no\n"
    )


def test_check_reports_witness(tmp_path, capsys):
    path = tmp_path / "tri.json"
    _run(capsys, "gen", "example4", "--alpha1", "1.0", "--out", str(path))
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 0
    assert "fails" in out
    assert "A={3}" in out
    assert "gm-unstable: {1, 2}" in out


def test_check_reports_witness_on_23_free_nodes(tmp_path, capsys):
    # Routing cycle 1 -> 2 -> ... -> 23 -> 24 -> 1 that node 24 drains at
    # half rate, so only node 24 is overloaded; its overflow row closes
    # the cycle at full rate, and only the mix of all 23 routing rows with
    # it reaches radius 1.
    n = 24
    p = np.zeros((n, n))
    q = np.zeros((n, n))
    for i in range(n - 1):
        p[i, i + 1] = 1.0
    p[n - 1, 0] = 0.5
    q[n - 1, 0] = 1.0
    mu = np.full(n, 10.0)
    mu[n - 1] = 0.5
    path = tmp_path / "cycle.json"
    save_network(make_network(np.eye(n)[0], mu, p, q), path)
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 0
    assert "gm-unstable: {24}" in out
    witness = ", ".join(str(i) for i in range(1, n))
    assert f"overflow condition: fails, witness A={{{witness}}}, radius=1\n" in out


def test_check_grid_network_holds_by_sufficient_check(tmp_path, capsys):
    path = tmp_path / "grid.json"
    _run(capsys, "gen", "example1", "--m", "2", "--delta", "1.0", "--eps", "1.0",
         "--out", str(path))
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 0
    assert "holds-by-sufficient-check" in out


def test_oracle_verdict_lines(tmp_path, capsys):
    path = tmp_path / "tri.json"
    _run(capsys, "gen", "example4", "--alpha1", "1.0", "--out", str(path))
    code, out, _ = _run(capsys, "oracle", str(path))
    assert code == 0
    assert "Continuum (8 patterns checked)" in out
    assert "pattern: stable {3}" in out

    _run(capsys, "gen", "example4", "--alpha1", "0.5", "--out", str(path))
    code, out, _ = _run(capsys, "oracle", str(path))
    assert code == 0
    assert "Unique (8 patterns checked)" in out


def test_gen_round_trips_worst_case_chain(tmp_path, capsys):
    path = tmp_path / "chain.json"
    code, _, _ = _run(capsys, "gen", "example2", "--n", "5", "--out", str(path))
    assert code == 0
    assert parse_network(path.read_bytes()) == gen_example2(5)


def test_worstcase_table(capsys):
    code, out, _ = _run(capsys, "worstcase", "--n-max", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 5
    assert "all rows match" in out


def test_heatmap_outputs_are_consistent_and_deterministic(tmp_path, capsys):
    prefix = tmp_path / "hm"
    code, out, _ = _run(
        capsys, "heatmap", "--m", "2", "--step", "0.5", "--out", str(prefix)
    )
    assert code == 0
    assert "grid: 3 x 3" in out

    with open(f"{prefix}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    from trafficflow import CellGridSpec, gen_example1, solve_overflow

    for row in rows:
        net = gen_example1(
            CellGridSpec(m=2, delta=float(row["delta"]), epsilon=float(row["epsilon"]))
        )
        solution, trace = solve_overflow(net)
        assert float(row["fraction"]) == len(solution.unstable) / net.n
        assert int(row["outer_iters"]) == trace.outer_iterations
        assert int(row["inner_iters"]) == trace.inner_iterations_total

    tree = ET.parse(f"{prefix}.svg")
    rects = [e for e in tree.getroot().iter() if e.tag.endswith("rect")]
    assert len(rects) == 9

    prefix2 = tmp_path / "hm2"
    code, _, _ = _run(
        capsys, "heatmap", "--m", "2", "--step", "0.5", "--jobs", "2",
        "--out", str(prefix2),
    )
    assert code == 0
    assert (tmp_path / "hm.csv").read_bytes() == (tmp_path / "hm2.csv").read_bytes()
    assert (tmp_path / "hm.svg").read_bytes() == (tmp_path / "hm2.svg").read_bytes()


def test_heatmap_grid_reaches_one_when_step_does_not_divide_it(tmp_path, capsys):
    prefix = tmp_path / "hm"
    code, out, _ = _run(
        capsys, "heatmap", "--m", "2", "--step", "0.3", "--out", str(prefix)
    )
    assert code == 0
    assert "grid: 5 x 5" in out
    with open(f"{prefix}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert max(float(row["delta"]) for row in rows) == 1.0
    assert max(float(row["epsilon"]) for row in rows) == 1.0


def test_heatmap_rejects_bad_grid(tmp_path, capsys):
    code, _, err = _run(
        capsys, "heatmap", "--m", "1", "--step", "0.5", "--out", str(tmp_path / "x")
    )
    assert code == 1 and "error" in err


def test_solve_prints_full_precision(tmp_path, capsys):
    net = make_network([1 / 3], [1.0], [[0.0]])
    path = tmp_path / "third.json"
    save_network(net, path)
    code, out, _ = _run(capsys, "solve", str(path), "--kind", "jackson")
    assert code == 0
    assert "0.33333333333333331" in out
