import dataclasses
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifd
from ifd import cli
from ifd.cli import load_curve, main, render_svg
from ifd.graphs import MODES

from helpers import (
    ANTIPARALLEL,
    ANTIPARALLEL_TURNS,
    DETOUR,
    DUST_PAIR,
    DUST_PATHS,
    PARALLEL,
    POLISHED_DETOUR,
    curve_pair,
)


@pytest.fixture
def parallel_files(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    b = tmp_path / "b.csv"
    b.write_text("0,1\n1,1\n")
    return str(a), str(b)


def test_happy_path(parallel_files, tmp_path, capsys):
    a, b = parallel_files
    out = tmp_path / "report.json"
    code = main([
        "compute", "--a", a, "--b", b, "--epsilon", "0.25",
        "--mode", "both", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert list(report) == [
        "integral", "average", "winning_mode", "path", "graph_stats",
        "config", "runtime_ms",
    ]
    assert report["integral"] == pytest.approx(2.0, abs=1e-6)
    assert report["average"] == pytest.approx(report["integral"] / 2.0, rel=1e-12)
    assert report["winning_mode"] == "g2"
    assert report["config"]["epsilon"] == 0.25
    assert report["graph_stats"]["g1"]["vertices"] > 0
    # without --out the same report goes to stdout
    assert main(["compute", "--a", a, "--b", b, "--epsilon", "0.25", "--mode", "both"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == list(report)


def test_unwritable_outputs_exit_2(parallel_files, tmp_path, capsys):
    a, b = parallel_files
    missing = tmp_path / "no" / "such" / "dir"
    argv = ["compute", "--a", a, "--b", b, "--epsilon", "0.25"]
    assert main(argv + ["--out", str(missing / "r.json")]) == 2
    assert "cannot write report" in capsys.readouterr().err
    assert main(argv + ["--out", str(tmp_path / "r.json"), "--svg", str(missing / "s.svg")]) == 2
    assert "cannot write svg" in capsys.readouterr().err


def test_negative_delta_is_an_input_error(parallel_files, tmp_path, capsys):
    # as ellipse_slice rejects a negative level, so does the SVG's --delta
    a, b = parallel_files
    svg = tmp_path / "s.svg"
    code = main(["compute", "--a", a, "--b", b, "--epsilon", "0.25",
                 "--svg", str(svg), "--delta", "-1"])
    assert code == 2
    assert "input error" in capsys.readouterr().err and not svg.exists()


def test_report_round_trip(parallel_files, tmp_path):
    a, b = parallel_files
    out = tmp_path / "report.json"
    assert main(["compute", "--a", a, "--b", b, "--epsilon", "0.25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    t1, t2 = curve_pair(PARALLEL)
    cost = ifd.matching_cost(t1, t2, report["path"])
    assert cost == pytest.approx(report["integral"], rel=1e-9)
    # the config block is the dataclass itself, field by field in declaration order
    config = dataclasses.asdict(ifd.GraphConfig.desk(0.25))
    assert list(report["config"].items()) == list(config.items())
    assert list(config) == ["epsilon", "c_g1", "c_radius", "c_mesh", "max_vertices", "mode"]


def test_modes_come_from_one_table():
    # the parser's choices and the infeasibility hints are keyed by MODES
    compute = cli._make_parser()._subparsers._group_actions[0].choices["compute"]
    mode = next(a for a in compute._actions if a.dest == "mode")
    assert mode.choices == list(MODES) and mode.default in MODES
    assert set(cli._KNOBS) == set(MODES)


def test_json_and_csv_ingest_identically(tmp_path):
    j = tmp_path / "c.json"
    j.write_text(json.dumps({"vertices": [[0, 0], [1.5, 0.25], [2, 1]]}))
    c = tmp_path / "c.csv"
    # blank and '#' lines are skipped
    c.write_text("# x,y\n0,0\n\n1.5,0.25\n  \n2,1\n")
    cj = load_curve(str(j))
    cc = load_curve(str(c))
    assert np.array_equal(cj.vertices, cc.vertices)
    assert np.array_equal(cj.cum_length, cc.cum_length)


def test_malformed_curve_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\nnot-a-number,3\n")
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    assert main(["compute", "--a", str(bad), "--b", str(ok), "--epsilon", "0.25"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["compute", "--a", missing, "--b", str(ok), "--epsilon", "0.25"]) == 2
    triple = tmp_path / "triple.csv"
    triple.write_text("0,0\n0,1,2\n")
    assert main(["compute", "--a", str(triple), "--b", str(ok), "--epsilon", "0.25"]) == 2
    assert "expected 'x,y'" in capsys.readouterr().err
    single = tmp_path / "single.csv"
    single.write_text("0,0\n")
    assert main(["compute", "--a", str(single), "--b", str(ok), "--epsilon", "0.25"]) == 2


@pytest.mark.parametrize("flag", ["--epsilon", "--c-g1", "--c-radius", "--c-mesh"])
def test_nan_configuration_is_an_input_error(parallel_files, flag, capsys):
    a, b = parallel_files
    argv = ["compute", "--a", a, "--b", b, "--epsilon", "0.25"]
    for value in ("nan", "inf"):
        assert main(argv + [flag, value]) == 2, value
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf"])
def test_non_finite_curve_is_an_input_error(parallel_files, tmp_path, coordinate, capsys):
    _, b = parallel_files
    a = tmp_path / "a.csv"
    a.write_text(f"0,0\n1,{coordinate}\n2,0\n")
    assert main(["compute", "--a", str(a), "--b", b, "--epsilon", "0.25"]) == 2
    assert "non-finite coordinate" in capsys.readouterr().err


def test_path_outside_the_rectangle_is_an_input_error(parallel_files, tmp_path, capsys):
    # the unit curves' parameter rectangle is [0, 1]^2
    a, b = parallel_files
    far = tmp_path / "m.json"
    far.write_text(json.dumps({"path": [[0, 0], [5, 5], [9, 9]]}))
    out = tmp_path / "report.json"
    code = main(["compute", "--a", a, "--b", b, "--epsilon", "0.25",
                 "--optimize-matching", str(far), "--out", str(out)])
    assert code == 2
    assert "input error" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("coordinate", ["NaN", "Infinity"])
def test_non_finite_path_is_an_input_error(parallel_files, tmp_path, capsys, coordinate):
    # json reads NaN and Infinity; the path is rejected before any graph is built
    a, b = parallel_files
    bad = tmp_path / "m.json"
    bad.write_text('{"path": [[0, 0], [%s, 0.5], [1, 1]]}' % coordinate)
    out = tmp_path / "report.json"
    code = main(["compute", "--a", a, "--b", b, "--epsilon", "0.25",
                 "--optimize-matching", str(bad), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "point 1 has a non-finite coordinate" in err
    assert not out.exists()


def test_worstcase_constants_exceed_budget(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0.2], [2, -0.1]]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vertices": [[0, 1], [1, 1.3], [2, 0.8]]}))
    code = main([
        "compute", "--a", str(a), "--b", str(b), "--epsilon", "0.25",
        "--paper-constants",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "projected" in err and "budget" in err


def test_g2_only_disconnected_exit(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1]]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vertices": [[9, 5], [8, 5], [8, 6]]}))
    code = main([
        "compute", "--a", str(a), "--b", str(b), "--epsilon", "0.3", "--mode", "g2",
    ])
    assert code == 3


def test_optimize_matching_flag(parallel_files, tmp_path):
    a, b = parallel_files
    staircase = tmp_path / "m.json"
    staircase.write_text(json.dumps({"path": [[0, 0], [1, 0], [1, 1]]}))
    out = tmp_path / "report.json"
    code = main([
        "compute", "--a", a, "--b", b, "--epsilon", "0.25",
        "--optimize-matching", str(staircase), "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["optimized"]["cost"] <= report["optimized"]["input_cost"]
    assert report["optimized"]["cost"] == pytest.approx(2.0, abs=1e-9)
    # a pair with two antiparallel cells, and a staircase through one of them
    t1, t2 = curve_pair(ANTIPARALLEL_TURNS)
    for name, pts in (("t1.json", t1.vertices), ("t2.json", t2.vertices)):
        (tmp_path / name).write_text(json.dumps({"vertices": pts.tolist()}))
    staircase.write_text(json.dumps({"path": DETOUR}))
    code = main(["compute", "--a", str(tmp_path / "t1.json"), "--b", str(tmp_path / "t2.json"),
                 "--epsilon", "0.25", "--mode", "oracle", "--max-vertices", "20000",
                 "--optimize-matching", str(staircase), "--out", str(out)])
    assert code == 0
    optimized = json.loads(out.read_text())["optimized"]
    assert optimized["cost"] <= optimized["input_cost"]
    assert optimized["cost"] == ifd.matching_cost(t1, t2, optimized["path"])
    assert optimized["cost"] == pytest.approx(POLISHED_DETOUR, rel=1e-12)


def test_optimize_matching_polishes_a_dust_back_step(tmp_path):
    # a path that steps back by float dust passes the input checks, so the
    # polish runs on it and the report is written
    a, b, m = (tmp_path / f"{name}.json" for name in "abm")
    a.write_text(json.dumps({"vertices": DUST_PAIR[0]}))
    b.write_text(json.dumps({"vertices": DUST_PAIR[1]}))
    m.write_text(json.dumps({"path": DUST_PATHS[0]}))
    out = tmp_path / "report.json"
    code = main(["compute", "--a", str(a), "--b", str(b), "--epsilon", "0.25",
                 "--optimize-matching", str(m), "--out", str(out)])
    assert code == 0
    optimized = json.loads(out.read_text())["optimized"]
    assert optimized["cost"] <= optimized["input_cost"] * (1.0 + 1e-9)


@pytest.mark.parametrize("paper", [False, True])
def test_config_presets(tmp_path, paper):
    # far-apart curves keep g2 tiny even under the worst-case constants
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vertices": [[0, 1000], [1, 1000]]}))
    out = tmp_path / "report.json"
    argv = ["compute", "--a", str(a), "--b", str(b), "--epsilon", "0.25", "--out", str(out)]
    assert main(argv + (["--paper-constants"] if paper else [])) == 0
    preset = ifd.GraphConfig(0.25) if paper else ifd.GraphConfig.desk(0.25)
    assert json.loads(out.read_text())["config"] == {
        "epsilon": 0.25, "c_g1": preset.c_g1, "c_radius": preset.c_radius,
        "c_mesh": preset.c_mesh, "max_vertices": preset.max_vertices, "mode": "both",
    }


def test_oracle_mode_cli(parallel_files, tmp_path, capsys):
    a, b = parallel_files
    out = tmp_path / "report.json"
    code = main([
        "compute", "--a", a, "--b", b, "--epsilon", "0.25",
        "--mode", "oracle", "--max-vertices", "20000", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["winning_mode"] == "oracle"
    assert report["integral"] == pytest.approx(2.0, abs=1e-9)
    capsys.readouterr()
    code = main([
        "compute", "--a", a, "--b", b, "--epsilon", "0.25",
        "--mode", "oracle", "--max-vertices", "1", "--out", str(out),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "oracle projected" in err and "try raising --max-vertices" in err
    # the oracle reads only the budget, and the hint never offers the mode that failed
    hint = err.splitlines()[-1]
    assert hint == "ifd: try raising --max-vertices"
    for mode, knobs, absent in (("g1", ["--epsilon", "--c-g1"], ["--c-mesh", "--c-radius"]),
                                ("g2", ["--epsilon", "--c-mesh", "--c-radius"], ["--c-g1"]),
                                ("both", ["--epsilon", "--c-g1", "--c-mesh", "--c-radius"], [])):
        code = main([
            "compute", "--a", a, "--b", b, "--epsilon", "0.25",
            "--mode", mode, "--max-vertices", "1", "--out", str(out),
        ])
        assert code == 3
        hint = capsys.readouterr().err.splitlines()[-1]
        assert hint.startswith("ifd: try raising --max-vertices") and "--mode oracle" in hint
        assert all(k in hint for k in knobs) and not any(k in hint for k in absent), hint


def test_svg_deterministic(parallel_files, tmp_path):
    a, b = parallel_files
    svgs = []
    for name in ("one.svg", "two.svg"):
        path = tmp_path / name
        code = main([
            "compute", "--a", a, "--b", b, "--epsilon", "0.25",
            "--out", str(tmp_path / "r.json"), "--svg", str(path),
            "--delta", "1.05", "1.2",
        ])
        assert code == 0
        svgs.append(path.read_bytes())
    assert svgs[0] == svgs[1]
    text = svgs[0].decode()
    assert text.count("<polyline") >= 2  # slices plus the path


def test_render_svg_layers():
    t1, t2 = curve_pair(PARALLEL)
    bare = render_svg(t1, t2)
    assert bare.count("<line") >= 4  # grid plus axis
    assert "<polyline" not in bare
    with_path = render_svg(t1, t2, {"path": [(0, 0), (1, 1)]})
    assert with_path.count("<polyline") == 1
    assert render_svg(t1, t2) == bare


def _entry(argv, code=None):
    """Run ``python -m ifd.cli`` (or ``python -c code``) on ``argv`` with the checkout's sources."""
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    head = ["-m", "ifd.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)


def _untimed(report):
    return {k: v for k, v in report.items() if k != "runtime_ms"}


def test_process_entry_matches_main(parallel_files, tmp_path):
    a, b = parallel_files
    argv = ["compute", "--a", a, "--b", b, "--epsilon", "0.25"]
    ref = tmp_path / "ref.json"
    assert main(argv + ["--out", str(ref)]) == 0
    expected = _untimed(json.loads(ref.read_text()))
    out = tmp_path / "report.json"
    done = _entry(argv + ["--out", str(out)])
    assert done.returncode == 0, done.stderr
    assert _untimed(json.loads(out.read_text())) == expected
    # without --out the whole report goes to stdout
    done = _entry(argv)
    assert done.returncode == 0, done.stderr
    assert _untimed(json.loads(done.stdout)) == expected
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\nnot a point\n")
    done = _entry(["compute", "--a", str(bad), "--b", b, "--epsilon", "0.25"])
    assert done.returncode == 2 and "input error" in done.stderr
    done = _entry(argv + ["--max-vertices", "1"])
    assert done.returncode == 3 and "infeasible" in done.stderr


def test_only_the_process_entry_freezes_the_heap(parallel_files, tmp_path):
    a, b = parallel_files
    argv = ["compute", "--a", a, "--b", b, "--epsilon", "0.25", "--out", str(tmp_path / "r.json")]
    code = ("import gc, sys; from ifd import cli; "
            "assert cli.main(sys.argv[1:]) == 0; print(gc.get_freeze_count()); "
            "assert cli.run(sys.argv[1:]) == 0; print(gc.get_freeze_count())")
    done = _entry(argv, code)
    assert done.returncode == 0, done.stderr
    after_main, after_run = map(int, done.stdout.split())
    assert after_main == 0 and after_run > 0


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the library and the CLI never import it
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    code = ("import ifd, ifd.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_each_module_imports_first():
    # no import cycle: every module loads as the first one of the package
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    names = sorted(m.name for m in pkgutil.iter_modules(ifd.__path__))
    assert "cell_paths" in names and "shortest_path" in names
    for name in names:
        out = subprocess.run([sys.executable, "-c", f"import ifd.{name}"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, (name, out.stderr)


OUTLINE_CELLS = {
    "generic": ([(0.1, 0.2), (1.3, 0.6)], [(0.2, 1.0), (0.9, 0.7)]),
    "perpendicular": ([(0.0, 0.0), (1.0, 0.0)], [(0.5, 0.3), (0.5, 1.3)]),
    "parallel": PARALLEL,
    "antiparallel": ANTIPARALLEL,
}


@pytest.mark.parametrize("kind", list(OUTLINE_CELLS))
def test_slice_outline_lies_on_the_level(kind):
    # below the cell's weight range and above it nothing is drawn; inside it
    # every point is in the cell and on the level, antiparallel cells too
    cell = ifd.build_cells(*curve_pair(OUTLINE_CELLS[kind])).cell(0, 0)
    assert cell.kind == ("generic" if kind in ("generic", "perpendicular") else kind)
    low, high = cell.min_weight(), cell.max_corner_weight()
    assert 0.0 < low < high
    for delta, drawn in ((0.5 * low, False), (0.5 * (low + high), True), (1.5 * high, False)):
        runs = list(cli._slice_outline(cell, delta))
        assert bool(runs) == drawn, delta
        for run in runs:
            pts = np.asarray(run)
            assert all(cell.contains(q) for q in pts)
            np.testing.assert_allclose(cell.weight_at(pts[:, 0], pts[:, 1]), delta,
                                       rtol=0.0, atol=1e-12 * delta)


def test_render_demo_draws_slices(tmp_path):
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_demo.py"
    out = subprocess.run([sys.executable, str(script), "--outdir", str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for name in ("perpendicular", "bent_pair"):
        assert 'stroke="#33aa55"' in (tmp_path / f"{name}.svg").read_text(), name


def test_lattice_speed_runs_once():
    # --help never reaches the library calls; one timed pass does
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    script = Path(__file__).resolve().parents[1] / "scripts" / "lattice_speed.py"
    out = subprocess.run([sys.executable, str(script), "--repeat", "1"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split()[0] for line in out.stdout.splitlines()[1:]]
    assert rows == ["g1", "g1", "oracle"]


def test_polish_speed_runs_once():
    # one timed pass reaches locally_optimize, its sweep count, matching_cost
    # on the staircases, matching_cost on one long lattice path per size and
    # locally_optimize on the staircases with a step back of float dust; the
    # jump column, the polish's move under 1e-12 scalings, stays rounding
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    script = Path(__file__).resolve().parents[1] / "scripts" / "polish_speed.py"
    out = subprocess.run([sys.executable, str(script), "--repeat", "1", "--pairs", "2"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    header, *lines = out.stdout.splitlines()
    assert header.split() == ["segments", "pairs", "optimize", "us", "sweeps", "us/sweep",
                              "cost", "us", "lattice", "us", "dust", "us", "jump"]
    rows = [line.split() for line in lines]
    assert [row[:2] for row in rows] == [["2", "2"], ["4", "2"], ["6", "2"]]
    assert all(len(row) == 9 for row in rows)
    assert all(math.isfinite(float(v)) and float(v) > 0.0 for row in rows for v in row[2:8])
    assert all(0.0 <= float(row[8]) <= 1e-9 for row in rows)


def test_g2_memory_runs_once():
    # one timed and one traced build and search of the C6 g2 at epsilon 0.25
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    script = Path(__file__).resolve().parents[1] / "scripts" / "g2_memory.py"
    out = subprocess.run([sys.executable, str(script), "--repeat", "1", "--epsilons", "0.25"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    assert [row[:3] for row in rows] == [["0.25", "201614", "402326"]]
    assert all(math.isfinite(float(v)) and float(v) > 0.0 for v in rows[0][3:7])


def test_band_experiment_runs_once():
    # one pair at one epsilon reaches graph_stats, the g2 budget and the dense oracle
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_band_experiment.py"
    out = subprocess.run([sys.executable, str(script), "--pairs", "1", "--epsilons", "0.25"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    assert len(rows) == 1 and rows[0][:2] == ["0.25", "0"]
    assert all(math.isfinite(float(v)) and float(v) > 0.0 for v in rows[0][2:5])


def test_scripts_show_help():
    # the scripts import library internals; each must still load and parse its flags
    src = os.path.dirname(os.path.dirname(ifd.__file__))
    scripts = sorted(Path(__file__).resolve().parents[1].joinpath("scripts").glob("*.py"))
    assert scripts
    env = dict(os.environ, PYTHONPATH=src)
    for script in scripts:
        out = subprocess.run([sys.executable, str(script), "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, (script.name, out.stderr)
