import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifd
from ifd.cli import load_curve, main, render_svg

from helpers import PARALLEL, curve_pair


@pytest.fixture
def parallel_files(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    b = tmp_path / "b.csv"
    b.write_text("0,1\n1,1\n")
    return str(a), str(b)


def test_happy_path(parallel_files, tmp_path):
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


def test_report_round_trip(parallel_files, tmp_path):
    a, b = parallel_files
    out = tmp_path / "report.json"
    assert main(["compute", "--a", a, "--b", b, "--epsilon", "0.25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    t1, t2 = curve_pair(PARALLEL)
    cost = ifd.matching_cost(t1, t2, report["path"])
    assert cost == pytest.approx(report["integral"], rel=1e-9)


def test_json_and_csv_ingest_identically(tmp_path):
    j = tmp_path / "c.json"
    j.write_text(json.dumps({"vertices": [[0, 0], [1.5, 0.25], [2, 1]]}))
    c = tmp_path / "c.csv"
    c.write_text("0,0\n1.5,0.25\n2,1\n")
    cj = load_curve(str(j))
    cc = load_curve(str(c))
    assert np.array_equal(cj.vertices, cc.vertices)
    assert np.array_equal(cj.cum_length, cc.cum_length)


def test_malformed_curve_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\nnot-a-number,3\n")
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    assert main(["compute", "--a", str(bad), "--b", str(ok), "--epsilon", "0.25"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["compute", "--a", missing, "--b", str(ok), "--epsilon", "0.25"]) == 2
    single = tmp_path / "single.csv"
    single.write_text("0,0\n")
    assert main(["compute", "--a", str(single), "--b", str(ok), "--epsilon", "0.25"]) == 2


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
    with_path = render_svg(t1, t2, {"path": [(0, 0), (1, 1)], "balls": [(0, 0, 0.5)]})
    assert with_path.count("<polyline") == 1
    assert with_path.count("stroke-dasharray") == 1
    assert render_svg(t1, t2) == bare


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
