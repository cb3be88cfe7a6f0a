import hashlib
import json
import math

import numpy as np
import pytest

from opfsets import conflicts, search
from opfsets.cli import (EXIT_CERTIFICATION, EXIT_INFEASIBLE, EXIT_OK,
                         EXIT_RESOURCE, EXIT_USAGE, main)
from opfsets.density import cap_union_oracle, select_dense_cells
from opfsets.grid import CellSet, all_cells
from opfsets.scaling import largest_feasible_epsilon
from opfsets.search import double_cap_cellset
from opfsets.sphere import Cap


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_grid_summary_and_artifact(tmp_path, capsys):
    out = tmp_path / "cells.json"
    assert main(["grid", "--level", "2", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "level 2: 64 cells" in text
    doc = json.loads(out.read_text())
    assert doc["level"] == 2 and len(doc["cells"]) == 64


def _encoded(level, margin=0.0):
    return conflicts._encode(conflicts.build_conflict_graph(level, margin))


def _with_header(raw, field, value):
    """Set one header field of a graph file; the checksum covers only the body."""
    fields = list(conflicts._HEADER.unpack_from(raw))
    fields[field] = value
    return conflicts._HEADER.pack(*fields) + raw[conflicts._HEADER.size:]


def _flip_last_byte(raw):
    return raw[:-1] + bytes([raw[-1] ^ 0xFF])


def _widened_run(raw):
    """Widen one run by a sector and rewrite the checksum to match."""
    size = conflicts._HEADER.size
    first, last = np.frombuffer(raw[size:], "<u2").reshape(2, 8, 8).copy()  # level 2
    last[1, 2] = last[2, 1] = last[1, 2] + 1
    body = np.stack((first, last)).astype("<u2").tobytes()
    fields = conflicts._HEADER.unpack_from(raw)
    return conflicts._HEADER.pack(*fields[:4], hashlib.sha256(body).digest()) + body


@pytest.mark.parametrize("level, margin, prior", [
    pytest.param(2, "0", lambda: None, id="absent"),
    pytest.param(2, "0", lambda: _encoded(2), id="same-graph"),
    pytest.param(1, "0", lambda: _flip_last_byte(_encoded(1)), id="flipped-body-byte"),
    *(pytest.param(3, "0", lambda level=level: _with_header(_encoded(3), 2, level),
                   id=f"header-level-{level}") for level in (12, 25, 65535)),
    pytest.param(3, "0", lambda: _encoded(2), id="level-2-under-level-3-name"),
    # 0.001 and 0.0010000001 both print as 0.001 under {margin:g}
    pytest.param(3, "0.001", lambda: _encoded(3, 0.0010000001), id="margin-sharing-the-name"),
    pytest.param(3, "0.05", lambda: _with_header(_encoded(3), 3, 0.05),
                 id="header-margin-rewritten"),
    pytest.param(3, "0", lambda: _with_header(_encoded(3), 1, 1), id="header-version-1"),
    pytest.param(2, "0", lambda: _widened_run(_encoded(2)), id="widened-run-valid-checksum"),
])
def test_conflicts_cache_dir_writes_the_built_graph(tmp_path, capsys, level, margin, prior):
    # whatever the file held, the run builds the graph, prints what a run
    # without --cache-dir prints, then overwrites the file and names it
    args = ["conflicts", "--level", str(level), "--margin", margin]
    assert main(args) == EXIT_OK
    plain = capsys.readouterr().out
    path = tmp_path / f"level{level}_margin{float(margin):g}.opfg"
    raw = prior()
    if raw is not None:
        path.write_bytes(raw)
    assert main([*args, "--cache-dir", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == plain + f"cached graph at {path}\n"
    assert path.read_bytes() == _encoded(level, float(margin))
    assert list(tmp_path.iterdir()) == [path]
    # histogram lines "  degree: cells" cover every cell and both ends of each edge
    edges = int(plain.split(": ")[1].split()[0])
    hist = [tuple(map(int, line.split(":"))) for line in plain.splitlines()
            if line.startswith("  ")]
    assert sum(c for _, c in hist) == 4 * 4**level
    assert sum(d * c for d, c in hist) == 2 * edges


def test_os_errors_are_usage_errors(tmp_path, capsys):
    # each used to end in a traceback and exit 1
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert main(["conflicts", "--level", "1", "--cache-dir", str(a_file)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    (tmp_path / "level1_margin0.opfg").mkdir()
    assert main(["conflicts", "--level", "1", "--cache-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    out = tmp_path / "missing_dir" / "s.json"
    assert main(["search", "--level", "1", "--method", "baseline",
                 "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_cache_dir_that_is_a_file_fails_before_the_build(tmp_path, monkeypatch, capsys):
    # the command used to build the whole graph and only then fail in mkdir
    def no_build(*args, **kwargs):
        raise AssertionError("build_conflict_graph called")
    monkeypatch.setattr(conflicts, "build_conflict_graph", no_build)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert main(["conflicts", "--level", "7", "--cache-dir", str(a_file)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert a_file.read_text() == ""


def test_flags_are_not_abbreviated(tmp_path, monkeypatch, capsys):
    # --cache used to parse as --cache-dir and create the directory g.opfg/
    monkeypatch.chdir(tmp_path)
    assert main(["conflicts", "--level", "1", "--cache", "g.opfg"]) == EXIT_USAGE
    assert main(["conflicts", "--lev", "1"]) == EXIT_USAGE
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


def test_conflicts_resource_cap(capsys):
    assert main(["conflicts", "--level", "8"]) == EXIT_RESOURCE
    assert "level 8 exceeds the maximum 7" in capsys.readouterr().err


def test_graph_commands_have_no_cap_or_cache_path_options(tmp_path, capsys, monkeypatch):
    # the level cap is conflicts.MAX_LEVEL, and --cache-dir is the one cache path
    for argv in (["conflicts", "--level", "1", "--max-level", "9"],
                 ["search", "--level", "1", "--method", "baseline", "--max-level", "9"]):
        assert main(argv) == EXIT_USAGE
    monkeypatch.setenv("OPFSETS_CACHE_DIR", str(tmp_path))
    assert main(["conflicts", "--level", "1"]) == EXIT_OK
    assert "cached graph" not in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_conflicts_negative_zero_margin_is_margin_zero(tmp_path, capsys):
    # -0.0 used to print "margin -0" and name level2_margin-0.opfg, whose
    # header margin differed from the margin-0 file's at byte 16
    assert math.copysign(1.0, conflicts.build_conflict_graph(2, -0.0).margin) == 1.0
    for name, margin in (("neg", "-0"), ("zero", "0")):
        assert main(["conflicts", "--level", "2", "--margin", margin,
                     "--cache-dir", str(tmp_path / name)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("level 2 margin 0: ")
    assert [p.name for p in (tmp_path / "neg").iterdir()] == ["level2_margin0.opfg"]
    assert ((tmp_path / "neg" / "level2_margin0.opfg").read_bytes()
            == (tmp_path / "zero" / "level2_margin0.opfg").read_bytes())


@pytest.mark.parametrize("margin", ["nan", "-1"])
def test_conflicts_rejects_bad_margin(capsys, margin):
    assert main(["conflicts", "--level", "2", f"--margin={margin}"]) == EXIT_USAGE
    assert "margin must be finite" in capsys.readouterr().err


def test_search_baseline_artifact_deterministic(tmp_path, capsys):
    out = tmp_path / "search.json"
    argv = ["search", "--level", "2", "--method", "baseline", "--out", str(out)]
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first
    doc = json.loads(first)
    assert doc["fraction"] == 0.25
    capsys.readouterr()


def test_search_exact_level1(capsys):
    assert main(["search", "--level", "1", "--method", "exact"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "optimal: True" in text


def test_search_usage_error_and_exact_cap(capsys):
    # no double cap exists at level 0: a usage error, not a resource cap
    assert main(["search", "--level", "0", "--method", "baseline"]) == EXIT_USAGE
    assert "level must be >= 1" in capsys.readouterr().err
    assert main(["search", "--level", "3", "--method", "exact"]) == EXIT_RESOURCE
    assert "exact-search cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    pytest.param(["--method", "local", "--iters", "-5"], "iters", id="argv0-iters"),
    pytest.param(["--method", "greedy-random", "--seed", "-3"], "seed", id="argv2-seed"),
    pytest.param(["--method", "local", "--seed", "-3"], "seed", id="argv3-seed"),
])
def test_search_rejects_negative_budgets(capsys, argv, name):
    # a negative seed once failed inside numpy without naming the flag
    assert main(["search", "--level", "1", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{name} must be >= 0" in captured.err and not captured.out


def _selection_file(tmp_path, cells):
    path = tmp_path / "sel.json"
    cells.save(path)
    return str(path)


@pytest.mark.parametrize("argv, code", [
    pytest.param(lambda tmp: ["conflicts", "--level", "8"], EXIT_RESOURCE,
                 id="graph-level-cap"),
    pytest.param(lambda tmp: ["search", "--level", "3", "--method", "exact"], EXIT_RESOURCE,
                 id="exact-search-cap"),
    pytest.param(lambda tmp: [
        "scale", "--selection", _selection_file(tmp, double_cap_cellset(3)), "--epsilon",
        f"{2.0 * largest_feasible_epsilon(double_cap_cellset(3).measure())}"],
        EXIT_INFEASIBLE, id="infeasible-epsilon"),
    # the full level-2 band next to the equator circles the sphere: no hemisphere holds it
    pytest.param(lambda tmp: [
        "convexify", "--selection",
        _selection_file(tmp, CellSet(2, [(3, s) for s in range(8)]))],
        EXIT_INFEASIBLE, id="hull-outside-a-hemisphere"),
    pytest.param(lambda tmp: ["conflicts", "--level", "2", "--margin=-1"], EXIT_USAGE,
                 id="bad-margin"),
    pytest.param(lambda tmp: ["report"], EXIT_USAGE, id="report-without-inputs"),
])
def test_exit_code_table(tmp_path, capsys, argv, code):
    # one run per row of cli._EXIT_CODES; main alone prints the error
    assert main(argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_search_local_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "board.csv"
    assert main(["search", "--level", "2", "--method", "local",
                 "--iters", "20", "--csv", str(csv_path)]) == EXIT_OK
    assert csv_path.read_text().startswith("level,method,seed")
    capsys.readouterr()


def test_filter_epsilon_validation(capsys):
    assert main(["filter", "--oracle", "double-cap", "--level", "2",
                 "--epsilon", "0.5"]) == EXIT_USAGE
    assert "outside the supported range" in capsys.readouterr().err
    # above the guarantee threshold but below the hard cap: warn and run
    assert main(["filter", "--oracle", "double-cap", "--level", "2",
                 "--epsilon", "0.05"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "selected" in captured.out


def test_filter_rejects_overlapping_caps(capsys):
    # a radius above pi/2 makes the two polar caps overlap
    assert main(["filter", "--oracle", "double-cap", "--radius", "2.0", "--level", "2",
                 "--epsilon", "0.01"]) == EXIT_USAGE
    assert "overlap" in capsys.readouterr().err


def test_filter_double_cap_artifact(tmp_path, capsys):
    out = tmp_path / "filter.json"
    assert main(["filter", "--oracle", "double-cap", "--level", "3",
                 "--epsilon", "0.01", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["selected"]["cells"]) == 64
    capsys.readouterr()


def test_filter_has_no_samples_or_seed_option(tmp_path, capsys):
    # every oracle the command builds is decided exactly, never by Monte
    # Carlo, so neither option could change a byte of the output
    base = ["filter", "--oracle", "double-cap", "--level", "2", "--epsilon", "0.01"]
    for extra in (["--samples", "500"], ["--seed", "3"]):
        assert main([*base, *extra]) == EXIT_USAGE
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 500\n")
    assert main(["--config", str(cfg), *base]) == EXIT_USAGE
    assert "unknown config key 'samples'" in capsys.readouterr().err


def test_filter_sieve_oracle(capsys):
    assert main(["filter", "--oracle", "sieve", "--depth", "2", "--level", "2",
                 "--epsilon", "0.01"]) == EXIT_OK
    capsys.readouterr()


def test_scale_feasible_and_infeasible(tmp_path, capsys):
    sel_path = tmp_path / "dc3.json"
    sel = double_cap_cellset(3)
    sel.save(sel_path)
    thresh = largest_feasible_epsilon(sel.measure())
    out = tmp_path / "scale.json"
    assert main(["scale", "--selection", str(sel_path),
                 "--epsilon", f"{0.9 * thresh}", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "0 violations" in text
    doc = json.loads(out.read_text())
    assert doc["certification"]["violations"] == []
    # an infeasible epsilon reports the bisection suggestion
    assert main(["scale", "--selection", str(sel_path),
                 "--epsilon", f"{2.0 * thresh}"]) == EXIT_INFEASIBLE
    assert "largest feasible epsilon" in capsys.readouterr().err


def test_scale_certification_failure(tmp_path, capsys):
    sel_path = tmp_path / "full.json"
    sel = CellSet(2, all_cells(2))
    sel.save(sel_path)
    thresh = largest_feasible_epsilon(sel.measure())
    assert main(["scale", "--selection", str(sel_path),
                 "--epsilon", f"{0.9 * thresh}"]) == EXIT_CERTIFICATION
    capsys.readouterr()


def test_scale_artifacts_pinned(tmp_path, capsys):
    # sha256 of `opfsets scale --epsilon 0.01 --out` as the per-region
    # objects gave it, before the regions were handed on as box arrays
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    rotcap = select_dense_cells(cap_union_oracle(
        [Cap(axis, math.pi / 4.0), Cap(-axis, math.pi / 4.0)]), 6, 0.01).selected
    pins = {"rotcap-l6": (rotcap, EXIT_CERTIFICATION,  # 20 violations survive the shrink
                          "7f1d5bf271a9b6af998b3cbbdf4949c05ed543c66f647256ee74173196d5a06e"),
            "double-cap-l5": (double_cap_cellset(5), EXIT_OK,
                              "1b2edb4a42764fc99f5dd3820d0c3f5ea091a8276e0745b12f1d0246bf91e0fa")}
    for name, (sel, code, digest) in pins.items():
        sel.save(tmp_path / f"{name}.sel.json")
        out = tmp_path / f"{name}.json"
        assert main(["scale", "--selection", str(tmp_path / f"{name}.sel.json"),
                     "--epsilon", "0.01", "--out", str(out)]) == code, name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
    capsys.readouterr()


def test_scale_and_convexify_read_filter_report(tmp_path, capsys):
    report = tmp_path / "filter.json"
    assert main(["filter", "--oracle", "double-cap", "--level", "3",
                 "--epsilon", "0.01", "--out", str(report)]) == EXIT_OK
    out = tmp_path / "scale.json"
    assert main(["scale", "--selection", str(report), "--epsilon", "0.01",
                 "--out", str(out)]) == EXIT_OK
    assert "0 violations" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["certification"] == {"violations": []}
    # the work count goes to the sidecar, never into the primary artifact
    meta = json.loads((tmp_path / "scale.json.meta.json").read_text())
    assert 0 <= meta["pairs_evaluated"] <= 64 * 65 // 2
    assert main(["convexify", "--selection", str(report)]) == EXIT_OK
    assert "2 polygons" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"level": 3, "cells": [{"band": 0, "sector": 0}]}))
    assert main(["scale", "--selection", str(bad), "--epsilon", "0.01"]) == EXIT_USAGE
    assert '"selected"' in capsys.readouterr().err


def test_scale_missing_selection(tmp_path, capsys):
    assert main(["scale", "--selection", str(tmp_path / "nope.json"),
                 "--epsilon", "0.01"]) == EXIT_USAGE
    capsys.readouterr()


def test_convexify_double_cap(tmp_path, capsys):
    sel_path = tmp_path / "dc3.json"
    double_cap_cellset(3).save(sel_path)
    out = tmp_path / "conv.json"
    assert main(["convexify", "--selection", str(sel_path),
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "2 polygons" in text
    assert "0 violations" in text
    doc = json.loads(out.read_text())
    assert len(doc["decomposition"]["polygons"]) == 2
    assert doc["decomposition"]["pairwise_min_distance"] > math.pi / 2


def test_report_sweep_and_csv(tmp_path, capsys, monkeypatch):
    assert main(["report"]) == EXIT_USAGE
    capsys.readouterr()
    # the sweep reads each fraction off the cap's bands and builds no cells:
    # the level-12 double cap has 19.6 M of them
    def no_cells(level):
        raise AssertionError("double_cap_cellset called")
    monkeypatch.setattr(search, "double_cap_cellset", no_cells)
    csv_path = tmp_path / "sweep.csv"
    assert main(["report", "--sweep", "2", "4", "--csv", str(csv_path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "double-cap baseline sweep (level, fraction):\n"
        "  2, 0.250000000\n  3, 0.250000000\n  4, 0.250000000\n"
        "limit 1 - 1/sqrt(2) = 0.292893219\n")
    assert csv_path.read_text() == ("level,method,cells,fraction\n"
                                    "2,baseline-sweep,,0.2500000000\n"
                                    "3,baseline-sweep,,0.2500000000\n"
                                    "4,baseline-sweep,,0.2500000000\n")


def test_report_sweep_rejects_a_reversed_range(tmp_path, capsys):
    # it used to print an empty sweep and exit 0
    csv_path = tmp_path / "sweep.csv"
    assert main(["report", "--sweep", "3", "1", "--csv", str(csv_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not csv_path.exists()


def test_report_consumes_search_artifacts(tmp_path, capsys):
    out = tmp_path / "search.json"
    assert main(["search", "--level", "2", "--method", "baseline",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--inputs", str(out)]) == EXIT_OK
    assert "baseline" in capsys.readouterr().out
    # a filter artifact has no search fields: named, not a traceback
    report = tmp_path / "filter.json"
    assert main(["filter", "--oracle", "double-cap", "--level", "2", "--epsilon", "0.01",
                 "--out", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--inputs", str(out), str(report)]) == EXIT_USAGE
    assert f"{report} is not an `opfsets search --out` artifact" in capsys.readouterr().err


def test_config_defaults_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmargin = 0.05\n")
    assert main(["--config", str(cfg), "conflicts", "--level", "1"]) == EXIT_OK
    assert "margin 0.05" in capsys.readouterr().out
    # explicit flags beat config values, in either spelling
    for explicit in (["--margin", "0"], ["--margin=0"]):
        assert main(["--config", str(cfg), "conflicts", "--level", "1", *explicit]) == EXIT_OK
        assert "margin 0:" in capsys.readouterr().out


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 2\n")
    assert main(["--config", str(cfg), "search", "--method", "exact"]) == EXIT_OK
    assert "method exact: 16 cells" in capsys.readouterr().out
    assert main([f"--config={cfg}", "search", "--method", "exact", "--level", "1"]) == EXIT_OK
    assert "method exact: 2 cells" in capsys.readouterr().out
    # a key of another command is unknown to this one
    cfg.write_text("level = 2\nepsilon = 0.01\n")
    assert main(["--config", str(cfg), "search", "--method", "exact"]) == EXIT_USAGE
    assert "unknown config key 'epsilon'" in capsys.readouterr().err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("turbo=yes\n")
    assert main(["--config", str(cfg), "grid", "--level", "1"]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err
    cfg.write_text("no equals sign here\n")
    assert main(["--config", str(cfg), "grid", "--level", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    sel = tmp_path / "dc3.json"
    double_cap_cellset(3).save(sel)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("arc_samples = 8\n")
    assert main(["--config", str(cfg), "convexify", "--selection", str(sel)]) == EXIT_OK
    assert "2 polygons" in capsys.readouterr().out


def test_config_values_meet_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("init = bogus\n")
    assert main(["--config", str(cfg), "search", "--level", "1", "--method", "local",
                 "--iters", "5"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_config_multi_value_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep = 2 4\n")
    assert main(["--config", str(cfg), "report"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2, 0.250000000" in out and "4, 0.250000000" in out


def test_config_splice_survives_command_named_values(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the config file and the --out value are both named like commands
    (tmp_path / "search").write_text("seed = 3\n")
    for flag in (["--config", "search"], ["--config=search"]):
        assert main([*flag, "search", "--level", "2", "--method", "greedy-random",
                     "--out", "grid"]) == EXIT_OK
        capsys.readouterr()
        assert json.loads((tmp_path / "grid").read_text())["seed"] == 3


def test_filter_rejects_bad_centers(capsys):
    base = ["filter", "--oracle", "cap", "--level", "2", "--epsilon", "0.01"]
    for center in ("0,0,0", "1,2", "1,2,3,4", "nan,0,1", "inf,0,0", "x,0,1"):
        assert main(base + [f"--center={center}"]) == EXIT_USAGE, center
        assert "error" in capsys.readouterr().err
    assert main(["filter", "--oracle", "cell-set", "--level", "2",
                 "--epsilon", "0.01"]) == EXIT_USAGE
    assert "--cells" in capsys.readouterr().err


def test_convexify_rejects_non_integer_selection(tmp_path, capsys):
    # a level of 3.7 used to be truncated: a level-3 cell was certified, exit 0
    for doc in ({"level": 3.7, "cells": [[2, 1]]}, {"level": 3, "cells": [[2.5, 1]]},
                {"level": "3", "cells": [[2, 1]]}, {"level": True, "cells": [[1, 0]]}):
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps(doc))
        assert main(["convexify", "--selection", str(sel)]) == EXIT_USAGE, doc
        assert "must be integers" in capsys.readouterr().err


def test_convexify_rejects_zero_arc_samples(tmp_path, capsys):
    sel = tmp_path / "dc3.json"
    double_cap_cellset(3).save(sel)
    assert main(["convexify", "--selection", str(sel), "--arc-samples", "0"]) == EXIT_USAGE
    assert "arc_samples" in capsys.readouterr().err


def test_convexify_has_no_merge_tolerance_option(tmp_path, capsys):
    # conv2's merge threshold keeps the polygons disjoint; it is not a choice
    sel = tmp_path / "dc3.json"
    double_cap_cellset(3).save(sel)
    assert main(["convexify", "--selection", str(sel), "--merge-tol", "0"]) == EXIT_USAGE
    cfg = tmp_path / "run.cfg"
    cfg.write_text("merge_tol = -1\n")
    assert main(["--config", str(cfg), "convexify", "--selection", str(sel)]) == EXIT_USAGE
    assert "merge_tol" in capsys.readouterr().err


def test_scale_and_convexify_read_search_artifact(tmp_path, capsys):
    art = tmp_path / "s.json"
    assert main(["search", "--level", "3", "--method", "baseline",
                 "--out", str(art)]) == EXIT_OK
    assert main(["scale", "--selection", str(art), "--epsilon", "0.02"]) == EXIT_OK
    assert "0 violations" in capsys.readouterr().out
    assert main(["convexify", "--selection", str(art)]) == EXIT_OK
    assert "2 polygons" in capsys.readouterr().out
