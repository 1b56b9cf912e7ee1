"""End-to-end runs of the command line front end."""

import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from bipartite_influence.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    default_cache_dir,
    load_config,
    main,
    parse_segment_list,
)
from bipartite_influence.games import format_game
from bipartite_influence.graphs import Position, build_segment
from bipartite_influence.segments import segment_union_tree

from conftest import FROZEN_TABLE_120, whole_position_tree


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSolve:
    def test_segment_json(self, capsys):
        rc, out, _ = run(capsys, "solve", "--segment", "5", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["ls"] == 5 and data["rs"] == -1
        assert data["nodes"] > 0

    def test_segment_text(self, capsys):
        rc, out, _ = run(capsys, "solve", "--segment", "-7")
        assert rc == EXIT_OK
        assert "Ls = 3" in out and "Rs = -1" in out

    def test_union_of_segments(self, capsys):
        rc, out, _ = run(capsys, "solve", "--segments", "5,5,2", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["ls"] == 2 and data["rs"] == 2

    def test_grid(self, capsys):
        rc, out, _ = run(capsys, "solve", "--grid", "2x2", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert (data["ls"], data["rs"]) == (4, -4)

    def test_how_names_the_mirror_or_the_search(self, capsys):
        rc, out, _ = run(capsys, "solve", "--torus", "4x4", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert (data["ls"], data["rs"], data["how"], data["nodes"]) == (0, 0, "mirror", 0)
        rc, out, _ = run(capsys, "solve", "--grid", "3x4", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["how"] == "search" and data["nodes"] > 0
        assert run(capsys, "solve", "--torus", "4x4") == (
            EXIT_OK, "T_4x4: Ls = 0, Rs = 0 by mirror (0 nodes, 0 table entries)\n", "")
        rc, out, _ = run(capsys, "solve", "--grid", "3x4")
        assert rc == EXIT_OK and "by mirror" not in out

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(build_segment(3).to_json()))
        rc, out, _ = run(capsys, "solve", "--file", str(path), "--json")
        assert rc == EXIT_OK
        assert json.loads(out)["ls"] == 3

    def test_graph_name_must_be_a_string(self, capsys, tmp_path):
        # reports echo the name as a string, so another value is bad input
        path = tmp_path / "g.json"
        path.write_text(json.dumps(build_segment(3).to_json() | {"name": {"x": [1]}}))
        rc, out, err = run(capsys, "solve", "--file", str(path), "--json")
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "error: graph name must be a string, got dict\n"

    def test_no_source_is_an_input_error(self, capsys):
        rc, _, err = run(capsys, "solve")
        assert rc == EXIT_INPUT
        assert "exactly one" in err

    def test_two_sources_is_an_input_error(self, capsys):
        rc, _, _ = run(capsys, "solve", "--segment", "3", "--grid", "2x2")
        assert rc == EXIT_INPUT
        rc, out, err = run(capsys, "solve", "--segments", "2,2", "--grid", "2x2")
        assert rc == EXIT_INPUT
        assert out == "" and "exactly one" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "solve", "--file", str(tmp_path / "no.json"))
        assert rc == EXIT_INPUT

    def test_file_nested_too_deep(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)  # json gives up on this with a RecursionError
        rc, out, err = run(capsys, "solve", "--file", str(path))
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_budget_exhaustion(self, capsys, monkeypatch):
        # 0 is a budget too, not "unset"
        for grid, budget in (("3x3", "1"), ("3x4", "0")):
            rc, _, err = run(capsys, "solve", "--grid", grid,
                             "--node-budget", budget)
            assert rc == EXIT_BUDGET
            assert "budget" in err
        # a negative budget is bad input, from the flag or from the env var
        rc, _, err = run(capsys, "solve", "--grid", "2x2", "--node-budget", "-1")
        assert rc == EXIT_INPUT
        assert err.startswith("error:") and err.count("\n") == 1
        monkeypatch.setenv("INFLUENCE_NODE_BUDGET", "-3")
        rc, _, err = run(capsys, "solve", "--grid", "2x2")
        assert rc == EXIT_INPUT
        assert err.startswith("error:") and err.count("\n") == 1

    def test_grid_3x12_fits_a_small_budget(self, capsys):
        rc, out, _ = run(capsys, "solve", "--grid", "3x12", "--node-budget", "5000", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert (data["ls"], data["rs"]) == (4, -4)

    def test_bad_dims(self, capsys):
        rc, _, err = run(capsys, "solve", "--grid", "2by2")
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("flag,dims", [("--grid", "2x"), ("--grid", "2by2"),
                                           ("--torus", "x3"), ("--torus", "2x3x4")])
    def test_bad_dims_name_the_expected_form(self, capsys, flag, dims):
        rc, _, err = run(capsys, "solve", flag, dims)
        assert rc == EXIT_INPUT
        assert err == f"error: expected RxC, got {dims!r}\n"

    @pytest.mark.parametrize("vertices", [
        [{"color": "B"}],
        [{"id": 0, "color": "B"}, {"id": "a", "color": "W"}],
        [{"id": False, "color": "B"}, {"id": True, "color": "W"}],
    ], ids=["no-id", "mixed-ids", "bool-ids"])
    def test_bad_vertex(self, capsys, tmp_path, vertices):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": []}))
        rc, out, err = run(capsys, "solve", "--file", str(path))
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edges",
        [None, [[0, "a"]], [[0, 1.5]], [0], [[0, 2]], [[0, -1]], [[0, 0]]],
        ids=["null", "string", "float", "bare-int", "out-of-range", "negative",
             "self-loop"])
    def test_bad_edges(self, capsys, tmp_path, edges):
        path = tmp_path / "g.json"
        vertices = [{"id": 0, "color": "B"}, {"id": 1, "color": "W"}]
        path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
        rc, out, err = run(capsys, "solve", "--file", str(path))
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_no_prune_matches(self, capsys):
        rc, out, _ = run(capsys, "solve", "--segment", "8", "--json")
        pruned = json.loads(out)
        rc2, out2, _ = run(capsys, "solve", "--segment", "8", "--no-prune",
                           "--json")
        lazy = json.loads(out2)
        assert rc == rc2 == EXIT_OK
        assert (pruned["ls"], pruned["rs"]) == (lazy["ls"], lazy["rs"])


class TestTable:
    def test_stdout_csv(self, capsys):
        rc, out, _ = run(capsys, "table", "--max", "5", "--no-cache")
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,ls,rs"
        assert lines[1] == "1,1,1"
        assert lines[5] == "5,5,-1"

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table", "--max", "12", "--no-cache",
                     "--out", str(a)]) == EXIT_OK
        assert main(["table", "--max", "12", "--no-cache",
                     "--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        rc, first, _ = run(capsys, "table", "--max", "10",
                           "--cache-dir", str(cache))
        assert rc == EXIT_OK
        assert (cache / "segment-scores.json").exists()
        rc, second, _ = run(capsys, "table", "--max", "10",
                            "--cache-dir", str(cache))
        assert rc == EXIT_OK
        assert first == second

    def test_period_check_reports_on_stderr(self, capsys):
        rc, out, err = run(capsys, "table", "--max", "20", "--no-cache",
                           "--check-period", "2", "5")
        assert rc == EXIT_OK
        assert "violations at" in err
        rc, out, err = run(capsys, "table", "--max", "37", "--no-cache",
                           "--check-period", "8", "13")
        assert "no violations" in err

    def test_negative_preperiod_rejected(self, capsys):
        rc, out, err = run(capsys, "table", "--max", "10", "--no-cache",
                           "--check-period", "2", "-5")
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "preperiod" in err

    @pytest.mark.parametrize("period", [("2", "-5"), ("0", "3"), ("4", "6")])
    def test_bad_period_rejected_before_building(self, capsys, tmp_path, period):
        cache = tmp_path / "cache"
        rc, out, err = run(capsys, "table", "--max", "10", "--cache-dir", str(cache),
                           "--check-period", *period)
        assert rc == EXIT_INPUT
        assert out == "" and err.startswith("error:")
        assert not (cache / "segment-scores.json").exists()

    def test_max_zero_rejected(self, capsys):
        rc, out, err = run(capsys, "table", "--max", "0", "--no-cache")
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:")

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--max", "5", "--no-cache", "--threads", "2"])
        assert exc.value.code == EXIT_INPUT
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "garbage",
        '{"format": "something-else", "entries": []}',
        '{"format": "bipartite-influence-segment-cache", "version": 1, '
        '"rewrite": false, "entries": []}',
        '{"format": "bipartite-influence-segment-cache", "version": 1, '
        '"rewrite": true, "entries": [[[5], "x"]]}',
        '{"format": "bipartite-influence-segment-cache", "version": 1, '
        '"rewrite": true, "entries": 7}',
        # S_5 has five vertices, so no score of it reaches 99
        '{"format": "bipartite-influence-segment-cache", "version": 1, '
        '"rewrite": true, "entries": [[[5], 99]]}',
        "[" * 100_000,
    ], ids=["garbage", "format", "rewrite", "score", "entries", "impossible", "nested"])
    def test_bad_cache_is_rebuilt(self, capsys, tmp_path, content):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache_file = cache / "segment-scores.json"
        cache_file.write_text(content)
        rc, out, err = run(capsys, "table", "--max", "12",
                           "--cache-dir", str(cache))
        assert rc == EXIT_OK
        assert err.count("\n") == 1 and "ignoring segment cache" in err
        assert out.splitlines()[1:] == [f"{n},{ls},{rs}"
                                        for n, ls, rs in FROZEN_TABLE_120[:12]]
        # the rebuilt file is the one a run without a cache writes, and is
        # loaded quietly next time
        clean = tmp_path / "clean"
        assert main(["table", "--max", "12", "--cache-dir", str(clean)]) == EXIT_OK
        capsys.readouterr()
        assert cache_file.read_text() == (clean / "segment-scores.json").read_text()
        rc, again, err = run(capsys, "table", "--max", "12",
                             "--cache-dir", str(cache))
        assert (rc, again, err) == (EXIT_OK, out, "")

    @pytest.mark.parametrize("where", ["file", "under a file"])
    def test_unwritable_cache_dir_still_prints_the_table(self, capsys, tmp_path, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = blocker if where == "file" else blocker / "cache"
        rc, out, err = run(capsys, "table", "--max", "12", "--cache-dir", str(cache))
        assert rc == EXIT_OK
        assert err.count("\n") == 1 and err.startswith("# could not save segment cache")
        assert out.splitlines()[1:] == [f"{n},{ls},{rs}"
                                        for n, ls, rs in FROZEN_TABLE_120[:12]]
        assert blocker.read_text() == "not a directory"

    def test_cache_file_that_is_a_directory(self, capsys, tmp_path):
        (tmp_path / "segment-scores.json").mkdir()
        rc, out, err = run(capsys, "table", "--max", "12", "--cache-dir", str(tmp_path))
        assert rc == EXIT_OK
        load, save = err.splitlines()
        assert load.startswith("# ignoring segment cache")
        assert save.startswith("# could not save segment cache")
        assert out.splitlines()[1:] == [f"{n},{ls},{rs}"
                                        for n, ls, rs in FROZEN_TABLE_120[:12]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["segment-scores.json"]


class TestThermo:
    def test_segment_json(self, capsys):
        rc, out, _ = run(capsys, "thermo", "--segment", "5", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["game"] == "<5|<-1|-5>>"
        assert data["sigma"] == "4"
        assert data["mast"] == "1"
        assert data["ls_trajectory"][0] == {
            "start": "0", "value_at_start": "5", "slope": "-1"
        }

    def test_raw_segment_prints_the_full_tree(self, capsys):
        rc, out, _ = run(capsys, "thermo", "--raw", "--segment", "5", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        full = whole_position_tree(Position.make(build_segment(5)))
        assert data["game"] == format_game(full) != "<5|<-1|-5>>"
        assert (data["sigma"], data["mast"]) == ("4", "1")

    @pytest.mark.parametrize("source", [["--segment", "33"], ["--segments", "20,-13"]],
                             ids=["segment", "segments"])
    def test_raw_union_above_32_vertices_rejected(self, capsys, source):
        rc, out, err = run(capsys, "thermo", "--raw", *source)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "33" in err

    def test_raw_union_of_24_vertices_accepted(self, capsys):
        rc, out, _ = run(capsys, "thermo", "--raw", "--segments", "4,4,4,4,4,4", "--json")
        assert rc == EXIT_OK
        assert json.loads(out)["mast"] == "0"

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rc, out, _ = run(capsys, "thermo", "--segment", "5",
                         "--csv", str(path))
        assert rc == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == "t,ls,rs"
        assert any(line.startswith("4,") for line in lines)

    def test_rational_breakpoints_print_exactly(self, capsys, tmp_path):
        # The whole output of a thermograph with breakpoints off the
        # integers: ints and Fractions inside must print as they always did.
        path = tmp_path / "t.csv"
        rc, out, _ = run(capsys, "thermo", "--segments", "5,7", "--json", "--csv", str(path))
        assert rc == EXIT_OK
        assert out == (
            '{"game": "<<<12|6>|2,<6|-2>>|<<6|-2>,<6|<0|-4>>|<-2|<-8|-12>>,'
            '<<0|-4>|<-8|-12>>>,<<<6|2>|<0|-4>>|<-4|-8>,<<0|-4>|<-8|-12>>>>", '
            '"sigma": "4", "mast": "3/2", "ls_trajectory": ['
            '{"start": "0", "value_at_start": "2", "slope": "0"}, '
            '{"start": "7/2", "value_at_start": "2", "slope": "-1"}, '
            '{"start": "4", "value_at_start": "3/2", "slope": "0"}], "rs_trajectory": ['
            '{"start": "0", "value_at_start": "0", "slope": "0"}, '
            '{"start": "2", "value_at_start": "0", "slope": "1"}, '
            '{"start": "3", "value_at_start": "1", "slope": "0"}, '
            '{"start": "7/2", "value_at_start": "1", "slope": "1"}, '
            '{"start": "4", "value_at_start": "3/2", "slope": "0"}]}\n'
        )
        assert path.read_text() == "t,ls,rs\n0,2,0\n2,2,0\n3,2,1\n7/2,2,1\n4,3/2,3/2\n5,3/2,3/2\n"
        rc, out, _ = run(capsys, "thermo", "--segments", "5,7")
        assert rc == EXIT_OK
        assert out.splitlines()[1] == "temperature = 4, mean = 3/2"

    def test_explicit_game(self, capsys):
        rc, out, _ = run(capsys, "thermo", "--game", "<-1|-5>", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["sigma"] == "2"
        assert data["mast"] == "-3"

    def test_union(self, capsys):
        rc, out, _ = run(capsys, "thermo", "--segments", "2,2", "--json")
        assert rc == EXIT_OK
        assert json.loads(out)["mast"] == "0"

    def test_zugzwang_game_rejected(self, capsys):
        rc, _, err = run(capsys, "thermo", "--game", "<-1|1>")
        assert rc == EXIT_INPUT
        assert "universe" in err or "zugzwang" in err

    @pytest.mark.parametrize("raw", [[], ["--raw"]], ids=["simplified", "raw"])
    def test_zugzwang_subtree_rejected(self, capsys, raw):
        # simplify would drop the zugzwang option <0|1>, so the audit
        # must see the game as parsed
        rc, out, err = run(capsys, "thermo", *raw, "--game", "<<0|1>,5|-5>")
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "<0|1>" in err

    def test_source_required(self, capsys):
        rc, _, _ = run(capsys, "thermo")
        assert rc == EXIT_INPUT

    def test_zero_denominator(self, capsys):
        rc, out, err = run(capsys, "thermo", "--game", "<1/0|0>")
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def nested_game(depth, leaf=0):
    """``<<..<leaf|0>..|0>|0>``: a game ``depth`` levels deep."""
    return "<" * depth + str(leaf) + "|0>" * depth


class TestDeepGames:
    @pytest.mark.parametrize("argv", [
        ["thermo", "--game"],
        ["equiv", "--game-b", "0", "--game-a"],
    ], ids=["thermo", "equiv"])
    def test_depth_cap(self, capsys, argv):
        rc, out, _ = run(capsys, *argv, nested_game(100))
        assert rc == EXIT_OK and out
        rc, out, err = run(capsys, *argv, nested_game(101))
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_compare_two_deepest_games(self, capsys):
        rc, out, err = run(capsys, "equiv", "--game-a", nested_game(100),
                           "--game-b", nested_game(100, leaf=1), "--json")
        assert (rc, err) == (EXIT_OK, "")
        assert json.loads(out) == {"equivalent": True}


class TestEquiv:
    def test_known_equivalence(self, capsys):
        rc, out, _ = run(capsys, "equiv", "--sum-a", "5,5",
                         "--sum-b", "2", "--offset-b", "2", "--json")
        assert rc == EXIT_OK
        assert json.loads(out) == {"equivalent": True}

    def test_quadruple_five_is_four(self, capsys):
        rc, out, _ = run(capsys, "equiv", "--sum-a", "5,5,5,5",
                         "--game-b", "4")
        assert rc == EXIT_OK
        assert "yes" in out

    def test_inequivalent(self, capsys):
        rc, out, _ = run(capsys, "equiv", "--sum-a", "3", "--sum-b", "5")
        assert rc == EXIT_OK
        assert "no" in out

    def test_side_b_reads_side_a_trees(self, capsys, fresh_trees):
        rc, out, _ = run(capsys, "equiv", "--sum-a", "5,5", "--sum-b", "2", "--offset-b", "2")
        assert (rc, out) == (EXIT_OK, "equivalent: yes\n")
        keys = set(fresh_trees[True])
        fresh_trees[True].clear()
        segment_union_tree([5, 5])
        # 5,5 reduces to the key of 2 plus 2 points, so side B reads side A's tree
        assert (2,) in keys and keys == set(fresh_trees[True])

    def test_side_needs_exactly_one_source(self, capsys):
        rc, _, err = run(capsys, "equiv", "--sum-a", "3",
                         "--game-a", "1", "--sum-b", "3")
        assert rc == EXIT_INPUT
        rc, _, _ = run(capsys, "equiv", "--sum-a", "3")
        assert rc == EXIT_INPUT

    def test_bad_notation(self, capsys):
        rc, _, _ = run(capsys, "equiv", "--game-a", "<1|", "--sum-b", "3")
        assert rc == EXIT_INPUT


class TestSymmetry:
    def test_hypercube_found(self, capsys):
        rc, out, _ = run(capsys, "symmetry", "--hypercube", "3", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "found"
        assert data["draw_certified"] is True
        assert data["scores"] == {"ls": 0, "rs": 0}
        assert len(data["mapping"]) == 8

    def test_absent_grid(self, capsys):
        rc, out, _ = run(capsys, "symmetry", "--grid", "2x2", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "absent"
        assert data["scores"] == {"ls": 4, "rs": -4}
        assert data["draw_certified"] is False

    def test_budget_exit_code(self, capsys):
        for budget in ("3", "0"):
            rc, out, _ = run(capsys, "symmetry", "--torus", "4x6",
                             "--budget", budget, "--json")
            assert rc == EXIT_BUDGET
            assert json.loads(out)["status"] == "budget"
        # a negative budget or score limit is bad input, not a search
        for flag in ("--budget", "--solve-limit"):
            rc, out, err = run(capsys, "symmetry", "--hypercube", "3", flag, "-1")
            assert rc == EXIT_INPUT
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_human_readable_output(self, capsys):
        found = "H_3: found, mapping [7, 6, 5, 4, 3, 2, 1, 0]\n"
        assert run(capsys, "symmetry", "--hypercube", "3") == (
            EXIT_OK, found + "scores: Ls = 0, Rs = 0\n", "")
        assert run(capsys, "symmetry", "--hypercube", "3",
                   "--solve-limit", "0") == (EXIT_OK, found, "")
        assert run(capsys, "symmetry", "--grid", "2x2") == (
            EXIT_OK, "G_2x2: absent\nscores: Ls = 4, Rs = -4\n", "")

    def test_empty_graph_shows_its_empty_mapping(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"vertices": [], "edges": []}')
        rc, out, _ = run(capsys, "symmetry", "--file", str(path), "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert (data["status"], data["mapping"]) == ("found", [])
        rc, out, _ = run(capsys, "symmetry", "--file", str(path))
        assert rc == EXIT_OK
        assert out.splitlines()[0] == "graph: found, mapping []"

    def test_no_solve_skips_scores(self, capsys):
        rc, out, _ = run(capsys, "symmetry", "--hypercube", "3",
                         "--solve-limit", "0", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["scores"] is None
        assert data["draw_certified"] is True


class TestReduce:
    def test_formula_to_graph(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        rc, out, _ = run(capsys, "reduce", "--cnf", str(cnf))
        assert rc == EXIT_OK
        data = json.loads(out)
        assert len(data["vertices"]) == 13

    def test_check_notes_winner(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("1 2 0\n")
        rc, out, err = run(capsys, "reduce", "--cnf", str(cnf), "--check")
        assert rc == EXIT_OK
        assert "Alice wins" in err

    def test_output_file(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("1 0\n")
        out_path = tmp_path / "g.json"
        rc, out, _ = run(capsys, "reduce", "--cnf", str(cnf),
                         "--out", str(out_path))
        assert rc == EXIT_OK
        assert out == ""
        json.loads(out_path.read_text())

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n"))
        rc, out, _ = run(capsys, "reduce", "--cnf", "-")
        assert rc == EXIT_OK
        json.loads(out)

    def test_bad_formula(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("1 -2 0\n")
        rc, _, err = run(capsys, "reduce", "--cnf", str(cnf))
        assert rc == EXIT_INPUT

    def test_zero_declared_variables_is_rejected(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 0 1\n1 0\n")
        rc, out, err = run(capsys, "reduce", "--cnf", str(cnf))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "error: formula needs at least one variable\n"

    def test_huge_header_is_rejected_before_building(self, tmp_path):
        """3200 variables make a board of 20486401 vertices: the capacity
        check comes before the lists of its colours and edges, which would
        not fit in the 1 GB that ``run_limited`` allows."""
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3200 1\n1 0\n")
        result = run_limited("-m", "bipartite_influence", "reduce", "--cnf", str(cnf))
        assert result.returncode == EXIT_INPUT, result.stderr[-2000:]
        assert result.stdout == ""
        assert result.stderr == "error: graph has 20486401 vertices, capacity is 128\n"


@pytest.mark.parametrize("command", ["symmetry", "audit"])
def test_segments_flag_only_on_solve_and_thermo(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--segments", "2,2"])
    assert exc.value.code == EXIT_INPUT
    assert "--segments" in capsys.readouterr().err


class TestAudit:
    def test_clean_segment(self, capsys):
        rc, out, _ = run(capsys, "audit", "--segment", "6", "--json")
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["dicotic_ok"] and data["nonzugzwang_ok"]
        assert data["positions_checked"] > 0

    def test_text_verdict(self, capsys):
        rc, out, _ = run(capsys, "audit", "--segment", "4")
        assert rc == EXIT_OK
        assert "clean" in out

    def test_depth_must_be_at_least_zero(self, capsys):
        rc, out, err = run(capsys, "audit", "--segment", "4", "--depth", "-1")
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "depth" in err
        # depth 0 checks the start alone
        rc, out, _ = run(capsys, "audit", "--segment", "6", "--depth", "0", "--json")
        assert rc == EXIT_OK
        assert json.loads(out)["positions_checked"] == 1


class TestConfig:
    def test_config_file_sets_budget(self, capsys, tmp_path):
        cfg = tmp_path / "influence.cfg"
        cfg.write_text("# settings\nnode_budget = 1\n")
        rc, _, err = run(capsys, "--config", str(cfg),
                         "solve", "--grid", "3x3")
        assert rc == EXIT_BUDGET

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "influence.cfg"
        cfg.write_text("node_budget = 1\n")
        monkeypatch.setenv("INFLUENCE_NODE_BUDGET", "100000000")
        rc, out, _ = run(capsys, "--config", str(cfg),
                         "solve", "--grid", "3x3", "--json")
        assert rc == EXIT_OK
        assert json.loads(out)["ls"] > 0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "influence.cfg"
        # threads was a key once; it is gone with table --threads
        for key in ("node_budgt", "threads"):
            cfg.write_text(f"{key} = 1\n")
            rc, _, err = run(capsys, "--config", str(cfg),
                             "solve", "--segment", "2")
            assert rc == EXIT_INPUT
            assert f"unknown config key: {key}" in err

    @pytest.mark.parametrize("key,value,command", [
        ("node_budget", "abc", ["solve", "--grid", "2x3"]),
        ("search_budget", "1.5", ["symmetry", "--grid", "2x2"]),
        ("node_budget", "", ["solve", "--grid", "2x3"]),
    ])
    def test_non_integer_setting_is_named(self, capsys, tmp_path, monkeypatch,
                                          key, value, command):
        # from a config file, then from the environment variable
        message = f"error: {key} must be an integer, got {value!r}\n"
        cfg = tmp_path / "influence.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run(capsys, "--config", str(cfg), *command) == (EXIT_INPUT, "", message)
        monkeypatch.setenv("INFLUENCE_" + key.upper(), value)
        assert run(capsys, *command) == (EXIT_INPUT, "", message)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "influence.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError, match="bad config line"):
            load_config(str(cfg))

    def test_empty_cache_dir_is_named(self, capsys, tmp_path, monkeypatch):
        # from a config file, then from the environment variable; the
        # default cache directory is not used instead
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        message = "error: cache_dir must not be empty\n"
        cfg = tmp_path / "influence.cfg"
        cfg.write_text("cache_dir =\n")
        assert run(capsys, "--config", str(cfg), "table", "--max", "4") == (
            EXIT_INPUT, "", message)
        monkeypatch.setenv("INFLUENCE_CACHE_DIR", "")
        assert run(capsys, "table", "--max", "4") == (EXIT_INPUT, "", message)
        assert not (tmp_path / "xdg").exists()

    def test_cache_dir_honors_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "bipartite-influence"

    def test_segment_list_parser(self):
        assert parse_segment_list("5,-3, 2") == [5, -3, 2]
        with pytest.raises(ValueError, match="bad segment list"):
            parse_segment_list("5,x")

    def test_bad_segment_list_error_quotes_one_token(self, capsys):
        rc, out, err = run(capsys, "solve", "--segments", "2," * 50000 + "a")
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err.encode()) < 200 and "'a'" in err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip()


SRC = Path(__file__).resolve().parents[1] / "src"


def test_runs_as_a_module():
    result = subprocess.run(
        [sys.executable, "-m", "bipartite_influence", "thermo", "--segment", "5"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "game: <5|<-1|-5>>"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_limited(*argv):
    """A fresh interpreter with 1 GB of address space: a runaway string
    ends in a ``MemoryError`` there instead of filling the machine."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)), preexec_fn=_limit_address_space,
    )


def segments_of(size, count):
    return ",".join([str(size)] * count)


class TestHugeNotation:
    """Shared subtrees make the notation of ten sevens 7.6e8 characters
    long, and of twelve sevens 3.6e10."""

    def test_json_game_is_null(self):
        result = run_limited("-m", "bipartite_influence", "thermo", "--json",
                             "--segments", segments_of(7, 10))
        assert result.returncode == EXIT_OK, result.stderr[-2000:]
        data = json.loads(result.stdout)
        assert (data["game"], data["sigma"], data["mast"]) == (None, "3", "5")

    def test_text_prints_one_line_note(self):
        result = run_limited("-m", "bipartite_influence", "thermo",
                             "--segments", segments_of(7, 12))
        assert result.returncode == EXIT_OK, result.stderr[-2000:]
        game, values = result.stdout.splitlines()
        assert game.startswith("game: not printed") and "36211430853 characters" in game
        assert values == "temperature = 2, mean = 6"

    def test_repr_stays_short(self):
        result = run_limited("-c", "from bipartite_influence.segments import segment_union_tree; "
                             f"print(repr(segment_union_tree([{segments_of(7, 10)}])))")
        assert result.returncode == EXIT_OK, result.stderr[-2000:]
        line = result.stdout.strip()
        assert line.startswith("Game(#") and "759452185 characters" in line


class TestUnionCapacity:
    """A ``--segment``, ``--segments`` or ``--sum-a/--sum-b`` union holds
    at most 128 vertices."""

    def test_full_union_solves(self, capsys):
        rc, out, _ = run(capsys, "solve", "--json", "--segments", segments_of(2, 64))
        assert rc == EXIT_OK
        data = json.loads(out)
        assert (data["ls"], data["rs"]) == (0, 0)

    def test_full_union_cools(self):
        result = run_limited("-m", "bipartite_influence", "thermo", "--json",
                             "--segments", segments_of(2, 64))
        assert result.returncode == EXIT_OK, result.stderr[-2000:]
        data = json.loads(result.stdout)
        assert (data["game"], data["sigma"], data["mast"]) == ("0", "0", "0")

    @pytest.mark.parametrize("argv", [
        ["solve", "--segments"],
        ["thermo", "--segments"],
        ["equiv", "--sum-a", "2", "--sum-b"],
    ], ids=["solve", "thermo", "equiv"])
    @pytest.mark.parametrize("parts", ["2," * 1200, "64,-65", "129"])
    def test_larger_union_rejected(self, capsys, argv, parts):
        rc, out, err = run(capsys, *argv, parts)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "capacity is 128" in err

    @pytest.mark.parametrize("n", ["129", "-129"])
    def test_larger_segment_rejected(self, capsys, n):
        rc, out, err = run(capsys, "thermo", "--segment", n)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "capacity is 128" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--segments", "0"],
    ["thermo", "--segments", "0"],
    ["thermo", "--raw", "--segments", "0"],
    ["equiv", "--sum-a", "0", "--sum-b", "2"],
    ["solve", "--segment", "0"],
    ["audit", "--segment", "0"],
    ["symmetry", "--segment", "0"],
], ids=["solve", "thermo", "thermo-raw", "equiv", "solve-segment", "audit-segment",
        "symmetry-segment"])
def test_a_zero_part_is_one_input_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (EXIT_INPUT, "", "error: segment parts must be nonzero\n")


# Edge and malformed values for every flag.  Boards stay tiny so that the
# whole fuzz run takes about a second.
_SOURCES = {
    "--segment": ["0", "1", "-1", "3", "-6", "x", ""],
    "--segments": ["", ",", "0", "3,", "2,-3", "a,b", "1,1,1"],
    "--grid": ["0x3", "1x1", "2x3", "3x3", "-2x3", "2x", "x", "RxC", "2x3x4", ""],
    "--cylinder": ["4x1", "4x2", "3x2", "0x0", "-4x2"],
    "--torus": ["4x4", "3x4", "4x-4", "2x2"],
    "--hypercube": ["-1", "0", "1", "3", "21", "99", "x"],
    "--file": ["missing.json", "bad.json", "empty.json", "null.json", "good.json"],
}
_FILES = {
    "bad.json": "{not json",
    "empty.json": "",
    "null.json": "null",
    "good.json": '{"vertices": [{"id": 0, "color": "B"}, {"id": 1, "color": "W"}], '
                 '"edges": [[0, 1]]}',
    "empty.cnf": "",
    "one.cnf": "1 2 0\n",
    "header.cnf": "p cnf 2 2\n1 0\n2 0\n",
    "negative.cnf": "1 -2 0\n",
    "open.cnf": "1 2\n",
    "zero.cnf": "0\n",
    "words.cnf": "x y 0\n",
    "cfg": "node_budget = 1\n",
    "badcfg": "just words\n",
}
_NUMBERS = ["-5", "-1", "0", "1", "2", "x", "", str(10**30)]
_GAMES = ["", "0", "5", "<|>", "<1|0>", "<1/0|0>", "<5|<-1|-5>>", "<", "0|", "<<|>|>"]
_LISTS = ["", ",", "0", "3", "2,-3", "5,5", "a", segments_of(3, 43)]
_PERIODS = [("0", "0"), ("1", "-1"), ("2", "0"), ("-2", "3"), ("40", "30"), ("x", "1")]


def _fuzz_argv(rng, tmp_path):
    """One random command line: mostly well-shaped with edge values in it,
    sometimes with flags missing, doubled or in conflict."""
    def path(name):
        return str(tmp_path / name)

    def pick(*options):
        """One option most of the time, otherwise none or two."""
        n = rng.choice([1, 1, 1, 1, 0, 2])
        return [x for opt in rng.sample(options, min(n, len(options))) for x in opt()]

    def flag(name, values):
        return lambda: [name, rng.choice(values)]

    def maybe(name, values):
        return [name, rng.choice(values)] if rng.random() < 0.5 else []

    def switch(name):
        return [name] if rng.random() < 0.5 else []

    def source():
        return pick(*(flag(name, [path(v) for v in values] if name == "--file" else values)
                      for name, values in _SOURCES.items()))

    command = rng.choice(["solve", "table", "thermo", "equiv", "symmetry",
                          "reduce", "audit"])
    argv = [command]
    if command == "solve":
        argv += source() + maybe("--node-budget", _NUMBERS)
        argv += switch("--no-prune") + switch("--json")
    elif command == "table":
        argv += pick(flag("--max", ["-3", "0", "1", "12", "x", ""]))
        argv += rng.choice([["--no-cache"], ["--cache-dir", path("cache")],
                            ["--cache-dir", path("one.cnf")]])
        if rng.random() < 0.5:
            argv += ["--check-period", *rng.choice(_PERIODS)]
        argv += maybe("--out", [path("out.csv"), str(tmp_path)])
    elif command == "thermo":
        argv += pick(flag("--segment", ["0", "1", "-4", "7", "x"]),
                     flag("--segments", _LISTS), flag("--game", _GAMES))
        argv += switch("--raw") + switch("--json")
        argv += maybe("--csv", [path("t.csv"), str(tmp_path)])
    elif command == "equiv":
        if rng.random() < 0.2:
            argv += [x for _ in range(rng.randint(1, 3))
                     for x in (rng.choice(("--sum-a", "--sum-b")), rng.choice(_LISTS))]
        else:
            argv += pick(flag("--sum-a", _LISTS), flag("--game-a", _GAMES))
            argv += pick(flag("--sum-b", _LISTS), flag("--game-b", _GAMES))
        argv += maybe("--offset-a", _NUMBERS) + maybe("--offset-b", _NUMBERS)
        argv += switch("--json")
    elif command == "symmetry":
        argv += source() + maybe("--budget", _NUMBERS)
        argv += maybe("--solve-limit", _NUMBERS) + switch("--json")
    elif command == "reduce":
        cnfs = [path(name) for name in _FILES if name.endswith(".cnf")]
        argv += pick(flag("--cnf", cnfs + [path("missing.cnf")]))
        argv += maybe("--out", [path("r.json"), str(tmp_path)]) + switch("--check")
    else:
        argv += source() + maybe("--depth", ["-1", "0", "1", "2", "x"]) + switch("--json")
    if rng.random() < 0.1:
        argv = ["--config", path(rng.choice(["cfg", "badcfg", "missing"]))] + argv
    return argv


def test_fuzz_every_subcommand_exits_with_a_contract_code(capsys, tmp_path):
    import random

    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    rng = random.Random(2022)
    for _ in range(300):
        argv = _fuzz_argv(rng, tmp_path)
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code
        capsys.readouterr()
        assert rc in (EXIT_OK, 1, EXIT_INPUT, EXIT_BUDGET), argv
