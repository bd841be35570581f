"""Flat-file formats and the command line front end."""

import json
import random

import pytest

from hyperchrom import (
    GeneratorParams,
    Hypergraph,
    degree_stats,
    near_pencil,
    projective_plane,
    random_bounded_codegree,
    t_fold,
)
from hyperchrom import cli
from hyperchrom.cli import build_parser, format_hg, main, parse_hg
from tests._naive import naive_validate
from tests.conftest import fresh_process, make_corpus, perturbed_plane


def _write(tmp_path, name, h):
    path = tmp_path / name
    path.write_text(format_hg(h))
    return str(path)


def _report(capsys):
    return json.loads(capsys.readouterr().out)


class TestParseHg:
    def test_triangle(self):
        assert parse_hg("3 3\n0 1\n1 2\n0 2") == Hypergraph(3, [(0, 1), (1, 2), (0, 2)])

    def test_fano_profile(self, fano):
        text = format_hg(fano)
        h = parse_hg(text)
        stats = degree_stats(h)
        assert h.n == 7 and h.m == 7
        assert stats.max_degree == 3
        assert all(d == 3 for d in stats.degree)
        assert stats.max_codegree == 1
        assert all(len(e) == 3 for e in h.edges)

    def test_missing_edge_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_hg("2 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="line 2.*vertex 3"):
            parse_hg("3 1\n0 3")

    def test_extra_edge_lines(self):
        with pytest.raises(ValueError, match="line 3.*declared"):
            parse_hg("2 1\n0 1\n0 1")

    def test_comments_and_blanks_ignored(self):
        text = "# instance\n\n3 2  # header\n0 1\n\n# tail\n1 2\n"
        assert parse_hg(text) == Hypergraph(3, [(0, 1), (1, 2)])

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_hg("3\n0 1")
        with pytest.raises(ValueError, match="two integers"):
            parse_hg("three 3\n0 1")
        with pytest.raises(ValueError, match="header"):
            parse_hg("")

    def test_non_integer_vertex(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_hg("3 1\na b")

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("3 1\na b", "line 2: vertex ids must be integers", id="letters"),
            pytest.param("3 1\n0 x 2", "line 2: vertex ids must be integers", id="letter-middle"),
            pytest.param("3 1\n0 1.5", "line 2: vertex ids must be integers", id="decimal"),
            pytest.param("3 2\n0 1\n-1 2", "line 3: vertex -1 outside 0..2", id="negative-first"),
            pytest.param("3 1\n0 -2 1", "line 2: vertex -2 outside 0..2", id="negative-middle"),
            pytest.param("3 1\n5 1 2", "line 2: vertex 5 outside 0..2", id="large-first"),
            pytest.param("3 1\n0 7 1", "line 2: vertex 7 outside 0..2", id="large-middle"),
            pytest.param("3 1\n0 1 3", "line 2: vertex 3 outside 0..2", id="large-last"),
            pytest.param("3 2\n0 1\n2 9 4", "line 3: vertex 9 outside 0..2", id="two-out"),
            pytest.param("4 1\n3 -1 9", "line 2: vertex -1 outside 0..3", id="both-sides"),
            pytest.param("0 1\n0", "line 2: vertex 0 outside 0..-1", id="no-vertices"),
            # the first bad line in file order decides the message
            pytest.param("3 2\n0 5\n0 x", "line 2: vertex 5 outside 0..2", id="range-then-letter"),
            pytest.param("3 2\n0 x\n0 5", "line 2: vertex ids must be integers", id="letter-then-range"),
            pytest.param("3 3\n0 1\n2 -4\n7 0", "line 3: vertex -4 outside 0..2", id="two-lines-out"),
        ],
    )
    def test_bad_vertex_messages(self, text, message):
        # the line number and the first vertex out of range, whatever its place
        with pytest.raises(ValueError) as err:
            parse_hg(text)
        assert str(err.value) == message

    def test_round_trip_corpus(self):
        for h, _t in make_corpus(12, base_seed=77):
            assert parse_hg(format_hg(h)) == h

    def test_duplicate_edges_preserved(self):
        h = parse_hg("3 2\n0 1\n0 1")
        assert h.m == 2 and h.edges[0] == h.edges[1]


class TestGen:
    def test_plane_to_stdout(self, capsys, fano):
        assert main(["gen", "--family", "plane", "--q", "2"]) == 0
        h = parse_hg(capsys.readouterr().out)
        assert h.n == 7 and h.m == 7
        assert degree_stats(h).max_codegree == 1

    def test_pencil_to_file(self, tmp_path, capsys):
        out = tmp_path / "np5.hg"
        assert main(["gen", "--family", "pencil", "--n", "5", "--out", str(out)]) == 0
        rep = _report(capsys)
        assert rep["command"] == "gen" and rep["outcome"] == "ok"
        assert rep["certificates"] == {"n": 5, "m": 5}
        assert parse_hg(out.read_text()) == near_pencil(5)

    def test_fold(self, capsys):
        assert main(["gen", "--family", "plane", "--q", "2", "--fold", "2"]) == 0
        h = parse_hg(capsys.readouterr().out)
        assert h == t_fold(projective_plane(2), 2)

    def test_random_deterministic(self, capsys):
        args = ["gen", "--family", "random", "--n", "9", "--t", "2", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_plane_order_one_is_usage_error(self, capsys):
        assert main(["gen", "--family", "plane", "--q", "1"]) == 2
        assert "near_pencil" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["gen", "--family", "plane"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("fold", ["0", "-2"])
    def test_fold_below_one_is_usage_error(self, capsys, fold):
        assert main(["gen", "--family", "plane", "--q", "2", "--fold", fold]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--fold" in captured.err


class TestOrder:
    def test_reorder_report(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["order", "--in", path, "--t", "1"]) == 0
        rep = _report(capsys)
        assert rep["command"] == "order"
        certs = rep["certificates"]
        assert certs["case"] == "B"
        assert certs["e_star"] == 6
        assert sorted(certs["ordering"]) == list(range(7))
        assert set(certs["forward_degrees"]) == {str(e) for e in range(7)}

    def test_report_is_one_compact_line(self, tmp_path, capsys):
        # sorted keys, no indentation, and int-keyed maps in numeric order
        h = Hypergraph(24, [(2 * i, 2 * i + 1) for i in range(12)])
        path = _write(tmp_path, "matching.hg", h)
        assert main(["order", "--in", path, "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert ": " not in out and ", " not in out
        rep = json.loads(out)
        assert list(rep) == sorted(rep)
        assert list(rep["certificates"]["forward_degrees"]) == [str(e) for e in range(12)]
        assert rep["certificates"]["bound"] == "12"  # Fractions print as strings

    def test_stability_partition_report(self, tmp_path, capsys):
        h = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
        path = _write(tmp_path, "disjoint.hg", h)
        assert main(["order", "--in", path, "--t", "1", "--partition", "stability"]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "ok"
        assert set(rep["certificates"]["parts"]) == {"H1", "H2", "W"}
        assert all(rep["certificates"]["property_flags"].values())

    def test_stability_partition_keeps_sigma(self, tmp_path, capsys):
        h = random_bounded_codegree(
            GeneratorParams(seed=0, n=8, t=1, size_range=(2, 6), density=16)
        )
        path = _write(tmp_path, "random.hg", h)
        args = ["order", "--in", path, "--t", "1", "--partition", "stability"]
        reports = []
        for extra in ([], ["--sigma", "1/50"]):
            assert main(args + extra) == 0
            rep = _report(capsys)
            del rep["wall_time_ms"]
            reports.append(rep)
        assert reports[0] == reports[1]
        assert reports[1]["parameters"]["sigma"] == "1/50"

    def test_extremal_partition_report(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(
            ["order", "--in", path, "--t", "1", "--partition", "extremal", "--r0", "2"]
        ) == 0
        rep = _report(capsys)
        assert set(rep["certificates"]["parts"]) == {"H1", "H2", "H3"}

    def test_missing_file(self, capsys):
        assert main(["order", "--in", "/nonexistent.hg", "--t", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestColor:
    def test_two_fold_fano_fourteen(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano2.hg", t_fold(fano, 2))
        code = main(
            ["color", "--in", path, "--t", "2", "--lists", "uniform:14", "--mode", "pipeline"]
        )
        rep = _report(capsys)
        assert code == 0
        assert rep["colours_used"] == 14
        assert len(rep["outcome"]["colouring"]) == 14

    def test_not_colourable_exit_one(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        code = main(["color", "--in", path, "--t", "1", "--lists", "uniform:6"])
        rep = _report(capsys)
        assert code == 1
        assert rep["outcome"]["stage"] == "exact"
        assert rep["colours_used"] is None

    def test_deterministic_reports(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        args = ["color", "--in", path, "--t", "1", "--lists", "uniform:7", "--seed", "3"]
        assert main(args) == 0
        first = _report(capsys)
        assert main(args) == 0
        second = _report(capsys)
        assert first["input_digest"] == second["input_digest"]
        assert first["outcome"] == second["outcome"]
        assert first["colours_used"] == second["colours_used"]

    @pytest.mark.parametrize("flag", [["--sigma", "1/50"], ["--eps", "1/4"]])
    def test_stability_knobs_are_usage_errors(self, tmp_path, capsys, fano, flag):
        path = _write(tmp_path, "fano.hg", fano)
        args = ["color", "--in", path, "--t", "1", "--lists", "uniform:7", *flag]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_pipeline_report_is_one_script(self, tmp_path, capsys):
        # not intersecting, so the staged script runs
        h = random_bounded_codegree(
            GeneratorParams(seed=0, n=8, t=1, size_range=(2, 6), density=16)
        )
        path = _write(tmp_path, "random.hg", h)
        assert main(["color", "--in", path, "--t", "1", "--lists", "uniform:11"]) == 0
        rep = _report(capsys)
        assert not {"eps", "sigma"} & set(rep["parameters"])
        stages = [s["stage"] for s in rep["certificates"]["stages"]]
        assert stages[-1] == "main:validate"
        assert not any(name.startswith("stability:") for name in stages)

    def test_extremal_mode(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        code = main(
            ["color", "--in", path, "--t", "1", "--lists", "uniform:7", "--mode", "extremal"]
        )
        rep = _report(capsys)
        assert code == 0
        assert rep["colours_used"] == 7
        assert rep["certificates"]["report"]["rung"].startswith("2:")

    def test_extremal_mode_rejects_non_positive_t(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        for t in ("0", "-2"):
            args = ["color", "--in", path, "--t", t, "--lists", "uniform:7", "--mode", "extremal"]
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "t must be positive" in captured.err

    @pytest.mark.parametrize("command", ["color", "exact"])
    @pytest.mark.parametrize("spec", ["uniform:-3", "uniform:abc", "uniform:", "uniform:2.5"])
    def test_bad_uniform_lists_are_usage_errors(self, tmp_path, capsys, fano, command, spec):
        path = _write(tmp_path, "fano.hg", fano)
        args = [command, "--in", path, "--lists", spec]
        assert main(args + (["--t", "1"] if command == "color" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lists {spec!r}: K must be a non-negative integer\n"

    @pytest.mark.parametrize("command", ["color", "exact"])
    def test_uniform_zero_is_empty_lists(self, tmp_path, capsys, fano, command):
        path = _write(tmp_path, "fano.hg", fano)
        args = [command, "--in", path, "--lists", "uniform:0"]
        assert main(args + (["--t", "1"] if command == "color" else [])) == 1
        assert _report(capsys)["colours_used"] is None

    @pytest.mark.parametrize("mode", ["pipeline", "extremal"])
    def test_exact_no_reports_the_hall_violator(self, tmp_path, capsys, star_beside_edge, mode):
        path = _write(tmp_path, "star.hg", star_beside_edge)
        args = ["color", "--in", path, "--t", "1", "--lists", "uniform:2", "--mode", mode]
        assert main(args) == 1
        assert _report(capsys)["outcome"]["detail"] == "Hall violator: 3 edges, 2 colours"

    @pytest.mark.parametrize("mode", ["pipeline", "extremal"])
    def test_negative_exact_budget_is_a_usage_error(self, tmp_path, capsys, fano, mode):
        path = _write(tmp_path, "fano.hg", fano)
        args = ["color", "--in", path, "--t", "1", "--lists", "uniform:7", "--mode", mode]
        assert main([*args, "--exact-budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--exact-budget: must be a non-negative integer" in captured.err

    def test_intersecting_two_fold_plane_coloured(self, tmp_path, capsys):
        # every two lines of a t-fold plane meet: one matching colours it
        h = t_fold(projective_plane(4), 2)
        path = _write(tmp_path, "p4.hg", h)
        assert main(["color", "--in", path, "--t", "2", "--lists", "uniform:42"]) == 0
        rep = _report(capsys)
        assert rep["colours_used"] == 42
        assert rep["certificates"]["stages"] == [
            {
                "type": "StageRecord",
                "stage": "exact",
                "status": "ok",
                "detail": "intersecting: distinct representatives",
                "colours_used": 42,
                "seed": None,
            }
        ]

    def test_lists_file(self, tmp_path, capsys, triangle):
        path = _write(tmp_path, "tri.hg", triangle)
        lists = tmp_path / "lists.txt"
        lists.write_text("# one line per edge\n1 2 3\n1 2 3\n1 2 3\n")
        code = main(["color", "--in", path, "--t", "1", "--lists", str(lists)])
        rep = _report(capsys)
        assert code == 0
        assert set(map(int, rep["outcome"]["colouring"].values())) <= {1, 2, 3}

    def test_per_edge_lists_file_with_sparse_ids(self, tmp_path, capsys):
        # colour_main on a lists file whose colours are negative, sparse and
        # large; the small edges alone skip the reserve, whose per-edge window
        # such lists rarely meet at this size
        for seed in range(6):
            rng = random.Random(seed)
            n, t = rng.randint(12, 30), rng.randint(1, 2)
            h = random_bounded_codegree(
                GeneratorParams(seed=seed, n=n, t=t, size_range=(2, 4), density=2 * n)
            )
            k = t * n
            pool = [-10**6, *range(-k, 0, 3), *range(0, 2 * k * 97, 97), 10**6, 2**70]
            lists = {e: rng.sample(pool, k) for e in range(h.m)}
            path = _write(tmp_path, f"r{seed}.hg", h)
            lists_path = tmp_path / f"l{seed}.txt"
            lists_path.write_text("".join(" ".join(map(str, lists[e])) + "\n" for e in range(h.m)))
            args = ["color", "--in", path, "--t", str(t), "--lists", str(lists_path)]
            assert main(args) == 0
            rep = _report(capsys)
            col = {int(e): int(c) for e, c in rep["outcome"]["colouring"].items()}
            assert naive_validate(h, col, lists)

    def test_lists_file_wrong_length(self, tmp_path, capsys, triangle):
        path = _write(tmp_path, "tri.hg", triangle)
        lists = tmp_path / "lists.txt"
        lists.write_text("1 2\n1 2\n")
        assert main(["color", "--in", path, "--t", "1", "--lists", str(lists)]) == 2
        assert "one per edge" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["color", "exact"])
    def test_lists_file_non_integer_colour_names_its_line(self, tmp_path, capsys, triangle, command):
        # blank and comment lines count toward the line number, as in .hg files
        path = _write(tmp_path, "tri.hg", triangle)
        lists = tmp_path / "lists.txt"
        lists.write_text("# one line per edge\n1 2 3\n\n1 x 3\n1 2 3\n")
        args = [command, "--in", path, "--lists", str(lists)]
        assert main(args + (["--t", "1"] if command == "color" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lists file line 4: colours must be integers\n"


class TestExact:
    def test_fano_chromatic_index(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "ok"
        assert rep["colours_used"] == 7
        assert rep["certificates"]["chromatic_index"] == 7

    def test_list_no(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path, "--lists", "uniform:6"]) == 1
        rep = _report(capsys)
        assert rep["outcome"] == "no"

    def test_list_yes(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path, "--lists", "uniform:7"]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "yes"
        assert rep["colours_used"] == 7

    def test_budget_refusal(self, tmp_path, capsys, c5):
        path = _write(tmp_path, "c5.hg", c5)
        assert main(["exact", "--in", path, "--budget-edges", "3"]) == 1
        rep = _report(capsys)
        assert rep["outcome"] == "budget"
        cert = rep["certificates"]
        assert cert["type"] == "BudgetExceeded"
        assert (cert["kind"], cert["lower"], cert["upper"]) == ("edges", 2, 3)

    def test_met_bounds_answer_past_the_budget(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path, "--budget-edges", "3"]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "ok"
        assert rep["certificates"]["chromatic_index"] == 7

    def test_time_refusal_reports_bounds(self, tmp_path, capsys, monkeypatch, fano):
        from hyperchrom import _kernel_py

        monkeypatch.setattr(
            _kernel_py,
            "solve_chromatic",
            lambda adj, cap, lower=0, cliques=(): (8, [0] * len(adj), False),
        )
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path, "--time-cap-ms", "50"]) == 1
        rep = _report(capsys)
        assert rep["outcome"] == "budget"
        cert = rep["certificates"]
        assert (cert["kind"], cert["lower"], cert["upper"]) == ("time", 3, 8)


    def test_zero_time_cap_is_usage_error(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path, "--time-cap-ms", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--time-cap-ms" in captured.err

    def test_malformed_env_time_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, fano):
        monkeypatch.setenv("HYPERCHROM_TIME_CAP_MS", "5s")
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "HYPERCHROM_TIME_CAP_MS" in captured.err

    def test_non_positive_env_time_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, fano):
        path = _write(tmp_path, "fano.hg", fano)
        for raw in ("0", "-5"):
            monkeypatch.setenv("HYPERCHROM_TIME_CAP_MS", raw)
            assert main(["exact", "--in", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "HYPERCHROM_TIME_CAP_MS" in captured.err

    def test_env_time_cap_used_without_flag(self, tmp_path, capsys, monkeypatch, fano):
        monkeypatch.setenv("HYPERCHROM_TIME_CAP_MS", "1234")
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["exact", "--in", path]) == 0
        assert _report(capsys)["parameters"]["time_cap_ms"] == 1234


class TestClassify:
    def test_near_pencil(self, tmp_path, capsys):
        path = _write(tmp_path, "np5.hg", near_pencil(5))
        assert main(["classify", "--in", path, "--t", "1"]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "holds"
        assert rep["certificates"]["classification"]["kind"]["type"] == "TFoldNearPencil"

    def test_fano_plane(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["classify", "--in", path]) == 0
        rep = _report(capsys)
        kind = rep["certificates"]["classification"]["kind"]
        assert kind["type"] == "TFoldProjectivePlane" and kind["k"] == 2
        assert rep["certificates"]["debruijn_erdos"]["bound_holds"] is True

    @pytest.mark.parametrize("fold", [1, 2])
    def test_bound_and_classification_computed_once(self, tmp_path, capsys, monkeypatch, fold):
        from hyperchrom import characterize

        calls = {"intersecting_bound": 0, "_classify_extremal": 0}
        for name in calls:
            original = getattr(characterize, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(characterize, name, counted)
        path = _write(tmp_path, "plane.hg", t_fold(projective_plane(3), fold))
        assert main(["classify", "--in", path, "--t", str(fold)]) == 0
        rep = _report(capsys)
        assert rep["certificates"]["classification"]["kind"]["k"] == 3
        # the de Bruijn-Erdos check applies to the linear 1-fold only, and
        # there reuses the classification
        assert rep["certificates"]["debruijn_erdos"]["applies"] is (fold == 1)
        assert calls == {"intersecting_bound": 1, "_classify_extremal": 1}


class TestVerify:
    def test_fano_all_checks(self, tmp_path, capsys, fano):
        path = _write(tmp_path, "fano.hg", fano)
        assert main(["verify", "--in", path, "--t", "1"]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "holds"
        checks = rep["certificates"]["checks"]
        assert [c["name"] for c in checks] == [
            "hg-round-trip",
            "volume-vs-codegree",
            "dual-dual-isomorphic",
            "greedy-guarantee",
            "reorder-case-B-O1",
            "edge-count-bound",
            "chromatic-index-bounds",
        ]
        assert all(c["status"] in ("ok", "skipped") for c in checks)

    def test_corpus_instance(self, tmp_path, capsys):
        h, t = make_corpus(1, base_seed=4242)[0]
        path = _write(tmp_path, "rand.hg", h)
        assert main(["verify", "--in", path, "--t", str(t)]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == "holds"

    def test_bad_env_time_cap_is_usage_error_at_any_size(self, tmp_path, capsys, monkeypatch):
        # PG(2,4) has 21 edges, more than the oracle check ever takes
        big = _write(tmp_path, "pg4.hg", projective_plane(4))
        one = _write(tmp_path, "one.hg", Hypergraph(3, [(0, 1, 2)]))
        for raw in ("abc", "0", "-5"):
            monkeypatch.setenv("HYPERCHROM_TIME_CAP_MS", raw)
            for path in (big, one):
                assert main(["verify", "--in", path, "--t", "1"]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "HYPERCHROM_TIME_CAP_MS" in captured.err

    def test_good_env_time_cap_on_large_instance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCHROM_TIME_CAP_MS", "1234")
        path = _write(tmp_path, "pg4.hg", projective_plane(4))
        assert main(["verify", "--in", path, "--t", "1"]) == 0
        assert _report(capsys)["outcome"] == "holds"


class TestSweep:
    def test_small_sweep(self, capsys):
        assert main(["sweep", "--count", "4", "--seed", "1"]) == 0
        rep = _report(capsys)
        assert rep["outcome"]["invalid"] == 0
        rows = rep["certificates"]["rows"]
        assert len(rows) == 4
        assert [r["index"] for r in rows] == [0, 1, 2, 3]
        assert all(r["status"] in ("ok", "failed") for r in rows)

    def test_process_pool_gives_the_same_rows(self, capsys):
        assert main(["sweep", "--count", "4", "--seed", "3", "--jobs", "1"]) == 0
        serial = _report(capsys)
        assert main(["sweep", "--count", "4", "--seed", "3", "--jobs", "2"]) == 0
        pooled = _report(capsys)
        assert pooled["parameters"]["jobs"] == 2
        assert pooled["certificates"]["rows"] == serial["certificates"]["rows"]
        assert pooled["outcome"] == serial["outcome"]

    @pytest.mark.parametrize("count", ["-1", "-7", "x"])
    def test_negative_count_is_usage_error(self, capsys, count):
        assert main(["sweep", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--count" in captured.err

    def test_zero_count_is_an_empty_sweep(self, capsys):
        assert main(["sweep", "--count", "0"]) == 0
        rep = _report(capsys)
        assert rep["outcome"] == {"ok": 0, "failed": 0, "invalid": 0}
        assert rep["certificates"]["rows"] == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        assert main(["sweep", "--count", "2", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--jobs" in captured.err

    def test_sweep_deterministic(self, capsys):
        assert main(["sweep", "--count", "3", "--seed", "9"]) == 0
        first = _report(capsys)
        assert main(["sweep", "--count", "3", "--seed", "9"]) == 0
        second = _report(capsys)
        assert first["certificates"]["rows"] == second["certificates"]["rows"]


class TestExitContract:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("3 1\n0 9\n")
        assert main(["exact", "--in", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestRepeatedCalls:
    """``main`` shares one parser across the calls of a process."""

    def _run(self, argvs, capsys):
        out = []
        for argv in argvs:
            code = main(argv)
            got = capsys.readouterr()
            try:
                report = json.loads(got.out)
                report.pop("wall_time_ms")
            except ValueError:  # usage errors, --help and gen to stdout print no report
                report = got.out
            out.append((code, report, got.err))
        return out

    def test_shared_parser_reports_match_fresh_parsers(
        self, tmp_path, capsys, monkeypatch, fano, c5
    ):
        plane = _write(tmp_path, "fano2.hg", t_fold(fano, 2))
        pencil = _write(tmp_path, "pencil.hg", near_pencil(6))
        cycle = _write(tmp_path, "c5.hg", c5)
        argvs = [
            ["classify", "--in", plane, "--t", "2"],
            ["color", "--in", plane, "--t", "2", "--lists", "uniform:14"],
            ["color", "--in", pencil, "--t", "1"],  # no --lists: usage error
            ["color", "--in", pencil, "--t", "1", "--lists", "uniform:6", "--mode", "extremal"],
            ["gen", "--family", "pencil", "--n", "5"],
            ["exact", "--in", cycle, "--budget-edges", "3"],
            ["order", "--in", plane, "--t", "2", "--partition", "stability"],
            ["classify", "--in", pencil],
            ["exact", "--in", plane, "--lists", "uniform:13", "--time-cap-ms", "0"],
            ["verify", "--in", pencil],
            ["sweep", "--count", "2", "--seed", "4"],
            ["--help"],
        ]
        shared = self._run(argvs, capsys)
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = self._run(argvs, capsys)
        assert shared == fresh
        assert [code for code, _out, _err in shared] == [0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0, 0]
        assert "the following arguments are required: --lists" in shared[2][2]

    def test_one_parser_per_process(self, capsys):
        assert build_parser() is build_parser()
        misses = build_parser.cache_info().misses
        for _ in range(2):
            # each usage message reaches the stream current at the call
            assert main(["classify"]) == 2
            assert "--in" in capsys.readouterr().err
        assert build_parser.cache_info().misses == misses

    def test_import_loads_no_process_pool(self):
        probe = (
            "import sys, hyperchrom.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
            " or m == 'concurrent.futures.process'))"
        )
        assert fresh_process(probe) == "[]"


class TestImports:
    """A CLI call loads only the modules its subcommand runs."""

    def test_import_loads_parsing_and_reporting_only(self):
        probe = (
            "import sys, hyperchrom.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('hyperchrom'))))"
        )
        assert fresh_process(probe) == "hyperchrom hyperchrom.cli hyperchrom.hypercore"

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["exact", "--in", "{hg}"], "_kernel_py oracle"),
            (["exact", "--in", "{hg}", "--lists", "uniform:3"], "_kernel_py oracle"),
            (["classify", "--in", "{hg}"], "characterize"),
            (["gen", "--family", "pencil", "--n", "4"], "generators"),
            (["order", "--in", "{hg}", "--t", "1"], "exactarith ordering"),
            (["order", "--in", "{hg}", "--t", "1", "--partition", "stability"], "exactarith ordering"),
            (["order", "--in", "{hg}", "--t", "1", "--partition", "extremal"], "exactarith ordering"),
            (["color", "--in", "{hg}", "--t", "1", "--lists", "uniform:3"], "exactarith ordering pipeline"),
            # the 2-fold PG(2,4) plus the edge (0,): its lines reach H3, which
            # the main script colours greedily; it fails at the default r0,
            # with ``exact`` skipped, and colours at r0 = 4
            (["color", "--in", "{pp}", "--t", "2", "--lists", "uniform:42"], "exactarith ordering pipeline"),
            (
                ["color", "--in", "{pp}", "--t", "2", "--lists", "uniform:42", "--r0", "4"],
                "exactarith ordering pipeline",
            ),
            (
                ["color", "--in", "{hg}", "--t", "1", "--lists", "uniform:3", "--mode", "extremal"],
                "_matching exactarith extremal",
            ),
        ],
        ids=[
            "exact",
            "exact-lists",
            "classify",
            "gen",
            "order",
            "order-stability",
            "order-extremal",
            "color",
            "color-h3",
            "color-h3-r0-4",
            "color-extremal",
        ],
    )
    def test_subcommand_loads_only_its_modules(self, tmp_path, triangle, argv, loaded):
        hg = _write(tmp_path, "tri.hg", triangle)
        pp = _write(tmp_path, "pp.hg", perturbed_plane("pt", 4, 2))
        probe = (
            "import contextlib, io, sys\n"
            "from hyperchrom.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(sys.argv[1:])\n"
            "print(' '.join(sorted(m.split('.', 1)[1] for m in set(sys.modules) - before"
            " if m.startswith('hyperchrom.'))))"
        )
        assert fresh_process(probe, *(a.format(hg=hg, pp=pp) for a in argv)) == loaded
