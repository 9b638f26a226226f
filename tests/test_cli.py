import json
import os
import subprocess
import sys
import time

import pytest

import knotforge._fastdet
import knotforge.cli
import knotforge.twisted
from knotforge.cli import (DomainError, KnotTable, RunReport, default_table,
                           main, resolve_knot, user_table_path)
from knotforge.diagram import PDCode, parse_pd
from knotforge.presentation import wirtinger
from knotforge.reps import RepSearchConfig, enumerate_sl2, rep_to_json

from support import bundled_table_path

GOOD_TABLE = (
    "# test provenance line\n"
    "name,pd\n"
    "3_1,\"X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]\"\n"
    "4_1,\"X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]\"\n"
)
# PD codes that are no diagram: each crossing must be four int labels.  The
# JSON ones ended in a TypeError traceback, or int() read them as a trefoil
MALFORMED_PDS = [
    "X[1,2,3]",
    "[1,2]",
    "[null]",
    "[[6,3,1,4],[2,5,3,6],[4,1,5,2.9]]",
    "[[6,3,true,4],[2,5,3,6],[4,true,5,2]]",
    '[[6,3,1,4],[2,5,3,6],[4,1,5,"2"]]',
    '[[6,3,1,4],[2,5,3,6],"4152"]',
    "[[6,3,1,4],[2,5,3,6],[4,1,5,2]",
    "[1,",
    "X[1,3,2,4] X[3,1,4,2]",
]
MALFORMED_IDS = ["short-crossing", "number", "null", "float-label",
                 "bool-label", "string-label", "string-crossing",
                 "unclosed-json", "truncated-json", "two-components"]


@pytest.fixture(autouse=True)
def cold_alexander_memo():
    """Each command starts from freshly parsed tables, so that no diagram
    it reads keeps an Alexander determinant, invariant factors or a
    presentation from the tests that ran before it."""
    knotforge.cli._parse_table.cache_clear()


@pytest.fixture
def isolated_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("KNOTFORGE_TABLE", raising=False)
    return tmp_path


class TestKnotTable:
    def test_parse_and_provenance(self):
        table = KnotTable.parse(GOOD_TABLE)
        assert len(table) == 2
        assert "3_1" in table
        assert table.provenance == "test provenance line"

    def test_duplicate_name_reports_both_lines(self):
        text = GOOD_TABLE + "3_1,\"X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]\"\n"
        with pytest.raises(DomainError) as exc:
            KnotTable.parse(text, origin="dup.csv")
        msg = str(exc.value)
        assert "dup.csv:5" in msg and "line 3" in msg

    def test_bad_header(self):
        with pytest.raises(DomainError) as exc:
            KnotTable.parse("knot,code\nfoo,bar\n", origin="h.csv")
        assert "h.csv:1" in str(exc.value)

    @pytest.mark.parametrize("pd", MALFORMED_PDS, ids=MALFORMED_IDS)
    def test_invalid_pd_reports_line(self, pd):
        text = "name,pd\nbad,\"%s\"\n" % pd.replace('"', '""')
        with pytest.raises(DomainError) as exc:
            KnotTable.parse(text, origin="t.csv")
        assert "t.csv:2" in str(exc.value)

    def test_wrong_column_count(self):
        with pytest.raises(DomainError) as exc:
            KnotTable.parse("name,pd\nonlyname\n", origin="c.csv")
        assert "c.csv:2" in str(exc.value)

    def test_empty_table(self):
        table = KnotTable.parse("")
        assert len(table) == 0

    def test_unknown_name_lists_available(self):
        table = KnotTable.parse(GOOD_TABLE)
        with pytest.raises(DomainError) as exc:
            table["9_99"]
        assert "3_1" in str(exc.value)

    def test_bundled_table_loads(self):
        table = KnotTable.parse(bundled_table_path().read_text(),
                                origin="bundled")
        for name in ("3_1", "4_1", "6_1", "8_10", "8_20", "9_1", "9_24",
                     "10_99", "10_137", "10_140", "11a_201"):
            assert name in table
        assert len(table) == 11


class TestResolveKnot:
    def test_unknot(self):
        table = KnotTable.parse(GOOD_TABLE)
        assert resolve_knot("unknot", table) == PDCode([])

    def test_inline_pd(self):
        table = KnotTable.parse(GOOD_TABLE)
        pd = resolve_knot("X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]", table)
        assert pd.n == 3

    @pytest.mark.parametrize("pd", MALFORMED_PDS, ids=MALFORMED_IDS)
    def test_inline_pd_malformed(self, capsys, isolated_home, pd):
        table = KnotTable.parse(GOOD_TABLE)
        with pytest.raises(DomainError):
            resolve_knot(pd, table)
        assert main(["alex", pd]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed PD code: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_named(self):
        table = KnotTable.parse(GOOD_TABLE)
        assert resolve_knot("4_1", table).n == 4


class TestRunReport:
    def test_json_round_trip_byte_identical(self):
        report = RunReport(command=["knotforge", "alex", "3_1"],
                           inputs={"knot": "3_1", "crossings": 3},
                           results={"alexander": "t^2 - t + 1",
                                    "nested": {"a": [1, 2], "b": None}},
                           timing_ms=1.234)
        text = report.to_json()
        assert RunReport.from_json(text).to_json() == text

    def test_text_rendering(self):
        report = RunReport(command=["knotforge", "alex", "3_1"],
                           inputs={"knot": "3_1"},
                           results={"ok": True, "none": None},
                           timing_ms=0.5)
        text = report.to_text()
        assert "command: knotforge alex 3_1" in text
        assert "ok: true" in text
        assert "none: -" in text


class TestExitCodes:
    def test_success(self, capsys, isolated_home):
        assert main(["alex", "3_1"]) == 0
        out = capsys.readouterr().out
        assert "t^2 - t + 1" in out

    def test_domain_error(self, capsys, isolated_home):
        assert main(["alex", "no_such_knot"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error(self, isolated_home):
        with pytest.raises(SystemExit) as exc:
            main(["alex"])  # missing knot argument
        assert exc.value.code == 2

    def test_budget_error(self, capsys, isolated_home):
        assert main(["talex", "4_1", "--p", "5", "--enumerate",
                     "--max-nodes", "1"]) == 3
        err = capsys.readouterr().err
        assert "budget" in err
        # the progress made: nodes used and the trace value reached
        assert "1 nodes used" in err
        assert "reached trace 0 of 0..4" in err

    def test_obstruct_budget_error(self, capsys, isolated_home):
        # --max-nodes bounds the search over K's classes
        assert main(["obstruct", "11a_201", "--candidate", "6_1", "--p", "7",
                     "--rep", "rho0.json", "--max-nodes", "1"]) == 3
        assert "1 nodes used" in capsys.readouterr().err

    def test_zero_budget_rejected(self, capsys, isolated_home):
        # a budget of 0 is rejected like a negative one, not read as unset
        for budget in ("0", "-5"):
            assert main(["talex", "3_1", "--p", "7", "--enumerate",
                         "--max-nodes", budget]) == 1
            assert "budget must be at least 1" in capsys.readouterr().err

    def test_pencil_past_the_listed_primes(self, capsys, isolated_home,
                                           monkeypatch):
        # with only 2^2 - 1 and 2^3 - 1 listed, the 11-crossing Alexander
        # pencil's Hadamard bound is past their product: an error line
        monkeypatch.setattr(knotforge._fastdet, "_MERSENNE_PRIMES", (3, 7))
        assert main(["alex", "11a_201"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Mersenne" in err
        assert "Traceback" not in err

    def test_memory_error_is_one_error_line(self, capsys, isolated_home,
                                            monkeypatch):
        def exhausted(pd):
            raise MemoryError
        monkeypatch.setattr(knotforge.cli, "classical_alexander", exhausted)
        assert main(["alex", "3_1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n"
        assert captured.out == ""

    def test_obstructed_verdict_is_success(self, capsys, isolated_home):
        assert main(["--json", "obstruct", "4_1", "--candidate", "3_1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]["verdict"] == "obstructed"


class TestCommands:
    def run_json(self, capsys, argv):
        assert main(["--json"] + argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_alex(self, capsys, isolated_home):
        data = self.run_json(capsys, ["alex", "4_1", "--det", "--ideal", "2"])
        res = data["results"]
        assert res["alexander"] == "t^2 - 3*t + 1"
        assert res["determinant"] == 5
        assert res["alexander_2"] == "1"

    def test_alex_det_builds_one_presentation(self, capsys, isolated_home,
                                              monkeypatch):
        calls = []

        def counted(pd):
            calls.append(pd)
            return wirtinger(pd)
        monkeypatch.setattr(knotforge.twisted, "wirtinger", counted)
        data = self.run_json(capsys, ["alex", "6_1", "--det"])
        assert data["results"]["determinant"] == 9
        assert len(calls) == 1

    def test_alex_ideals_run_one_smith_form(self, capsys, isolated_home,
                                            monkeypatch):
        # the invariant factors do not depend on k: one Smith form for both
        # ideals, on the one Wirtinger presentation kept on the diagram
        builds, smith = [], []

        def counted(pd):
            builds.append(pd)
            return wirtinger(pd)

        def counted_smith(M):
            smith.append(M)
            return invariants(M)
        invariants = knotforge.twisted._smith_invariants
        monkeypatch.setattr(knotforge.twisted, "wirtinger", counted)
        monkeypatch.setattr(knotforge.twisted, "_smith_invariants",
                            counted_smith)
        data = self.run_json(capsys, ["alex", "6_1", "--det", "--ideal", "2",
                                      "--ideal", "3"])
        res = data["results"]
        assert (res["determinant"], res["alexander_2"],
                res["alexander_3"]) == (9, "1", "1")
        assert len(smith) == 1
        assert len(builds) == 1

    def test_alex_unknot(self, capsys, isolated_home):
        data = self.run_json(capsys, ["alex", "unknot"])
        assert data["results"]["alexander"] == "1"

    def test_talex_trivial(self, capsys, isolated_home):
        data = self.run_json(capsys, ["talex", "3_1", "--p", "5",
                                      "--rep", "trivial"])
        res = data["results"]
        assert res["d"] == 1
        assert not res["is_polynomial"]

    def test_talex_enumerate(self, capsys, isolated_home):
        data = self.run_json(capsys, ["talex", "3_1", "--p", "5",
                                      "--enumerate"])
        res = data["results"]
        assert res["num_reps"] == len(res["polynomials"]) > 0

    def test_jobs_option_is_gone(self, capsys, isolated_home):
        # the process pool was never faster than the serial loop
        with pytest.raises(SystemExit) as exc:
            main(["talex", "3_1", "--p", "5", "--enumerate", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, p, code", [
        (["talex", "3_1", "--rep", "trivial"], 2 ** 61 - 1, 0),
        (["talex", "3_1", "--rep", "trivial"], 2 ** 89 - 1, 1),
        (["symun", "verify", "--partial", "3_1", "--marks", "1,4",
          "--twists", "2"], 2 ** 89 - 1, 1)],
        ids=["talex 2^61-1", "talex 2^89-1", "symun 2^89-1"])
    def test_huge_prime_finishes(self, capsys, isolated_home, argv, p, code):
        # trial division of 2^89 - 1 ran past 10 s; 2^61 - 1 is prime and
        # below 2^64, and 2^89 - 1 is refused before any work (enumerating
        # SL(2, F_p) is still O(p^2), so symun verify runs past 2^64 only)
        t0 = time.monotonic()
        assert main(argv + ["--p", str(p)]) == code
        assert time.monotonic() - t0 < 1.0
        err = capsys.readouterr().err
        assert ("below 2^64" in err) == (code == 1)

    def test_talex_bundled_rep(self, capsys, isolated_home):
        data = self.run_json(capsys, ["talex", "6_1", "--p", "7",
                                      "--rep", "rho0.json"])
        assert data["results"]["degree"] == 0

    def test_symun_build(self, capsys, isolated_home):
        data = self.run_json(capsys, ["symun", "build", "--partial", "3_1",
                                      "--marks", "1,3", "--twists", "2"])
        res = data["results"]
        assert res["union_crossings"] == 8
        assert res["union_alexander"] == "t^4 - 2*t^3 + 3*t^2 - 2*t + 1"
        assert res["partial_alexander"] == "t^2 - t + 1"

    def test_symun_verify(self, capsys, isolated_home):
        data = self.run_json(capsys, ["symun", "verify", "--partial", "3_1",
                                      "--marks", "1,3", "--twists", "2",
                                      "--p", "5", "--trials", "3"])
        res = data["results"]
        assert res["all_identities_hold"]
        assert res["num_reps_checked"] == 3

    def test_symun_twists_with_leading_minus(self, capsys, isolated_home):
        # argparse alone reads "-2,2" as an option and exits 2
        argv = ["symun", "verify", "--partial", "4_1", "--marks", "1,3,5",
                "--p", "7", "--trials", "2"]
        spaced = self.run_json(capsys, argv + ["--twists", "-2,2"])
        joined = self.run_json(capsys, argv + ["--twists=-2,2"])
        assert spaced["inputs"]["twists"] == [-2, 2]
        del spaced["timing_ms"], joined["timing_ms"]
        assert spaced == joined

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_symun_verify_rejects_nonpositive_trials(self, capsys,
                                                     isolated_home, trials):
        assert main(["symun", "verify", "--partial", "3_1", "--marks", "1,3",
                     "--twists", "2", "--p", "5", "--trials", trials]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_symun_verify_rejects_odd(self, capsys, isolated_home):
        assert main(["symun", "verify", "--partial", "3_1", "--marks", "1,3",
                     "--twists", "3", "--p", "5"]) == 1

    def test_obstruct_with_rep(self, capsys, isolated_home):
        data = self.run_json(capsys, ["obstruct",
                                      "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] "
                                      "X[2,5,3,6]",
                                      "--candidate", "unknot"])
        # quick checks already fail (Alexander not a square)
        assert data["results"]["verdict"] == "obstructed"
        assert "quick" in data["results"]["reason"]

    def test_obstruct_rejects_abelian_or_non_sl2_rep(self, capsys,
                                                     isolated_home):
        # K is an even symmetric union with partial 3_1 by construction; the
        # trivial and the abelian reps gave a false "obstructed" (exit 0)
        union = self.run_json(capsys, ["symun", "build", "--partial", "3_1",
                                       "--marks", "1,3", "--twists", "2"])
        argv = ["obstruct", union["results"]["union_pd"], "--candidate",
                "3_1", "--p", "5", "--rep"]
        pres = wirtinger(default_table()["3_1"])
        every = enumerate_sl2(pres, RepSearchConfig(p=5,
                                                    nonabelian_only=False))
        files = []
        for name, rho in (("abelian", every[2]), ("nonabelian", every[-1])):
            files.append(isolated_home / (name + ".json"))
            files[-1].write_text(rep_to_json(rho))
        assert every[2].is_abelian and not every[-1].is_abelian
        for rep in ("trivial", str(files[0])):
            assert main(argv + [rep]) == 1
            captured = capsys.readouterr()
            assert "needs a nonabelian SL(2, F_p) representation" \
                in captured.err
            assert captured.out == ""
        data = self.run_json(capsys, argv + [str(files[1])])
        assert data["results"]["verdict"] == "inconclusive"

    def test_obstruct_rejects_negative_genus(self, capsys, isolated_home):
        # it used to exit 0 with a false "obstructed" (d_genus_even)
        assert main(["obstruct", "11a_201", "--candidate", "6_1",
                     "--genus", "-1"]) == 1
        assert "genus must be non-negative" in capsys.readouterr().err
        data = self.run_json(capsys, ["obstruct", "11a_201", "--candidate",
                                      "6_1", "--genus", "0"])
        assert data["results"]["quick_checks"]["d_genus_even"] is False

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["talex", "3_1", "--p", "5", "--enumerate"],
        ["obstruct", "4_1", "--candidate", "unknot"]])
    def test_jobs_below_one_is_rejected(self, capsys, isolated_home, argv,
                                        jobs):
        # it exited 1; --jobs is no option of any command now, so every
        # value is a usage error
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", jobs])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, arcs", [
        (["obstruct", "11a_201", "--candidate", "6_1", "--p", "7"], 6),
        (["talex", "3_1", "--p", "7"], 3)])
    def test_empty_matrices_are_rejected(self, capsys, isolated_home, argv,
                                         arcs):
        # a rep file of empty matrices, one per arc, was taken as d = 0:
        # obstruct exited 0 with "obstructed" and target 1, talex with
        # polynomial 1 and d 0
        rep = isolated_home / "empty.json"
        rep.write_text(json.dumps({"p": 7, "generators": [[]] * arcs}))
        assert main(argv + ["--rep", str(rep)]) == 1
        captured = capsys.readouterr()
        assert "dimension must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("matrices", [
        [[[0]]] * 3,
        [[[1, 0, 0], [0, 1, 0], [1, 1, 0]]] * 3],
        ids=["1x1 zero", "rank-2 3x3"])
    def test_singular_rep_is_rejected(self, capsys, isolated_home, matrices):
        # a matrix singular mod p ended in a ZeroDivisionError traceback
        rep = isolated_home / "singular.json"
        rep.write_text(json.dumps({"p": 5, "generators": matrices}))
        assert main(["talex", "3_1", "--p", "5", "--rep", str(rep)]) == 1
        err = capsys.readouterr().err
        assert "singular" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, arcs", [
        (["obstruct", "11a_201", "--candidate", "6_1", "--p", "7"], 6),
        (["talex", "3_1", "--p", "7"], 3)])
    def test_rep_with_the_wrong_generator_count(self, capsys, isolated_home,
                                                argv, arcs):
        # the count is checked on the command's presentation, not on reading
        rep = isolated_home / "short.json"
        rep.write_text(json.dumps({"p": 7,
                                   "generators": [[[1]]] * (arcs - 1)}))
        assert main(argv + ["--rep", str(rep)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: matrix count %d does not match the "
                                "generator count %d\n" % (arcs - 1, arcs))
        assert captured.out == ""

    def test_symun_verify_builds_the_template_once(self, capsys,
                                                   isolated_home,
                                                   monkeypatch):
        # cmd_symun built it too, beside the template verify_theorem keeps
        # on the spec
        builds = []
        build = knotforge.presentation.build_symun_presentation
        for module in (knotforge.presentation, knotforge.twisted,
                       knotforge.cli):
            if hasattr(module, "build_symun_presentation"):
                monkeypatch.setattr(module, "build_symun_presentation",
                                    lambda spec: (builds.append(spec),
                                                  build(spec))[1])
        argv = GOLDEN_REPORTS["symun-verify-4_1-p5"]
        assert main(["--json"] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing_ms"]
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == \
            _golden("symun-verify-4_1-p5")
        assert len(builds) == 1

    def test_obstruct_builds_each_presentation_once(self, capsys,
                                                    isolated_home,
                                                    monkeypatch):
        # Delta, det K, the rep check and the obstruction share one
        # Wirtinger presentation per diagram, each build walking the arcs
        # of its diagram once; the parent built the candidate's three times
        # and K's twice.  A second run in the process builds neither again
        walks = []
        subarcs = PDCode.subarcs
        monkeypatch.setattr(PDCode, "subarcs", lambda pd, *args, **kw: (
            walks.append(pd), subarcs(pd, *args, **kw))[1])
        table = default_table()
        argv = ["obstruct", "11a_201", "--candidate", "6_1", "--p", "7",
                "--rep", "rho0.json"]
        for _ in range(2):
            data = self.run_json(capsys, argv)
            assert data["results"]["verdict"] == "obstructed"
            assert len(walks) == 2
            assert {walks.count(table[name])
                    for name in ("11a_201", "6_1")} == {1}

    def test_composite_modulus_rep_is_rejected(self, capsys, isolated_home):
        # 3 has no inverse mod 9; the modulus is rejected before any inverse
        rep = isolated_home / "mod9.json"
        rep.write_text(json.dumps({"p": 9, "generators": [[[3]]] * 3}))
        assert main(["talex", "3_1", "--p", "9", "--rep", str(rep)]) == 1
        err = capsys.readouterr().err
        assert "9 is not prime" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("p", 7.9), ("entry", 0.5)])
    def test_rep_value_that_is_no_integer(self, capsys, isolated_home, key,
                                          value):
        # int() truncated both, and obstruct said "obstructed" for a
        # representation that the file does not hold
        data = json.loads((bundled_table_path().parent
                           / "rho0.json").read_text())
        if key == "p":
            data["p"] = value
        else:
            data["generators"][0][0][0] = value
        rep = isolated_home / "rho.json"
        rep.write_text(json.dumps(data))
        argv = ["obstruct", "11a_201", "--candidate", "6_1", "--p", "7",
                "--rep", str(rep)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: invalid rep file %r: %s %s is not an " \
            "integer\n" % (str(rep), "p =" if key == "p" else key, value)
        assert captured.out == ""

    def test_json_byte_identical_round_trip(self, capsys, isolated_home):
        assert main(["--json", "alex", "3_1"]) == 0
        text = capsys.readouterr().out
        assert RunReport.from_json(text).to_json() == text


class TestTableManagement:
    def test_env_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        custom = tmp_path / "mine.csv"
        custom.write_text("name,pd\n"
                          "mytref,\"X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]\"\n")
        monkeypatch.setenv("KNOTFORGE_TABLE", str(custom))
        assert main(["--json", "alex", "mytref"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]["alexander"] == "t^2 - t + 1"

    def test_table_flag_overrides(self, capsys, tmp_path, isolated_home):
        custom = tmp_path / "flag.csv"
        custom.write_text("name,pd\n"
                          "only,\"X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] "
                          "X[2,5,3,6]\"\n")
        assert main(["--table", str(custom), "--json", "alex", "only"]) == 0
        assert main(["--table", str(custom), "alex", "3_1"]) == 1

    def test_table_row_with_bad_json_names_its_line(self, capsys, tmp_path,
                                                    isolated_home):
        custom = tmp_path / "broken.csv"
        custom.write_text('name,pd\nk,"[1,"\n')
        assert main(["alex", "k", "--table", str(custom)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: %s:2: invalid PD for 'k': " % custom)
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_missing_table_is_an_error(self, capsys, tmp_path, isolated_home,
                                       monkeypatch, source):
        missing = str(tmp_path / "nonexistent.csv")
        argv = ["alex", "3_1"]
        if source == "flag":
            argv += ["--table", missing]
        else:
            monkeypatch.setenv("KNOTFORGE_TABLE", missing)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable table %s: " % missing)
        assert "Traceback" not in err
        with pytest.raises(DomainError, match="nonexistent.csv"):
            default_table(missing if source == "flag" else None)

    @pytest.mark.parametrize("argv", [
        ["alex", "3_1", "--table", "{bad}"],
        ["talex", "3_1", "--p", "7", "--rep", "{bad}"],
        ["table", "import", "{bad}"]], ids=["table", "rep", "import"])
    def test_file_that_is_not_utf8_is_named(self, capsys, isolated_home,
                                            argv):
        # the UnicodeDecodeError used to reach main, whose error line named
        # the codec and not the file
        bad = isolated_home / "bad.txt"
        bad.write_bytes(b"name,pd\n3_1,\xff\n")
        assert main([a.format(bad=bad) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid UTF-8" in err
        assert str(bad) in err and "Traceback" not in err

    def test_import_persists_to_user_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("KNOTFORGE_TABLE", raising=False)
        src = tmp_path / "in.csv"
        src.write_text(GOOD_TABLE)
        assert main(["--json", "table", "import", str(src)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]["entries_loaded"] == 2
        assert os.path.exists(user_table_path())
        # subsequent runs resolve through the imported table
        assert default_table().entries.keys() == {"3_1", "4_1"}

    def test_import_empty_warns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("KNOTFORGE_TABLE", raising=False)
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert main(["--json", "table", "import", str(src)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"]["warning"] == "empty table"

    def test_import_duplicate_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        src = tmp_path / "dup.csv"
        src.write_text(GOOD_TABLE +
                       "3_1,\"X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]\"\n")
        assert main(["table", "import", str(src)]) == 1
        assert "duplicate" in capsys.readouterr().err


class TestCommonOptions:
    """--json and --table are taken before the command, after its name or
    after its arguments, and only as options."""

    @staticmethod
    def normalized(text):
        # a report records the argv it was given and its time
        report = RunReport.from_json(text)
        report.command, report.timing_ms = [], 0.0
        return report.to_json()

    @pytest.mark.parametrize("argv", [
        ["talex", "3_1", "--p", "5", "--enumerate"],
        ["alex", "4_1", "--det"],
        ["symun", "verify", "--partial", "3_1", "--marks", "1,4",
         "--twists", "2", "--p", "5", "--trials", "1"],
    ])
    def test_json_placements_give_identical_reports(self, capsys,
                                                     isolated_home, argv):
        outs = []
        for where in (0, 1, len(argv)):
            assert main(argv[:where] + ["--json"] + argv[where:]) == 0
            outs.append(self.normalized(capsys.readouterr().out))
        assert outs[0] == outs[1] == outs[2]

    def test_table_placements_give_identical_reports(self, capsys,
                                                      tmp_path,
                                                      isolated_home):
        custom = tmp_path / "flag.csv"
        custom.write_text("name,pd\n"
                          "only,\"X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] "
                          "X[2,5,3,6]\"\n")
        outs = []
        for argv in (["--json", "--table", str(custom), "alex", "only"],
                     ["--json", "alex", "--table", str(custom), "only"],
                     ["alex", "only", "--table", str(custom), "--json"]):
            assert main(argv) == 0
            outs.append(self.normalized(capsys.readouterr().out))
        assert outs[0] == outs[1] == outs[2]
        # the table given after the command is the one used
        assert main(["alex", "3_1", "--table", str(custom)]) == 1
        assert "unknown knot name '3_1'" in capsys.readouterr().err

    def test_json_as_a_value_does_not_switch_the_output(self, capsys,
                                                        tmp_path,
                                                        monkeypatch,
                                                        isolated_home):
        # a table file named --json, given as --table's value and, after
        # "--", as table import's path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--json").write_text(GOOD_TABLE)
        monkeypatch.setenv("KNOTFORGE_TABLE", str(tmp_path / "dest.csv"))
        for argv in (["alex", "4_1", "--table=--json"],
                     ["table", "import", "--", "--json"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("command: knotforge %s\n" % " ".join(argv))
        assert main(["--json", "alex", "4_1", "--table=--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][
            "alexander"] == "t^2 - 3*t + 1"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [(["alex", "3_1"], 0),
                                            (["alex", "no_such_knot"], 1)])
    def test_python_m_knotforge(self, isolated_home, argv, code):
        src = os.path.dirname(os.path.dirname(knotforge.cli.__file__))
        env = dict(os.environ, HOME=str(isolated_home), PYTHONPATH=src)
        env.pop("KNOTFORGE_TABLE", None)
        proc = subprocess.run([sys.executable, "-m", "knotforge"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert "t^2 - t + 1" in proc.stdout
        else:
            assert proc.stderr.startswith("error: unknown knot name")

    def test_two_component_code_exits_1(self, isolated_home):
        # the one error the walk of a PD code can raise
        src = os.path.dirname(os.path.dirname(knotforge.cli.__file__))
        env = dict(os.environ, HOME=str(isolated_home), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "knotforge", "alex",
                               "X[1,3,2,4] X[3,1,4,2]"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: malformed PD code: diagram is not a "
                               "single-component knot\n")


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_REPORTS = {
    "talex-%s-p%d" % (knot, p): ["talex", knot, "--p", str(p), "--enumerate"]
    for knot in ("3_1", "4_1", "10_137", "11a_201") for p in (5, 7)}
GOLDEN_REPORTS["obstruct"] = ["obstruct", "11a_201", "--candidate", "6_1",
                              "--p", "7", "--rep", "rho0.json"]
GOLDEN_REPORTS.update({
    "alex-%s" % knot: ["alex", knot, "--det", "--ideal", "2", "--ideal", "3"]
    for knot in ("unknot", "3_1", "4_1", "6_1", "8_10", "8_20", "9_1", "9_24",
                 "10_99", "10_137", "10_140", "11a_201")})
# the symmetric-union template: both signs of twist region, an unknot
# partial, and the factorization identity on a two-region union
GOLDEN_REPORTS.update({
    "symun-build-3_1": ["symun", "build", "--partial", "3_1",
                        "--marks", "1,4", "--twists", "2"],
    "symun-build-4_1": ["symun", "build", "--partial", "4_1",
                        "--marks", "1,3,5", "--twists=-2,2"],
    "symun-build-unknot": ["symun", "build", "--partial", "unknot",
                           "--marks", "1,2", "--twists", "4"],
    "symun-verify-4_1-p5": ["symun", "verify", "--partial", "4_1",
                            "--marks", "1,3,5", "--twists=-2,2",
                            "--p", "5", "--trials", "3"],
})


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_is_byte_identical(self, capsys, isolated_home, name):
        # tests/golden holds the --json reports, timing_ms left out, of a
        # search over every trace with every polynomial from its Fox
        # pencil, where sign twins must give the same bytes, and of Delta_2
        # and Delta_3 from the Smith form of the whole abelianized Fox
        # matrix over Q, where the square Alexander pencil must
        assert main(["--json"] + GOLDEN_REPORTS[name]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing_ms"]
        got = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
            assert got.encode() == fh.read()


def _golden(name):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8",
              newline="") as fh:
        return fh.read()


def _without_timing(text):
    report = json.loads(text)
    del report["timing_ms"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestSharedParser:
    """main and run take one parser per process: a run must not see the
    options, values or errors of the runs before it."""

    def test_golden_commands_twice(self, capsys, isolated_home):
        # every golden command, then all of them again, through main and
        # through run, so that the parser is reused across commands
        for _ in range(2):
            for name in sorted(GOLDEN_REPORTS):
                argv = ["--json"] + GOLDEN_REPORTS[name]
                assert main(argv) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                assert _without_timing(captured.out) == _golden(name)
                report = knotforge.cli.run(argv)
                assert _without_timing(report.to_json()) == _golden(name)

    def test_common_options_before_and_after_the_command(self, capsys,
                                                         tmp_path,
                                                         isolated_home):
        # the table names 4_1's diagram 3_1; a run without --json or
        # --table after one with them prints text and uses the bundled table
        custom = tmp_path / "flag.csv"
        custom.write_text("name,pd\n"
                          "3_1,\"X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] "
                          "X[2,5,3,6]\"\n")
        table = ["--table", str(custom)]
        argvs = [["--json"] + table + ["alex", "3_1"],
                 ["alex", "3_1"],
                 ["alex", "3_1", "--json"] + table,
                 ["alex", "--json", "3_1"],
                 table + ["alex", "3_1"],
                 ["alex", "3_1"] + table]
        outs = []
        for _ in range(2):
            for argv in argvs:
                assert main(argv) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                alexander = ("t^2 - 3*t + 1" if "--table" in argv
                             else "t^2 - t + 1")
                if "--json" in argv:
                    out = _without_timing(captured.out)
                    assert json.loads(out)["results"] == {
                        "alexander": alexander}
                else:
                    out = captured.out.rsplit("timing: ", 1)[0]
                    assert "  alexander: %s\n" % alexander in out
                outs.append(out)
                assert knotforge.cli.run(argv).results == {
                    "alexander": alexander}
        assert outs[:len(argvs)] == outs[len(argvs):]

    def test_repeated_ideal(self, capsys, isolated_home):
        # --ideal appends: a list kept by the parser would grow from run to
        # run
        argv = ["alex", "6_1", "--ideal", "2", "--ideal", "3"]
        for _ in range(2):
            assert knotforge.cli._parse(argv)[1].ideal == [2, 3]
            assert knotforge.cli._parse(["alex", "6_1"])[1].ideal is None
            assert main(["--json"] + argv) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            assert sorted(results) == ["alexander", "alexander_2",
                                       "alexander_3"]
            assert knotforge.cli.run(argv).results == results

    def test_errors_twice(self, capsys, isolated_home):
        golden = GOLDEN_REPORTS["alex-3_1"]
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["alex"])  # missing knot argument
            assert exc.value.code == 2
            usage = capsys.readouterr().err
            assert "the following arguments are required: knot" in usage
            with pytest.raises(SystemExit) as exc:
                knotforge.cli.run(["alex"])
            assert exc.value.code == 2
            assert capsys.readouterr().err == usage
            assert main(["alex", "no_such_knot"]) == 1
            domain = capsys.readouterr().err
            assert domain.startswith(
                "error: unknown knot name 'no_such_knot'")
            with pytest.raises(DomainError, match="no_such_knot"):
                knotforge.cli.run(["alex", "no_such_knot"])
            # a good run between the failed ones
            assert main(["--json"] + golden) == 0
            assert _without_timing(capsys.readouterr().out) == \
                _golden("alex-3_1")
            errs.append((usage, domain))
        assert errs[0] == errs[1]


class TestTableMemo:
    """A table's text is parsed once per content and origin; the file is
    read on every call, and errors are never kept."""

    TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
    FIGURE_EIGHT = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"

    def write(self, path, rows):
        path.write_text("name,pd\n" + "".join(
            "%s,\"%s\"\n" % row for row in rows))

    def test_rewritten_table_is_seen(self, tmp_path, isolated_home):
        path = tmp_path / "tmp.csv"
        argv = ["alex", "k", "--table", str(path)]
        self.write(path, [("k", self.TREFOIL), ("other", self.TREFOIL)])
        assert knotforge.cli.run(argv).results["alexander"] == "t^2 - t + 1"
        self.write(path, [("k", self.FIGURE_EIGHT), ("other", self.TREFOIL)])
        assert knotforge.cli.run(argv).results["alexander"] == \
            "t^2 - 3*t + 1"
        self.write(path, [("other", self.TREFOIL)])
        with pytest.raises(DomainError, match="unknown knot name 'k'"):
            knotforge.cli.run(argv)

    def test_invalid_table_fails_every_call(self, tmp_path, isolated_home):
        path = tmp_path / "bad.csv"
        self.write(path, [("k", self.TREFOIL), ("bad", "X[1,2,3]")])
        for _ in range(3):
            with pytest.raises(DomainError, match="bad.csv:3: invalid PD"):
                knotforge.cli.run(["alex", "k", "--table", str(path)])
            with pytest.raises(DomainError, match="bad.csv:3: invalid PD"):
                default_table(str(path))

    def test_switching_env_table(self, tmp_path, monkeypatch, isolated_home):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        self.write(one, [("k", self.TREFOIL)])
        self.write(two, [("k", self.FIGURE_EIGHT), ("only2", self.TREFOIL)])
        for _ in range(2):
            monkeypatch.setenv("KNOTFORGE_TABLE", str(one))
            assert knotforge.cli.run(["alex", "k"]).results[
                "alexander"] == "t^2 - t + 1"
            with pytest.raises(DomainError, match="only2"):
                knotforge.cli.run(["alex", "only2"])
            monkeypatch.setenv("KNOTFORGE_TABLE", str(two))
            assert knotforge.cli.run(["alex", "k"]).results[
                "alexander"] == "t^2 - 3*t + 1"
            assert knotforge.cli.run(["alex", "only2"]).results[
                "alexander"] == "t^2 - t + 1"

    def test_entries_are_not_shared(self):
        first = KnotTable.parse(GOOD_TABLE, origin="mem.csv")
        del first.entries["3_1"]
        first.entries["extra"] = PDCode([])
        second = KnotTable.parse(GOOD_TABLE, origin="mem.csv")
        assert sorted(second.entries) == ["3_1", "4_1"]
        assert second.provenance == "test provenance line"

    def test_same_text_is_parsed_once(self, monkeypatch):
        calls = []

        def counting_parse_pd(text):
            calls.append(text)
            return parse_pd(text)

        monkeypatch.setattr(knotforge.cli, "parse_pd", counting_parse_pd)
        knotforge.cli._parse_table.cache_clear()
        text = GOOD_TABLE + "# parsed once\n"
        first = KnotTable.parse(text, origin="once.csv")
        assert len(calls) == 2
        second = KnotTable.parse(text, origin="once.csv")
        assert len(calls) == 2 and second["4_1"] is first["4_1"]
        # the origin is part of the key: it is in every error message
        KnotTable.parse(text, origin="other.csv")
        assert len(calls) == 4
