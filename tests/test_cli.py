import csv
import io
import json
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from holomon import checks as checksuites
from holomon import tau
from holomon.blocks import sphere4_block
from holomon.cli import main
from holomon.plotting import plot_svg
from holomon.report import KNOWN_TAGS, CheckResult, Report, worst_residual

# the bytes of `holomon verify all --seed 0 --format json`
GOLDEN_VERIFY_ALL = Path(__file__).parent / "golden" / "verify_all_seed0.json"

@pytest.fixture
def runner():
    return CliRunner()


class TestSurfaceCommands:
    def test_export_validate_roundtrip(self, runner, tmp_path):
        path = tmp_path / "c04.json"
        r = runner.invoke(main, ["surface", "export", "--surface", "c04",
                                 "--out", str(path)])
        assert r.exit_code == 0
        r = runner.invoke(main, ["surface", "validate", str(path)])
        assert r.exit_code == 0
        assert "valid" in r.output

    def test_missing_file(self, runner):
        r = runner.invoke(main, ["surface", "validate", "/nonexistent.json"])
        assert r.exit_code == 2

    def test_corrupt_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not valid json")
        r = runner.invoke(main, ["surface", "validate", str(path)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("name, field, value", [
        ("c04", ("triangles", 0, 0, 1), 1.5),
        ("c04", ("triangles", 3, 0, 0), True),
        ("c04", ("curves", "p1", "steps", 1, 0), 0.9),
        ("c04", ("curves", "p1", "start"), 1.0),
        ("c11", ("genus",), True),
        ("c04", ("punctures",), 4.0),
        ("c04", ("pants", "vertices", 0, 2, 1), 0.0),
        ("c04", ("pants", "names"), [1]),
        ("c04", ("pants", "names"), "ab"),
        ("c04", ("pants", "names"), "a"),
    ], ids=["flag-1.5", "edge-true", "step-edge-0.9", "start-1.0", "genus-true",
            "punctures-4.0", "leg-0.0", "names-int", "names-ab", "names-bare-string"])
    def test_malformed_field_exits_2(self, runner, tmp_path, name, field, value):
        # int() used to truncate or coerce each of these values, and the
        # file passed as valid
        doc = json.loads(runner.invoke(main, ["surface", "export", "--surface", name]).output)
        if name == "c04":
            doc["pants"] = {"vertices": [[["bdry", 0], ["bdry", 1], ["cut", 0]],
                                         [["cut", 0], ["bdry", 2], ["bdry", 3]]],
                            "names": ["s"]}
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        assert runner.invoke(main, ["surface", "validate", str(path)]).exit_code == 0
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path.write_text(json.dumps(doc))
        r = runner.invoke(main, ["surface", "validate", str(path)])
        assert r.exit_code == 2
        assert r.output.startswith("error: invalid surface file: ")
        assert r.output.count("\n") == 1

    @pytest.mark.parametrize("edge", [99, -1, 6])
    def test_curve_edge_out_of_range(self, runner, tmp_path, edge):
        # 99 was an IndexError (exit 3), -1 indexed the last edge
        doc = json.loads(runner.invoke(main, ["surface", "export", "--surface", "c04"]).output)
        doc["curves"]["p1"]["steps"][0][0] = edge
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        r = runner.invoke(main, ["surface", "validate", str(path)])
        assert r.exit_code == 2
        assert r.output == f"error: curve 'p1' invalid: edge {edge} out of range 0..5\n"

    @pytest.mark.parametrize("curve, message", [
        ({"start": 3, "steps": [[0, "L"], [1, "R"]]},
         "start vertex 3 is not an end of edge 0"),
        ({"start": None, "steps": [[0, "L"]]},
         "walk broken at step 0: turn L at vertex 1 leads to edge 1, walk says 0"),
        ({"start": None, "steps": [[0, "L"], [1, "L"], [2, "L"]]},
         "walk does not close up"),
    ])
    def test_curve_walk_rejected(self, runner, tmp_path, curve, message):
        doc = json.loads(runner.invoke(main, ["surface", "export", "--surface", "c11"]).output)
        doc["curves"]["s"] = curve
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        r = runner.invoke(main, ["surface", "validate", str(path)])
        assert r.exit_code == 2
        assert r.output == f"error: curve 's' invalid: {message}\n"

    @pytest.mark.parametrize("edge", ["99", "-1", "6"])
    def test_flip_edge_out_of_range(self, runner, edge):
        r = runner.invoke(main, ["flip", "--surface", "c04", "--edge", edge])
        assert r.exit_code == 2
        assert r.output == f"error: edge {edge} out of range 0..5\n"

    def test_trace(self, runner):
        r = runner.invoke(main, ["trace", "--surface", "c11", "--curve", "u"])
        assert r.exit_code == 0
        assert "1/1" in r.output

    def test_trace_unknown_curve(self, runner):
        r = runner.invoke(main, ["trace", "--surface", "c11", "--curve", "zz"])
        assert r.exit_code == 2

    def test_flip(self, runner):
        r = runner.invoke(main, ["flip", "--surface", "c04", "--edge", "0"])
        assert r.exit_code == 0
        assert "triangles" in r.output

    def test_dehn(self, runner):
        ok = runner.invoke(main, ["dehn", "--surface", "c04", "--params", "2:0"])
        assert ok.exit_code == 0
        bad = runner.invoke(main, ["dehn", "--surface", "c04", "--params", "0:-1"])
        assert bad.exit_code == 1
        assert "(ii)" in bad.output

    @pytest.mark.parametrize("name, params", [("c04", "2:0,3:1,4:4"), ("c11", "2:0,0:1")])
    def test_dehn_extra_pairs_exit_2(self, runner, name, params):
        # each reference decomposition has one cut curve
        r = runner.invoke(main, ["dehn", "--surface", name, "--params", params])
        assert r.exit_code == 2
        assert "valid" not in r.output
        assert r.output.startswith("error: ") and r.output.count("\n") == 1


class TestVerifyCommands:
    def test_classical(self, runner):
        r = runner.invoke(main, ["verify", "classical-relations", "--surface", "c11"])
        assert r.exit_code == 0
        assert "PASS" in r.output

    def test_quantum_json(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        r = runner.invoke(main, ["verify", "quantum-relations", "--surface", "c11",
                                 "--format", "json", "--out", str(out)])
        assert r.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert all(c["tag"] in KNOWN_TAGS for c in doc["checks"])

    def test_pants(self, runner):
        r = runner.invoke(main, ["verify", "pants-rep", "--surface", "c11",
                                 "--draws", "2"])
        assert r.exit_code == 0

    @pytest.mark.parametrize("args", [
        ["--b2", "0,0"],                          # b2 = 0
        ["--b2", "1,0"],                          # q^4 = 1 on c04
        ["--surface", "c11", "--b2", "1,0"],      # q^2 = 1 on c11
        ["--b2", "abc"],
        ["--b2", "0,0", "--sites-csv", "{tmp}/sites.csv"],
        ["--b2", "nan,0"],
        ["--b2", "inf,0"],
        ["--b2", "0.3,-inf"],
        ["--surface", "c11", "--b2", "nan,0"],
        ["--surface", "c11", "--b2", "inf,0"],
    ])
    def test_pants_bad_b2_exits_2(self, runner, tmp_path, args):
        args = [a.format(tmp=tmp_path) for a in args]
        r = runner.invoke(main, ["verify", "pants-rep", "--draws", "1", *args])
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        assert r.output.startswith("error: --b2") and r.output.count("\n") == 1

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_pants_needs_a_draw(self, runner, draws):
        r = runner.invoke(main, ["verify", "pants-rep", "--draws", draws])
        assert r.exit_code == 2
        assert "PASS" not in r.output
        with pytest.raises(ValueError):
            checksuites.pants_checks("c11", seed=0, draws=int(draws))

    @pytest.mark.parametrize("draws", [0, -3])
    def test_tau_needs_a_draw(self, draws):
        # over no draws the worst residual would read 0 and both rows PASS
        with pytest.raises(ValueError, match="draws must be at least 1"):
            checksuites.tau_checks(seed=0, draws=draws)

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_nan_residual_fails_its_row(self, kind):
        rep = checksuites.pants_checks(kind, seed=0, draws=1, b2=complex(float("nan"), 0))
        rows = [c for c in rep.checks if "relation degree" in c.name]
        assert len(rows) == 2
        assert all(c.status == "fail" and c.witness == "worst residual nan" for c in rows)
        assert not rep.passed

    def test_precision_row_follows_b2(self, runner):
        # the precision row builds its own draw; a given --b2 applies to it too
        witnesses = set()
        for b2 in ("0.3,0.1", "0.6,0.2"):
            r = runner.invoke(main, ["verify", "pants-rep", "--surface", "c11", "--draws", "1",
                                     "--b2", b2, "--format", "json"])
            assert r.exit_code == 0
            rows = [c for c in json.loads(r.output)["checks"]
                    if c["name"] == "c11: residual falls with working precision"]
            assert len(rows) == 1 and rows[0]["status"] == "pass"
            witnesses.add(rows[0]["witness"])
        assert len(witnesses) == 2, witnesses

    def test_loop_rows_carry_runtime(self):
        rows = checksuites.pants_checks("c11", seed=0, draws=1).checks
        rows += checksuites.tau_checks(seed=0, draws=1).checks
        assert len(rows) == 6
        assert all(row.runtime > 0 for row in rows)

    def test_determinism(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            r = runner.invoke(main, ["verify", "bpz", "--order", "4",
                                     "--out", str(path)])
            assert r.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_all_json_is_pinned(self, runner):
        # every row, witness and note of the full suite, byte for byte: a
        # change to any of them is a change of behaviour, made on purpose
        # by rewriting the golden file
        r = runner.invoke(main, ["verify", "all", "--seed", "0", "--format", "json"])
        assert r.exit_code == 0
        assert r.stdout_bytes == GOLDEN_VERIFY_ALL.read_bytes()

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_sites_csv_is_pinned(self, runner, tmp_path, kind):
        # the per-site residual rows, to the six digits they are printed with
        path = tmp_path / "sites.csv"
        r = runner.invoke(main, ["verify", "pants-rep", "--surface", kind, "--draws", "1",
                                 "--sites-csv", str(path)])
        assert r.exit_code == 0
        assert path.read_bytes() == GOLDEN_VERIFY_ALL.with_name(
            f"sites_{kind}_seed0.csv").read_bytes()

    def test_bpz_builds_each_channel_once(self, monkeypatch):
        calls = []

        def counting(*args, **kw):
            calls.append(args[4])
            return sphere4_block(*args, **kw)

        monkeypatch.setattr(checksuites.blocks, "sphere4_block", counting)
        rep = checksuites.bpz_checks(order=4)
        assert rep.passed
        # two fused channels, the generic control and the vacuum row
        assert len(calls) == len(set(calls)) == 4

    def test_bpz_channel_failure_is_an_error_row(self, monkeypatch):
        def failing(*args, **kw):
            raise ArithmeticError("no block")

        monkeypatch.setattr(checksuites.blocks, "sphere4_block", failing)
        rep = checksuites.bpz_checks(order=4)
        assert [c.status for c in rep.checks] == ["error"] * 5
        assert all(c.witness == "ArithmeticError: no block" for c in rep.checks)

    @pytest.mark.parametrize("args", [
        ["verify", "bpz", "--order", "-1"],
        ["block", "sphere4", "--weights", "1,2,3,4,0", "--order", "-1"],
        ["block", "torus1", "--weights", "1,2", "--order", "-1"],
    ])
    def test_negative_order_exits_2(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "Traceback" not in r.output and "PASS" not in r.output
        assert "--order" in r.output


    @pytest.mark.parametrize("b2", ["0", "0/5", "abc", "1/0"])
    def test_bpz_bad_b2_exits_2(self, runner, b2):
        r = runner.invoke(main, ["verify", "bpz", "--b2", b2, "--order", "2"])
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        assert r.output.startswith("error: --b2") and r.output.count("\n") == 1

    @pytest.mark.parametrize("b2, want", [("0.3", Fraction(3, 10)), ("3", Fraction(3))])
    def test_bpz_degenerate_checks_use_given_b2(self, runner, monkeypatch, b2, want):
        seen = []

        def spy(b2v):
            seen.append(b2v)
            return Report("degenerate-module structure")

        monkeypatch.setattr(checksuites, "virasoro_checks", spy)
        r = runner.invoke(main, ["verify", "bpz", "--b2", b2, "--order", "2"])
        assert "Traceback" not in r.output
        assert seen == [want] and type(seen[0]) is Fraction


class TestSeriesCommands:
    def test_block_sphere4(self, runner):
        r = runner.invoke(main, ["block", "sphere4", "--weights",
                                 "3/5,1/3,7/11,2/9,5/4", "--order", "3"])
        assert r.exit_code == 0
        assert "leading_exponent=19/60" in r.output

    def test_block_torus1_exact_level0(self, runner):
        r = runner.invoke(main, ["block", "torus1", "--weights", "1/3,7/5",
                                 "--order", "2"])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "# channel=torus1 leading_exponent=211/240"
        assert lines[1] == "0 1/1"

    @pytest.mark.parametrize("args", [
        ["--weights", "1,2"],
        ["--weights", "1/0,1,1,1,1"],
        ["--weights", "1,1,1,1,1", "-c", "1/0"],
    ], ids=["arity", "weight-1/0", "c-1/0"])
    def test_block_bad_weights(self, runner, args):
        r = runner.invoke(main, ["block", "sphere4", *args, "--order", "2"])
        assert r.exit_code == 2
        assert r.output.startswith("error: ") and r.output.count("\n") == 1

    @pytest.mark.parametrize("args, level", [
        (["sphere4", "--weights", "1,1,1,1,0", "-c", "0", "--order", "3"], 2),
        (["torus1", "--weights", "1,0"], 1),
    ], ids=["sphere4", "torus1"])
    def test_block_singular_gram_names_level(self, runner, args, level):
        r = runner.invoke(main, ["block", *args])
        assert r.exit_code == 2
        assert r.output.startswith(
            f"error: level-{level} contraction failed at internal weight 0: ")
        assert r.output.count("\n") == 1

    def test_tau_runs(self, runner, tmp_path):
        out = tmp_path / "tau.txt"
        r = runner.invoke(main, ["tau", "--lam", "2/5", "--kappa", "13/10",
                                 "--order", "4", "--shifts", "2", "--out", str(out)])
        assert r.exit_code == 0
        assert "residual" in r.output
        assert out.exists()

    @pytest.mark.parametrize("args", [["--normalization", "plain"], ["--order", "1"]],
                             ids=["plain", "order-1"])
    def test_tau_plot_without_residual_exits_2(self, runner, tmp_path, args):
        # neither run computes the residual, so there is nothing to plot
        plot = tmp_path / "decay.svg"
        r = runner.invoke(main, ["tau", "--lam", "2/5", "--kappa", "13/10", *args,
                                 "--plot", str(plot)])
        assert r.exit_code == 2
        assert r.output.startswith("error: --plot") and r.output.count("\n") == 1
        assert not plot.exists()

    def test_tau_vanishing_residual_is_printed_and_plotted(self, runner, tmp_path):
        # here every residual slot is exactly 0, so the residual stores none
        plot = tmp_path / "decay.svg"
        with pytest.warns(UserWarning, match="skipped degenerate shifts"):
            r = runner.invoke(main, ["tau", "--lam", "1/4", "--kappa", "1",
                                     "--theta", "1/4,0,0,0", "--plot", str(plot)])
        assert r.exit_code == 0
        assert "# deformation-equation residual (worst slot): 0.0\n" in r.output
        assert f"plot written to {plot}" in r.output
        assert "<svg" in plot.read_text()

    def test_tau_nan_slot_is_the_worst(self, runner, monkeypatch):
        # a NaN weight for shift 2 makes some residual slots NaN, after
        # finite ones, and the worst slot must report it
        real = tau.weight_ratio
        monkeypatch.setattr(tau, "weight_ratio", lambda theta, lam, m, digits:
                            mp.nan if m == 2 else real(theta, lam, m, digits))
        r = runner.invoke(main, ["tau", "--lam", "2/5", "--kappa", "13/10"])
        assert r.exit_code == 0
        assert r.output.splitlines()[-1].endswith("nan")

    def test_tau_header(self, runner):
        r = runner.invoke(main, ["tau", "--lam", "2/5", "--kappa", "13/10",
                                 "--order", "2", "--shifts", "1"])
        assert r.exit_code == 0
        assert r.output.startswith("# leading_exponent=-361/11025\n-1 1 ")

    def test_tau_unreached_shift_not_weighed(self, runner):
        # shift 3 enters at t^9, past order 6, so its zero weight is never
        # met and nothing is reported skipped
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = runner.invoke(main, ["tau", "--lam", "1/4", "--kappa", "1",
                                     "--theta", "1/4,2,1/3,1/5", "--order", "6",
                                     "--shifts", "3"])
        assert r.exit_code == 0
        assert not [w for w in caught if "skipped" in str(w.message)]
        assert {line.split()[0] for line in r.output.splitlines()[1:-1]} == \
            {"-2", "-1", "0", "1", "2"}

    def test_tau_order_zero_holds_shift_zero_alone(self, runner):
        # lambda = 2 makes the weight of shift 1 infinite, but order 0
        # keeps shift 0 alone
        r = runner.invoke(main, ["tau", "--lam", "2", "--kappa", "1", "--order", "0"])
        assert r.exit_code == 0
        assert r.output == "# leading_exponent=1679/441\n0 0 (1.0 + 0.0j)\n"

    @pytest.mark.parametrize("lam", ["0", "1/2"])
    def test_tau_infinite_weight_exits_2(self, runner, lam):
        r = runner.invoke(main, ["tau", "--lam", lam, "--kappa", "13/10",
                                 "--order", "2", "--shifts", "1"])
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        assert r.output.startswith("error: ") and r.output.count("\n") == 1
        assert f"lambda={lam}" in r.output

    @pytest.mark.parametrize("lam,order", [("0", "2"), ("1/2", "2"), ("1/2", "4")])
    def test_tau_degenerate_shift_zero_exits_2(self, runner, lam, order):
        # with no other shift there is no weight to be infinite; shift 0's
        # own Gram matrix is singular, so the sum has no leading term
        r = runner.invoke(main, ["tau", "--lam", lam, "--kappa", "0", "--theta", "0,0,0,1",
                                 "--order", order, "--shifts", "0"])
        assert r.exit_code == 2
        assert r.output == f"error: the block of shift 0 is degenerate at lambda={lam} " \
                           "(a singular Gram matrix)\n"

    @pytest.mark.parametrize("opt,value", [
        ("--shifts", "-1"), ("--order", "-1"), ("--digits", "0"), ("--digits", "-1"),
        ("--lam", "1/0"), ("--theta", "1/0,2/7,3/11,5/13"), ("--kappa", "inf"),
        ("--kappa", "nan"),
    ], ids=["--shifts", "--order", "--digits-0", "--digits--1", "--lam-1/0",
            "--theta-1/0", "--kappa-inf", "--kappa-nan"])
    def test_tau_negative_sizes_exit_2(self, runner, opt, value):
        r = runner.invoke(main, ["tau", "--lam", "2/5", "--kappa", "13/10", opt, value])
        assert r.exit_code == 2
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("digits,first", [
        ("4", "(-0.1371 + 0.4938j)"),
        ("80", "(-0.1370987582997006166812774927917603883278625519"
               "4845172308333670801347299174455389"
               " + 0.4938437728847217533100685457634624621187108072"
               "3518091890987374730832178508208199j)"),
    ])
    def test_tau_prints_at_working_precision(self, runner, digits, first):
        # each coefficient carries --digits significant digits, no more and
        # no fewer
        r = runner.invoke(main, ["tau", "--lam", "2/5", "--kappa", "13/10", "--order", "2",
                                 "--shifts", "1", "--digits", digits])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[1] == f"-1 1 {first}"
        assert "0 0 (1.0 + 0.0j)" in lines

    def test_tau_default_digits(self, runner):
        # without --digits the series runs at 50 digits, and --help says so
        args = ["tau", "--lam", "2/5", "--kappa", "13/10"]
        default = runner.invoke(main, args)
        assert default.exit_code == 0
        assert default.output == runner.invoke(main, [*args, "--digits", "50"]).output
        assert default.output.endswith(
            "# deformation-equation residual (worst slot): 8.435e-52\n")
        lines = runner.invoke(main, ["tau", "--help"]).output.splitlines()
        assert any("--digits" in line and "[default: 50; x>=1]" in line for line in lines)

    @pytest.mark.parametrize("doc", [
        {"checks": [{"name": "a", "tag": "no-such-tag", "status": "pass"}]},
        {"checks": [{"name": "a", "tag": "cubic-relation", "status": "maybe"}]},
        {"checks": [{"tag": "cubic-relation", "status": "pass"}]},
        [{"name": "a", "tag": "cubic-relation", "status": "pass"}],
        {"checks": [{"name": "a", "tag": "q-cubic", "status": "pass"}], "notes": 5},
        {"checks": [{"name": "a", "tag": "q-cubic", "status": "pass"}], "notes": "abc"},
        {"checks": [{"name": "a", "tag": "q-cubic", "status": "pass"}], "notes": [5]},
        {"checks": [{"name": 1, "tag": "q-cubic", "status": "pass"}]},
        {"checks": [{"name": "a", "tag": "q-cubic", "status": "pass", "witness": 1}]},
        {},
        {"checks": [], "notes": [], "passed": False, "title": "t"},
    ], ids=["tag", "status", "missing-name", "not-an-object", "notes-not-a-list",
            "notes-a-string", "notes-not-strings", "name-not-a-string",
            "witness-not-a-string", "empty-object", "no-checks"])
    def test_report_bad_check_exits_2(self, runner, tmp_path, doc):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        r = runner.invoke(main, ["report", str(path)])
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        assert r.output.startswith("error: bad report file") and r.output.count("\n") == 1

    @pytest.mark.parametrize("make", [
        lambda p: p.mkdir(),
        lambda p: p.write_bytes(b'{"title": "\xff"}'),
    ], ids=["directory", "not-utf8"])
    def test_report_unreadable_file_exits_2(self, runner, tmp_path, make):
        path = tmp_path / "rep.json"
        make(path)
        r = runner.invoke(main, ["report", str(path)])
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        assert r.output.startswith("error: bad report file") and r.output.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_report_rerenders_multi_report_json(self, runner, tmp_path, fmt):
        # classical-relations writes two reports, so its JSON is two documents
        path = tmp_path / "rep.json"
        args = ["verify", "classical-relations", "--format"]
        path.write_text(runner.invoke(main, args + ["json"]).output)
        r = runner.invoke(main, ["report", str(path), "--format", fmt])
        assert r.exit_code == 0
        assert r.output == runner.invoke(main, args + [fmt]).output

    def test_report_rerender(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        runner.invoke(main, ["verify", "quantum-relations", "--surface", "c11",
                             "--format", "json", "--out", str(out)])
        r = runner.invoke(main, ["report", str(out), "--format", "csv"])
        assert r.exit_code == 0
        assert r.output.startswith("name,tag,status")


class TestReportObjects:
    def test_unregistered_tag_rejected(self):
        with pytest.raises(ValueError):
            CheckResult("x", "no-such-tag", "pass", "")

    def test_render_formats(self):
        rep = Report("demo")
        rep.add(CheckResult("a", "cubic-relation", "pass", "w"))
        rep.note("n")
        assert "PASS" in rep.to_text()
        assert json.loads(rep.to_json())["passed"] is True
        assert rep.to_csv(header=True).count("\n") == 2

    def test_csv_rows_round_trip(self, runner):
        # witnesses and names with commas and quotes parse back unchanged
        header = ["name", "tag", "status", "witness"]
        tricky = Report("demo")
        tricky.add(CheckResult('comma, "quote"', "cubic-relation", "fail", 'a,b "c"'))
        reps = [checksuites.classical_checks(), checksuites.mutation_checks()]
        r = runner.invoke(main, ["verify", "classical-relations", "--format", "csv"])
        assert r.exit_code == 0 and "s,t product" in r.output
        for text, reports in ((r.output, reps), (tricky.to_csv(header=True), [tricky])):
            want = [header] + [[c.name, c.tag, c.status, c.witness]
                               for rep in reports for c in rep.checks]
            rows = list(csv.reader(io.StringIO(text)))
            assert all(len(row) == 4 for row in rows) and rows == want

    def test_verify_all_csv_is_one_table(self, runner):
        r = runner.invoke(main, ["verify", "all", "--format", "csv"])
        assert r.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(r.output)))
        assert rows and all(row["tag"] in KNOWN_TAGS and row["status"] == "pass" for row in rows)
        # the registry holds no tag that no suite emits
        assert {row["tag"] for row in rows} == KNOWN_TAGS

    def test_worst_residual_of_none_is_zero(self):
        assert worst_residual([]) == 0

    def test_runtime_not_serialized(self):
        rep = Report("demo")
        rep.add(CheckResult("a", "cubic-relation", "pass", "", runtime=1.23))
        assert "1.23" not in rep.to_json()
        assert "1.23" not in rep.to_text()


def _error_lines(output):
    # ours read "error: ", click's usage errors "Error: "
    return [line for line in output.splitlines() if line.lower().startswith("error: ")]


_numbers = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 3)),
    st.sampled_from(["0.5", "-1.5", "inf", "nan", "", "abc"]),
)
_lists = st.lists(_numbers, min_size=1, max_size=6).map(",".join)
_orders = st.sampled_from(["-1", "0", "1", "2"])
_surfaces = st.sampled_from(["c04", "c11"])
_commands = st.one_of(
    st.tuples(st.just("block"), st.sampled_from(["sphere4", "torus1"]), st.just("--weights"),
              _lists, st.just("-c"), _numbers, st.just("--order"), _orders),
    st.tuples(st.just("tau"), st.just("--lam"), _numbers, st.just("--kappa"), _numbers,
              st.just("--theta"), _lists, st.just("--order"), _orders,
              st.just("--shifts"), st.sampled_from(["0", "1"])),
    st.tuples(st.just("verify"), st.just("bpz"), st.just("--b2"), _numbers,
              st.just("--order"), _orders),
    st.tuples(st.just("dehn"), st.just("--surface"), _surfaces, st.just("--params"),
              st.lists(st.builds("{}:{}".format, _numbers, _numbers), min_size=1,
                       max_size=3).map(",".join)),
    st.tuples(st.just("verify"), st.just("pants-rep"), st.just("--surface"), _surfaces,
              st.just("--draws"), st.just("1"), st.just("--b2"),
              st.builds("{},{}".format, _numbers, _numbers), st.just("--tol"), _numbers),
)


class TestExitContract:
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_pants_bad_tol_exits_2(self, runner, tol):
        r = runner.invoke(main, ["verify", "pants-rep", "--draws", "1", "--tol", tol])
        assert r.exit_code == 2
        assert r.output.startswith(f"error: --tol {tol}") and r.output.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["verify", "bpz", "--order", "2", "--out"],
        ["verify", "pants-rep", "--draws", "1", "--sites-csv"],
        ["surface", "export", "--out"],
        ["block", "torus1", "--weights", "1,2", "--order", "2", "--out"],
        ["block", "torus1", "--weights", "1,2", "--order", "2", "--plot"],
        ["tau", "--lam", "2/5", "--kappa", "1", "--order", "2", "--shifts", "1", "--out"],
        ["tau", "--lam", "2/5", "--kappa", "1", "--order", "2", "--shifts", "1", "--plot"],
    ], ids=["verify-out", "sites-csv", "export-out", "block-out", "block-plot",
            "tau-out", "tau-plot"])
    def test_output_in_missing_directory_exits_2(self, runner, tmp_path, args):
        r = runner.invoke(main, [*args, str(tmp_path / "missing" / "file")])
        assert r.exit_code == 2
        assert len(_error_lines(r.output)) == 1

    @pytest.mark.parametrize("args, suite, exc", [
        (["verify", "all"], "all_checks", RuntimeError("boom")),
        # with the default --b2 a rejected draw is a bug, not bad input
        (["verify", "pants-rep", "--draws", "1"], "pants_checks", ValueError("boom")),
    ], ids=["runtime-error", "default-b2-value-error"])
    def test_internal_error_exits_3(self, runner, monkeypatch, args, suite, exc):
        def broken(*args, **kw):
            raise exc

        monkeypatch.setattr(checksuites, suite, broken)
        r = runner.invoke(main, args)
        assert r.exit_code == 3
        assert r.output == f"internal error: {type(exc).__name__}: boom\n"

    @settings(max_examples=300, deadline=None)
    @given(_commands)
    def test_fuzz_keeps_exit_contract(self, args):
        r = CliRunner().invoke(main, list(args))
        # CliRunner keeps an escaped exception in r.exception, not in the output
        assert r.exception is None or isinstance(r.exception, SystemExit), args
        assert r.exit_code in (0, 1, 2), args
        if r.exit_code == 2:
            assert len(_error_lines(r.output)) == 1, (args, r.output)


class TestPlot:
    def test_byte_stable(self):
        data = list(enumerate([1.0, 0.1, 0.01, 0.001]))
        a = plot_svg(data, "partial sums", "order", "value", logy=True)
        b = plot_svg(data, "partial sums", "order", "value", logy=True)
        assert a == b

    def test_empty_series_axes_only(self):
        text = plot_svg([], "partial sums", "order", "value")
        assert "<svg" in text and "polyline" not in text
        assert ">n=0</text>" in text

    def test_monotone_decay_rendered(self):
        text = plot_svg([(k, 10.0 ** -k) for k in range(6)], "partial sums", "order",
                        "value", logy=True)
        assert "polyline" in text

    def test_dropped_values_are_counted(self):
        text = plot_svg([(0, 1.0), (1, 0.0), (2, -1e-3), (3, 0.01)], "residual",
                        "order", "value", logy=True)
        assert "polyline" in text
        assert "min=-2.0000 max=0.0000 n=2, 2 values &lt;= 0 not drawn</text>" in text
        text = plot_svg([(0, 0.0), (1, 0.0)], "residual", "order", "value", logy=True)
        assert "polyline" not in text and ">n=0, 2 values &lt;= 0 not drawn</text>" in text
