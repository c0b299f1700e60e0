import io
import json
import xml.etree.ElementTree as ET

import jsonschema
import pytest

from torcode import betasym, cli, coding, glz
from torcode.coding import enumerate_mac, semiconjugacy_kernel
from torcode.glz import Mat2
from torcode.qfield import dominant_eigenvalue
from torcode.schemas import FORMS_SCHEMA, POINT_SCHEMA, REPORT_SCHEMA, SPEC_LIST_SCHEMA


def run(args):
    buf = io.StringIO()
    rc = cli.main(args, out=buf)
    return rc, buf.getvalue()


def run_json(args, flags_first=False):
    if flags_first:
        # flags must precede a "--" separator
        i = args.index("--")
        full = args[:i] + ["--format", "json"] + args[i:]
    else:
        full = args + ["--format", "json"]
    rc, out = run(full)
    assert rc == 0, out
    return json.loads(out)


class TestAnalyze:
    def test_fibonacci(self):
        data = run_json(["analyze", "--matrix", "1,1,1,0"])
        jsonschema.validate(data, REPORT_SCHEMA)
        assert data["bac"]["admits"] is True
        assert data["integral_minimum"] == 1
        assert data["r"] == 1 and data["sigma"] == -1 and data["D"] == 5

    def test_counterexample2(self):
        data = run_json(["analyze", "--matrix", "5,3,2,1"])
        jsonschema.validate(data, REPORT_SCHEMA)
        assert data["bac"]["admits"] is False
        assert data["integral_minimum"] == 2
        assert data["D"] == 40

    def test_example_80_9(self):
        data = run_json(["analyze", "--matrix", "80,9,9,1"])
        jsonschema.validate(data, REPORT_SCHEMA)
        assert data["integral_minimum"] == 9
        assert len(data["mac"]["specs"]) == 2
        assert len(data["mac"]["kernels"]) == 2
        assert all(len(k) == 9 for k in data["mac"]["kernels"])

    def test_negative_trace_warns(self):
        data = run_json(["analyze", "--matrix=-1,-1,-1,0"])
        assert data["input"]["trace_negated"] is True
        assert data["input"]["normalized_matrix"] == [[1, 1], [1, 0]]
        assert any("negative" in w for w in data["warnings"])

    def test_invalid_inputs(self):
        assert run(["analyze", "--matrix", "1,1,0,1"])[0] == 1  # parabolic
        assert run(["analyze", "--matrix", "2,0,0,1"])[0] == 1  # not unimodular
        assert run(["analyze", "--matrix", "1,2,3"])[0] == 1  # malformed

    @pytest.mark.parametrize("r,sigma", [(29, -1), (47, 1), (76, -1), (123, 1), (199, -1), (322, 1)])
    def test_lucas_trace_companions(self, r, sigma):
        # lam = phi^k with k >= 7: the order's unit generator is lam itself
        data = run_json(["analyze", f"--matrix={r},1,{-sigma},0"])
        jsonschema.validate(data, REPORT_SCHEMA)
        assert data["primitive"] is True
        assert data["bac"]["generator"] == dominant_eigenvalue(r, sigma).to_dict()
        assert data["bac"]["exceptional"] is False

    def test_trace_1e7(self):
        data = run_json(["analyze", "--matrix", "10000000,1,1,0"])
        assert data["D"] == 10**14 + 4
        assert data["primitive"] is True and data["bac"]["admits"] is True

    def test_rejects_bound_outside_forms(self):
        assert run(["analyze", "--matrix", "1,1,1,0", "--bound", "5"])[0] == 1

    def test_numbers_match_library(self):
        data = run_json(["analyze", "--matrix", "80,9,9,1"])
        m = Mat2(80, 9, 9, 1)
        m_val, specs = enumerate_mac(m)
        assert data["mac"]["m"] == m_val
        assert data["mac"]["specs"] == [s.to_dict() for s in specs]
        kernels = [semiconjugacy_kernel(m, s.point.p, s.point.q).as_strings() for s in specs]
        assert data["mac"]["kernels"] == kernels

    def test_text_json_agree(self):
        data = run_json(["analyze", "--matrix", "5,3,2,1"])
        rc, text = run(["analyze", "--matrix", "5,3,2,1"])
        assert rc == 0
        for token in ("integral_minimum: 2", "D: 40", "admits: False"):
            assert token in text
        assert str(data["integral_minimum"]) in text


class TestBacMac:
    def test_theta_family_flagged(self):
        data = run_json(["bac", "--matrix", "3,1,-1,0", "--k-range=-2:2"])
        jsonschema.validate(data, SPEC_LIST_SCHEMA)
        assert data["exceptional"] is True
        assert data["generator"]["p"] == 1 and data["generator"]["q"] == 1 and data["generator"]["s"] == 2
        assert len(data["specs"]) == 10

    def test_lambda_family(self):
        data = run_json(["bac", "--matrix", "1,1,1,0", "--k-range", "0:0"])
        assert data["exceptional"] is False
        assert len(data["specs"]) == 2
        assert data["specs"][0]["xi"] == {"p": 0, "q": 1, "s": 5, "D": 5, "approx": "0.447213595499958"}

    def test_mac_minimum_3000(self):
        # [[m^2 - 1, m], [m, 1]] has integral minimum m
        data = run_json(["mac", "--matrix=8999999,3000,3000,1"])
        assert data["m"] == 3000
        assert [len(k) for k in data["kernels"]] == [3000] * len(data["specs"])

    def test_mac_kernel_too_large_exits_1(self, capsys):
        # F^21: integral minimum 10946 is above the kernel enumeration limit
        rc, out = run(["mac", "--matrix=17711,10946,10946,6765"])
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == "error: kernel too large to enumerate\n"

    def test_mac_counterexample3(self):
        data = run_json(["mac", "--matrix", "27,11,5,2"])
        jsonschema.validate(data, SPEC_LIST_SCHEMA)
        assert data["m"] == 5
        assert all(s["K"] == 5 for s in data["specs"])


class TestInvariantsComputedOnce:
    @staticmethod
    def _count(monkeypatch, name, modules):
        calls = []
        real = getattr(modules[0], name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        for mod in modules:
            monkeypatch.setattr(mod, name, counted)
        return calls

    def test_one_conjugator_search_per_bac(self, monkeypatch):
        calls = self._count(monkeypatch, "conjugator_to_companion", [coding, glz])
        for matrix, n_specs in (("3,2,1,1", 6), ("13,8,8,5", 0)):
            calls.clear()
            data = run_json(["bac", "--matrix", matrix, "--k-range=-1:1"])
            assert len(calls) == 1
            assert len(data["specs"]) == n_specs

    def test_one_primitivity_check_per_analyze(self, monkeypatch):
        calls = self._count(monkeypatch, "is_primitive", [glz, coding])
        conj = self._count(monkeypatch, "conjugator_to_companion", [coding, glz])
        for matrix, primitive in (("3,2,1,1", True), ("2,1,1,1", False), ("13,8,8,5", False)):
            calls.clear()
            conj.clear()
            data = run_json(["analyze", "--matrix", matrix])
            assert data["primitive"] is primitive
            assert len(calls) == 1 and len(conj) == 1

    def test_one_admissibility_check_per_decode(self, monkeypatch):
        calls = self._count(monkeypatch, "is_admissible", [betasym, coding])
        for point, exact in (("0,0", True), ("1/5,2/5", False), ("2/7,3/11", False)):
            calls.clear()
            data = run_json(["decode", "--matrix", "1,1,1,0", "--param=-1,-1", "--point", point, "--window", "30"])
            assert data["round_trip_exact"] is exact
            assert len(calls) == 1


class TestParserCache:
    ARGVS = (
        ["analyze", "--matrix", "2,1,1,1", "--format", "json"],
        ["decode", "--matrix", "1,1,1,0", "--param=-1,-1", "--point", "1/5,2/5"],
        ["mac", "--matrix", "27,11,5,2"],
        ["bac", "--matrix", "1,1,1,0", "--bogus"],
    )

    def test_cached_parser_matches_fresh(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append((run(argv), capsys.readouterr().err))
        cli._build_parser.cache_clear()
        cached = [(run(argv), capsys.readouterr().err) for argv in self.ARGVS]
        assert cli._build_parser.cache_info().misses == 1
        assert [rc for (rc, _), _ in cached] == [0, 0, 0, 1]
        assert cached == fresh

    def test_help_unchanged(self, capsys):
        for argv in (["--help"], ["decode", "--help"]):
            cli._build_parser.cache_clear()
            assert cli.main(argv) == 0
            fresh = capsys.readouterr().out
            assert run(self.ARGVS[0])[0] == 0
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == fresh
            assert fresh.startswith("usage: torcode")


class TestEncodeDecode:
    def test_encode_zero(self):
        data = run_json(["encode", "--matrix", "1,1,1,0", "--param=-1,-1", "--word", "zero||zero @0"])
        jsonschema.validate(data, POINT_SCHEMA)
        assert data["point"]["x"]["p"] == 0 and data["point"]["x"]["q"] == 0
        assert data["point"]["y"]["p"] == 0 and data["point"]["y"]["q"] == 0

    def test_encode_u0_is_spec_point(self):
        data = run_json(["encode", "--matrix", "1,1,1,0", "--param=-1,-1", "--word", "zero|1|zero @0"])
        assert data["point"]["x"] == {"p": 0, "q": 1, "s": 5, "D": 5, "approx": "0.447213595499958"}

    def test_decode_round_trip(self):
        data = run_json(
            ["decode", "--matrix", "1,1,1,0", "--param=-1,-1", "--point", "1/5,2/5", "--window", "40"]
        )
        jsonschema.validate(data, POINT_SCHEMA)
        assert data["word"].startswith("zero|")

    def test_decode_exact_round_trip_flag(self):
        data = run_json(["decode", "--matrix", "1,1,1,0", "--param=-1,-1", "--point", "0,0", "--window", "10"])
        assert data["round_trip_exact"] is True

    def test_decode_rejects_non_bac(self):
        rc, _ = run(["decode", "--matrix", "1,1,1,0", "--param", "3,1", "--point", "0,0"])
        assert rc == 1

    def test_encode_rejects_inadmissible(self):
        rc, _ = run(["encode", "--matrix", "1,1,1,0", "--param=-1,-1", "--word", "zero|1 1|zero @0"])
        assert rc == 1

    def test_bad_window(self):
        rc, _ = run(["decode", "--matrix", "1,1,1,0", "--param=-1,-1", "--point", "0,0", "--window", "0"])
        assert rc == 1


class TestForms:
    def test_min(self):
        data = run_json(["forms", "min", "11,-25,-5"])
        jsonschema.validate(data, FORMS_SCHEMA)
        assert data["minimum"] == 5

    def test_min_with_brute_bound(self):
        data = run_json(["forms", "min", "3,-4,-2", "--bound", "60"])
        assert data["minimum"] == 2

    def test_equiv_none(self):
        data = run_json(["forms", "equiv", "--", "5,-1,-1", "-5,1,1"], flags_first=True)
        jsonschema.validate(data, FORMS_SCHEMA)
        assert data["equivalent"] is False

    def test_equiv_witness(self):
        data = run_json(["forms", "equiv", "1,-1,-1", "1,1,-1"])
        assert data["equivalent"] is True
        assert data["transform"]["det"] in (1, -1)

    def test_represent(self):
        data = run_json(["forms", "represent", "9,-79,-9", "--target", "9"])
        jsonschema.validate(data, FORMS_SCHEMA)
        assert [9, 1] in data["solutions"]

    def test_represent_out_of_range_exit2(self):
        rc, _ = run(["forms", "represent", "1,-1,-1", "--target", "5"])
        assert rc == 2

    def test_reduce_and_cycle(self):
        data = run_json(["forms", "reduce", "9,-79,-9"])
        assert data["reduced"]["disc"] == 6565
        data = run_json(["forms", "cycle", "1,-1,-1"])
        assert len(data["cycle"]) == 2

    def test_rejects_definite_form(self):
        rc, _ = run(["forms", "min", "1,0,1"])
        assert rc == 1


class TestPlot:
    def test_fibonacci_bac(self, tmp_path):
        out = tmp_path / "bac.svg"
        rc, _ = run(["plot", "--matrix", "1,1,1,0", "--param=-1,-1", "--svg", str(out)])
        assert rc == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
        assert len(polygons) == 3  # unit square, digit hexagon, domain
        text = out.read_text()
        assert "area = 1" in text

    def test_expansion_plot_has_kernel_dots(self, tmp_path):
        out = tmp_path / "phi1.svg"
        rc, _ = run(["plot", "--matrix", "1,1,1,0", "--param", "3,1", "--svg", str(out)])
        assert rc == 0
        root = ET.parse(out).getroot()
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 5
        assert "area = 5" in out.read_text()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["plot", "--matrix", "5,1,-1,0", "--param=-5,-1", "--svg", str(a)])
        run(["plot", "--matrix", "5,1,-1,0", "--param=-5,-1", "--svg", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert "area = 1" in a.read_text()
