import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import weaksim
from weaksim import FloatBackend, new_space, random_metric, random_ultrametric, segment_grid
from weaksim.cli import run
from weaksim.formats import load_space, save_morphism, save_space, save_table
from weaksim.transforms import function_table, linear_table, power_table

HULL_TABLE = function_table(
    list(zip(["0", "1/40", "3/7", "1", "2"], ["0", "1/30", "2/5", "9/10", "17/10"]))
)


def invoke(capsys, *argv):
    capsys.readouterr()  # drop output buffered by earlier bare run() calls
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def files(tmp_path):
    paths = {}
    eq = new_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    x = new_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    y = new_space(["p", "q", "r"], [[0, 10, 20], [10, 0, 30], [20, 30, 0]])
    bad_tri = new_space(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    paths["eq"] = str(tmp_path / "eq.json")
    paths["x"] = str(tmp_path / "x.json")
    paths["y"] = str(tmp_path / "y.json")
    paths["bad_tri"] = str(tmp_path / "bad_tri.json")
    save_space(paths["eq"], eq)
    save_space(paths["x"], x)
    save_space(paths["y"], y)
    save_space(paths["bad_tri"], bad_tri)
    paths["square"] = str(tmp_path / "square.json")
    save_table(paths["square"], power_table([0, 1, 2, 3], 2))
    paths["double"] = str(tmp_path / "double.json")
    save_table(paths["double"], linear_table([0, 1, 2, 3], 2))
    paths["dir"] = str(tmp_path)
    return paths


class TestCheck:
    def test_ultrametric_pass(self, capsys, files):
        code, rep = invoke_json(capsys, "check", "--in", files["eq"], "--ultrametric")
        assert code == 0
        assert rep["report"]["result"]["checks"][-1]["ok"] is True

    def test_metric_failure_gives_witness_and_exit_1(self, capsys, files):
        code, rep = invoke_json(capsys, "check", "--in", files["bad_tri"], "--metric")
        assert code == 1
        failing = rep["report"]["result"]["checks"][-1]
        assert failing["ok"] is False
        # d(a,c) = 3 > d(a,b) + d(b,c) = 2
        assert failing["witness"] == ["a", "b", "c"]

    def test_invalid_space_is_a_false_verdict(self, capsys, tmp_path):
        path = str(tmp_path / "asym.json")
        with open(path, "w") as fh:
            json.dump(
                {"labels": ["a", "b"], "backend": "rational", "matrix": [["0", "1"], ["2", "0"]]},
                fh,
            )
        code, rep = invoke_json(capsys, "check", "--in", path)
        assert code == 1
        assert rep["report"]["result"]["checks"][0]["witness"] == ["a", "b"]

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code = run(["check", "--in", str(tmp_path / "nope.json")])
        assert code == 2

    def test_usage_error(self, capsys):
        assert run(["check"]) == 2
        assert run(["frobnicate"]) == 2


class TestDset:
    def test_values(self, capsys, files):
        code, rep = invoke_json(capsys, "dset", "--in", files["x"])
        assert code == 0
        assert rep["report"]["result"]["values"] == ["0", "1", "2", "3"]


class TestMorph:
    def test_find_scaled_pair(self, capsys, files):
        code, rep = invoke_json(capsys, "morph", "find", "--x", files["x"], "--y", files["y"])
        assert code == 0
        morphism = rep["report"]["result"]["morphism"]
        assert morphism["classification"] == {"similarity": "10"}
        assert morphism["verified"] is True
        assert morphism["map"] == {"a": "p", "b": "q", "c": "r"}

    def test_find_mismatch_exits_1(self, capsys, files):
        code, rep = invoke_json(capsys, "morph", "find", "--x", files["x"], "--y", files["eq"])
        assert code == 1
        assert rep["report"]["result"] == {
            "found": False,
            "reason": "not weakly equivalent",
        }

    def test_enum_counts_all_symmetries(self, capsys, files):
        code, rep = invoke_json(
            capsys, "morph", "enum", "--x", files["eq"], "--y", files["eq"]
        )
        assert code == 0
        assert rep["report"]["result"]["count"] == 6

    def test_enum_respects_limit(self, capsys, files):
        code, rep = invoke_json(
            capsys, "morph", "enum", "--x", files["eq"], "--y", files["eq"], "--limit", "2"
        )
        assert rep["report"]["result"]["count"] == 2

    def test_enum_limit_past_sys_maxsize_is_unbounded(self, tmp_path, files):
        argv = ["morph", "enum", "--x", files["eq"], "--y", files["eq"], "--limit"]
        unbounded = run_child(tmp_path, *argv, "0")
        huge = run_child(tmp_path, *argv, str(sys.maxsize + 1))
        assert (huge.returncode, huge.stderr) == (0, "")
        result = json.loads(huge.stdout)["report"]["result"]
        assert result["count"] == 6
        assert result["morphisms"] == json.loads(unbounded.stdout)["report"]["result"]["morphisms"]

    def test_classify_reports_ratio(self, capsys, files):
        code, rep = invoke_json(
            capsys, "morph", "classify", "--x", files["x"], "--y", files["y"]
        )
        assert code == 0
        assert rep["report"]["result"]["classification"] == {"similarity": "10"}

    def test_classify_mismatch_exits_1(self, capsys, files):
        code, rep = invoke_json(capsys, "morph", "classify", "--x", files["x"], "--y", files["eq"])
        assert code == 1
        assert rep["report"]["result"] == {"found": False, "reason": "not weakly equivalent"}

    def test_verify_roundtrip(self, capsys, files, tmp_path):
        morph_path = str(tmp_path / "m.json")
        code, _ = invoke_json(
            capsys,
            "morph", "find", "--x", files["x"], "--y", files["y"], "--out", morph_path,
        )
        assert code == 0
        code, rep = invoke_json(
            capsys,
            "morph", "verify", "--x", files["x"], "--y", files["y"], "--in", morph_path,
        )
        assert code == 0
        assert rep["report"]["result"]["verified"]["ok"] is True

    def test_factorize_grid_morphisms(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_space(a, segment_grid(4, 1))
        save_space(b, segment_grid(4, 2))
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        invoke(capsys, "morph", "find", "--x", a, "--y", b, "--out", m1)
        # the second enumerated morphism is the reversal
        code, rep = invoke_json(capsys, "morph", "enum", "--x", a, "--y", b)
        second = rep["report"]["result"]["morphisms"][1]
        with open(m2, "w") as fh:
            json.dump(second, fh)
        code, rep = invoke_json(
            capsys,
            "morph", "factorize", "--x", a, "--y", b, "--in", m1, m2,
        )
        assert code == 0
        assert rep["report"]["result"]["reproduces"] is True
        assert rep["report"]["result"]["factor"]["classification"] == "isometry"


class TestTransform:
    def test_apply_writes_output(self, capsys, files, tmp_path):
        out = str(tmp_path / "doubled.json")
        code, rep = invoke_json(
            capsys,
            "transform", "apply", "--in", files["x"], "--f", files["double"], "--out", out,
        )
        assert code == 0
        assert rep["report"]["result"]["backend_changed"] is False
        doubled = load_space(out)
        assert doubled.dist("a", "c") == 4

    def test_apply_domain_gap_is_input_error(self, capsys, files, tmp_path):
        narrow = str(tmp_path / "narrow.json")
        save_table(narrow, linear_table([0, 1], 2))
        code = run(["transform", "apply", "--in", files["x"], "--f", narrow])
        assert code == 2

    def test_snowflake_backend_change_warning(self, files, tmp_path, capsys):
        out = str(tmp_path / "snow.json")
        code = run(["transform", "snowflake", "--in", files["x"], "--p", "1/2", "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        assert "rational backend" in captured.err
        rep = json.loads(captured.out)
        assert rep["report"]["result"]["backend_changed"] is True
        assert load_space(out).backend.kind == "float"


class TestSubadditive:
    def test_check_violation(self, capsys, files):
        code, rep = invoke_json(capsys, "subadditive", "check", "--f", files["square"])
        assert code == 1
        result = rep["report"]["result"]
        assert result == {
            "ok": False,
            "x": "2",
            "multiset": ["1", "1"],
            "lhs": "4",
            "rhs": "2",
        }

    def test_check_pass(self, capsys, files):
        code, rep = invoke_json(capsys, "subadditive", "check", "--f", files["double"])
        assert code == 0
        assert rep["report"]["result"] == {"ok": True}

    def test_hull_eval(self, capsys, files):
        code, rep = invoke_json(
            capsys, "subadditive", "hull-eval", "--f", files["double"], "--at", "5/2"
        )
        assert code == 0
        assert rep["report"]["result"] == {"at": "5/2", "value": "6"}

    def test_hull_eval_four_thousand_smallest_points_deep(self, capsys, tmp_path):
        path = str(tmp_path / "hull.json")
        save_table(path, HULL_TABLE)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        start = time.perf_counter()
        try:
            code, rep = invoke_json(capsys, "subadditive", "hull-eval", "--f", path, "--at", "100")
        finally:
            sys.setrecursionlimit(old)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert rep["report"]["result"] == {"at": "100", "value": "85"}

    def test_decimal_table_with_a_large_denominator(self, capsys, tmp_path):
        # points in units of 10^-7: a table, not an input error
        path = str(tmp_path / "fine.json")
        save_table(path, function_table([("0", "0"), ("0.0000001", "1"), ("1", "1")]))
        code, rep = invoke_json(capsys, "subadditive", "check", "--f", path)
        assert code == 0
        assert rep["report"]["result"] == {"ok": True}
        code, rep = invoke_json(capsys, "subadditive", "hull-eval", "--f", path, "--at", "5/3")
        assert code == 0
        assert rep["report"]["result"] == {"at": "5/3", "value": "2"}

    def test_a_witness_too_long_to_list(self, tmp_path):
        # f(1/4) exceeds the cost of 10^400 / 4 copies of the free point 10^-400
        (tmp_path / "t.json").write_text(
            '{"entries": [["1e-400", "0"], ["1/4", "1/3"], ["1", "1"], ["3/2", "7/5"], ["3", "5/2"]]}'
        )
        proc = run_child(tmp_path, "subadditive", "check", "--f", "t.json")
        assert_input_error(proc)
        assert "more than 10000 points" in proc.stderr


class TestFamilyGen:
    @pytest.mark.parametrize(
        "name,extra",
        [
            ("grid", ["--length", "2"]),
            ("snowflake", ["--p", "1/2"]),
            ("random_metric", ["--seed", "7"]),
            ("random_ultrametric", ["--seed", "7"]),
        ],
    )
    def test_single_space_families_roundtrip(self, capsys, tmp_path, name, extra):
        out = str(tmp_path / f"{name}.json")
        code, rep = invoke_json(
            capsys, "family", "gen", "--name", name, "--n", "5", "--out", out, *extra
        )
        assert code == 0
        assert run(["check", "--in", out, "--metric"]) == 0

    def test_paired_family_writes_three_files(self, capsys, tmp_path):
        out = str(tmp_path / "fam.json")
        code, rep = invoke_json(
            capsys, "family", "gen", "--name", "2_6", "--n", "6", "--out", out
        )
        assert code == 0
        files = rep["report"]["result"]["files"]
        assert rep["report"]["result"]["realization_verified"] is True
        assert run(["check", "--in", files["x"], "--ultrametric"]) == 0
        assert run(["check", "--in", files["y"], "--ultrametric"]) == 0
        code2, rep2 = invoke_json(
            capsys,
            "morph", "verify", "--x", files["x"], "--y", files["y"], "--in",
            files["realization"],
        )
        assert code2 == 0

    PAIRED = (
        '"truncation": "finite truncation of an infinite family", '
        '"sequences": {"r_k": "1/k", "p_k": "1 + 1/k"}, "declared_limits": {"r": "0", "p": "1"}}'
    )
    PAIRED_FILES = '{"x": "f.x.json", "y": "f.y.json", "realization": "f.realization.json"}'

    @pytest.mark.parametrize(
        "argv,family,written",
        [
            (["2_6", "--n", "3"], '{"name": "2_6", "n": 3, ' + PAIRED, PAIRED_FILES),
            (["2_6_star", "--n", "4"], '{"name": "2_6_star", "n": 4, ' + PAIRED, PAIRED_FILES),
            (["grid", "--n", "3", "--length", "2"], '{"name": "grid", "n": 3, "length": "2"}', '{"space": "f.json"}'),
            (
                ["snowflake", "--n", "3", "--p", "1/3"],
                '{"name": "snowflake", "n": 3, "truncation": "finite truncation of an infinite family", '
                '"exponent": "1/3"}',
                '{"space": "f.json"}',
            ),
            (["random_metric", "--n", "3", "--seed", "5"], '{"name": "random_metric", "n": 3, "seed": 5}', '{"space": "f.json"}'),
            (
                ["random_ultrametric", "--n", "3", "--seed", "5"],
                '{"name": "random_ultrametric", "n": 3, "seed": 5}',
                '{"space": "f.json"}',
            ),
        ],
    )
    def test_family_block_and_files_are_pinned(self, capsys, tmp_path, monkeypatch, argv, family, written):
        """The report's ``family`` and ``files`` blocks, key order included."""
        monkeypatch.chdir(tmp_path)
        code, rep = invoke_json(capsys, "family", "gen", "--name", *argv, "--out", "f.json")
        assert code == 0
        result = rep["report"]["result"]
        assert json.dumps(result["family"]) == family
        assert json.dumps(result["files"]) == written

    def test_generation_is_deterministic(self, capsys, tmp_path):
        out1 = str(tmp_path / "one.json")
        out2 = str(tmp_path / "two.json")
        run(["family", "gen", "--name", "random_metric", "--n", "6", "--seed", "3", "--out", out1])
        run(["family", "gen", "--name", "random_metric", "--n", "6", "--seed", "3", "--out", out2])
        assert (tmp_path / "one.json").read_text() == (tmp_path / "two.json").read_text()


def written(rep, *paths) -> list:
    """Check that the report's ``outputs`` names exactly ``paths``, each
    with the SHA-256 of the file's bytes; return the JSON files' contents."""
    outputs = rep["report"]["outputs"]
    assert sorted(outputs) == sorted(paths)
    loaded = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        assert outputs[path] == "sha256:" + hashlib.sha256(data).hexdigest()
        loaded.append(json.loads(data) if path.endswith(".json") else None)
    return loaded


class TestOutputs:
    """A file a command writes holds what its report shows."""

    @pytest.mark.parametrize("command", ["find", "classify"])
    def test_found_morphism(self, capsys, files, tmp_path, command):
        out = str(tmp_path / "m.json")
        argv = ["morph", command, "--x", files["x"], "--y", files["y"]]
        _, rep = invoke_json(capsys, *argv)
        assert "outputs" not in rep["report"]
        code, rep = invoke_json(capsys, *argv, "--out", out)
        assert code == 0
        assert written(rep, out) == [rep["report"]["result"]["morphism"]]

    def test_factor(self, capsys, files, tmp_path):
        m, out = str(tmp_path / "m.json"), str(tmp_path / "f.json")
        invoke(capsys, "morph", "find", "--x", files["x"], "--y", files["y"], "--out", m)
        code, rep = invoke_json(
            capsys, "morph", "factorize", "--x", files["x"], "--y", files["y"], "--in", m, m, "--out", out
        )
        assert code == 0
        assert written(rep, out) == [rep["report"]["result"]["factor"]]

    def test_float_transforms(self, capsys, files, tmp_path):
        floats = str(tmp_path / "floats.json")
        save_space(floats, new_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 3], [2, 3, 0]], FloatBackend()))
        out = str(tmp_path / "a.json")
        code, rep = invoke_json(capsys, "transform", "apply", "--in", floats, "--f", files["double"], "--out", out)
        assert code == 0
        assert rep["report"]["result"]["backend"] == {"float": {"epsilon": "1e-09"}}
        assert written(rep, out) == [rep["report"]["result"]["space"]]
        out = str(tmp_path / "s.json")
        code, rep = invoke_json(capsys, "transform", "snowflake", "--in", files["x"], "--out", out)
        assert code == 0
        assert rep["report"]["result"]["backend_changed"] is True
        assert written(rep, out) == [rep["report"]["result"]["space"]]

    def test_paired_family(self, capsys, tmp_path):
        code, rep = invoke_json(capsys, "family", "gen", "--name", "2_6", "--n", "4", "--out", str(tmp_path / "f"))
        assert code == 0
        result = rep["report"]["result"]
        paths = result["files"]
        realization = written(rep, paths["x"], paths["y"], paths["realization"])[2]
        assert realization["verified"] is result["realization_verified"] is True

    def test_grid_csv(self, capsys, tmp_path):
        out = str(tmp_path / "g.csv")
        code, rep = invoke_json(capsys, "family", "gen", "--name", "grid", "--n", "5", "--out", out)
        assert code == 0
        written(rep, out)
        assert load_space(out) == segment_grid(5, 1)


class TestDeterminism:
    def test_canonical_report_sections_are_byte_identical(self, capsys, files):
        runs = []
        for _ in range(2):
            _, rep = invoke_json(
                capsys, "morph", "enum", "--x", files["x"], "--y", files["y"]
            )
            runs.append(json.dumps(rep["report"], indent=2))
        assert runs[0] == runs[1]

    def test_text_format(self, capsys, files):
        code, out = invoke(capsys, "check", "--in", files["eq"], "--ultrametric", "--format", "text")
        assert code == 0
        assert "ultrametric" in out


def rook_space():
    """The 4 x 4 rook's graph, 1 apart on a shared row or column and 2 apart
    otherwise: 1,152 weak self-similarities, and no transposition of two
    points is one of them."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    m = [[0 if u == v else 1 if u[0] == v[0] or u[1] == v[1] else 2 for v in cells] for u in cells]
    return new_space([f"v{k:02d}" for k in range(16)], m)


def square(labels, near, far, *backend):
    """Four points on a cycle, ``near`` apart along it and ``far`` across:
    eight isometries."""
    m = [[0 if i == j else near if (i - j) % 2 else far for j in range(4)] for i in range(4)]
    return new_space(labels, m, *backend)


ODD_LABELS = ['a"', "b\\", "ç", "d\x01"]
ODD_TARGETS = ["\x7f", "ü中", 'q"\\', "\t"]


class TestStreamedEnumeration:
    """`morph enum` writes its envelope as the coset walk yields, with the
    bytes of the whole envelope listed, verified map by map and dumped at
    once."""

    @staticmethod
    def listed_report(x, y, limit):
        """The report built whole: every map listed, verified on its own and
        turned into a dict."""
        from weaksim.cli import _digest
        from weaksim.formats import morphism_to_obj
        from weaksim.morphisms import enumerate_weak_similarities, verify

        X, Y = load_space(x), load_space(y)
        found = enumerate_weak_similarities(X, Y, limit=limit or None)
        morphisms = [morphism_to_obj(ws, verify(X, Y, ws.as_map(), ws.scaling).ok) for ws in found]
        return {
            "command": "morph enum",
            "args": {"x": x, "y": y, "limit": limit},
            "inputs": {p: _digest(p) for p in sorted({x, y})},
            "result": {"count": len(morphisms), "limit": limit or None, "morphisms": morphisms},
        }

    def assert_streamed_as_listed(self, capsys, x, y, limit):
        from weaksim.cli import _text_lines

        report = self.listed_report(x, y, limit)
        argv = ["morph", "enum", "--x", x, "--y", y, "--limit", str(limit)]
        code, out = invoke(capsys, *argv)
        assert code == (0 if report["result"]["count"] else 1)
        timing = json.loads(out)["timing"]
        assert out == json.dumps({"report": report, "timing": timing}, indent=2) + "\n"
        assert invoke(capsys, *argv, "--format", "text") == (code, "\n".join(_text_lines(report)) + "\n")
        return report["result"]

    @pytest.mark.parametrize("limit", [1, 2, 7, 8, 0])
    def test_labels_that_need_escaping(self, capsys, tmp_path, limit):
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        save_space(x, square(ODD_LABELS, 1, 2))
        save_space(y, square(ODD_TARGETS, 3, 6))
        result = self.assert_streamed_as_listed(capsys, x, y, limit)
        assert result["count"] == (limit or 8)
        assert {m["classification"]["similarity"] for m in result["morphisms"]} == {"3"}

    def test_a_float_backed_pair(self, capsys, tmp_path):
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        save_space(x, square(list("abcd"), 0.1, 0.25, FloatBackend(1e-9)))
        save_space(y, square(list("pqrs"), 2, 5))
        result = self.assert_streamed_as_listed(capsys, x, y, 0)
        assert result["count"] == 8
        assert result["morphisms"][0]["scaling"][1] == ["2", "0.10000000000000001"]

    def test_no_weak_similarity(self, capsys, tmp_path):
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        save_space(x, square(list("abcd"), 1, 2))
        save_space(y, new_space(list("pqrs"), [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]]))
        result = self.assert_streamed_as_listed(capsys, x, y, 0)
        assert result == {"count": 0, "limit": None, "morphisms": []}

    def test_a_generator_that_is_no_isometry_unverifies_every_map(self, capsys, tmp_path, monkeypatch):
        """phi and the strong generators are checked once, and a failed
        check marks the whole enumeration; no map is verified on its own."""
        from weaksim import morphisms

        path = str(tmp_path / "rook.json")
        save_space(path, rook_space())
        argv = ("morph", "enum", "--x", path, "--y", path, "--limit", "0")
        monkeypatch.setattr(morphisms, "verify", None)  # a call per map would raise
        code, rep = invoke_json(capsys, *argv)
        assert [m["verified"] for m in rep["report"]["result"]["morphisms"]] == [True] * 1152
        chain_of = morphisms._stabilizer_chain

        def broken(search, phi):
            chain = chain_of(search, phi)
            g = next(edge[0] for edge in chain[-1].values() if edge)
            g[0], g[1] = g[1], g[0]  # g composed with a transposition, which rook's graph lacks
            return chain

        monkeypatch.setattr(morphisms, "_stabilizer_chain", broken)
        code, rep = invoke_json(capsys, *argv)
        assert code == 0
        assert rep["report"]["result"]["count"] == 1152
        assert [m["verified"] for m in rep["report"]["result"]["morphisms"]] == [False] * 1152


# Runs `weaksim` with the arguments given and prints its exit code, wall
# time, peak RSS and the first and last 64 KiB of its output, which is read
# as it comes, never held whole.
CLI_PEAK = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "weaksim", *sys.argv[1:]], stdout=subprocess.PIPE)
head = tail = proc.stdout.read(1 << 16)
for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
    tail = (tail + chunk)[-(1 << 16):]
code = proc.wait()
print(json.dumps({
    "code": code,
    "seconds": time.perf_counter() - start,
    "peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    "head": head.decode(),
    "tail": tail.decode(),
}))
"""

LIBRARY_PEAK = """
import json, resource
from weaksim import enumerate_weak_similarities, random_ultrametric
X = random_ultrametric(48, 0)
found = enumerate_weak_similarities(X, X, limit=None)
print(json.dumps({
    "count": len(found),
    "first": found[0].as_map(),
    "last": found[-1].as_map(),
    "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_script(tmp_path, script, *argv):
    src = os.path.dirname(os.path.dirname(weaksim.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_every_map_of_a_48_point_ultrametric_within_bounds(tmp_path):
    """`random_ultrametric(48, 0)` has 2^16 automorphisms.  Listing them
    all took 52 s and 2.53 GB through the CLI, and 244 MB in-process, when
    each map was a dict verified on its own and the envelope was dumped
    whole; streamed, they take about 2 s and 22 MB, and 51 MB in-process,
    on a 2-vCPU guest (ru_maxrss is in KiB on Linux)."""
    save_space(str(tmp_path / "u.json"), random_ultrametric(48, 0))
    cli = run_script(tmp_path, CLI_PEAK, "morph", "enum", "--x", "u.json", "--y", "u.json", "--limit", "0")
    lib = run_script(tmp_path, LIBRARY_PEAK)
    assert cli["code"] == 0
    assert '"count": 65536' in cli["head"]
    maps = re.compile(r'"map": (\{[^}]*\})')
    first, last = json.loads(maps.findall(cli["head"])[0]), json.loads(maps.findall(cli["tail"])[-1])
    assert lib["count"] == 65536
    assert (first, last) == (lib["first"], lib["last"])
    assert cli["seconds"] < 20
    assert cli["peak_mb"] < 100
    assert lib["peak_mb"] < 160


class TestCorruptMorphismFile:
    def test_swapped_scaling_entries_are_an_input_error(self, capsys, files, tmp_path):
        morph_path = str(tmp_path / "m.json")
        invoke(capsys, "morph", "find", "--x", files["x"], "--y", files["y"], "--out", morph_path)
        with open(morph_path) as fh:
            obj = json.load(fh)
        obj["scaling"][1], obj["scaling"][2] = obj["scaling"][2], obj["scaling"][1]
        with open(morph_path, "w") as fh:
            json.dump(obj, fh)
        code = run(["morph", "verify", "--x", files["x"], "--y", files["y"], "--in", morph_path])
        assert code == 2  # the table is no longer strictly increasing

    def test_wrong_map_is_a_false_verdict(self, capsys, files, tmp_path):
        morph_path = str(tmp_path / "m.json")
        invoke(capsys, "morph", "find", "--x", files["x"], "--y", files["y"], "--out", morph_path)
        with open(morph_path) as fh:
            obj = json.load(fh)
        obj["map"] = {"a": "r", "b": "q", "c": "p"}  # wrong assignment, still a bijection
        with open(morph_path, "w") as fh:
            json.dump(obj, fh)
        code, rep = invoke_json(
            capsys, "morph", "verify", "--x", files["x"], "--y", files["y"], "--in", morph_path
        )
        assert code == 1
        assert rep["report"]["result"]["verified"]["ok"] is False
        assert rep["report"]["result"]["verified"]["witness"] == ["a", "b"]


SPACE_FILES = {
    "non_numeric_entry": '{"labels": ["a", "b"], "backend": "rational", '
    '"matrix": [["0", "x"], ["x", "0"]]}',
    "invalid_json": '{"labels": ["a", "b"], "backend": ',
    "mismatched_dimensions": '{"labels": ["a", "b"], "backend": "rational", '
    '"matrix": [["0", "1"], ["1", "0", "2"]]}',
    "empty_label_list": '{"labels": [], "backend": "rational", "matrix": []}',
    # not a matrix: the string labels and rows would split into characters
    "labels_string": '{"labels": "ab", "backend": "rational", "matrix": [["0", "1"], ["1", "0"]]}',
    "labels_object": '{"labels": {"a": 1, "b": 2}, "backend": "rational", '
    '"matrix": [["0", "1"], ["1", "0"]]}',
    "row_strings": '{"labels": ["a", "b"], "backend": "rational", "matrix": ["01", "10"]}',
    "matrix_string": '{"labels": ["a"], "backend": "rational", "matrix": "0"}',
    "boolean_entries": '{"labels": ["a", "b"], "backend": "rational", '
    '"matrix": [[false, true], [true, false]]}',
    "null_entry": '{"labels": ["a", "b"], "backend": "rational", "matrix": [[null, "1"], ["1", "0"]]}',
    "array_entry": '{"labels": ["a", "b"], "backend": "rational", "matrix": [["0", ["1"]], [["1"], "0"]]}',
    # non-finite floats and tolerances
    "float_nan": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": "1e-9"}}, '
    '"matrix": [["0", "nan"], ["nan", "0"]]}',
    "float_inf": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": "1e-9"}}, '
    '"matrix": [["0", "inf"], ["inf", "0"]]}',
    "float_overflow": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": "1e-9"}}, '
    '"matrix": [["0", 1e400], [1e400, "0"]]}',
    "float_big_integer": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": "1e-9"}}, '
    f'"matrix": [["0", {"9" * 400}], [{"9" * 400}, "0"]]}}',
    "epsilon_big_integer": f'{{"labels": ["a", "b"], "backend": {{"float": {{"epsilon": {"9" * 400}}}}}, '
    '"matrix": [["0", "1"], ["1", "0"]]}',
    "epsilon_boolean": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": true}}, '
    '"matrix": [["0", "1"], ["1", "0"]]}',
    "epsilon_nan": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": "nan"}}, '
    '"matrix": [["0", "1"], ["1", "0"]]}',
    "epsilon_zero": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": 0}}, '
    '"matrix": [["0", "1"], ["1", "0"]]}',
    "epsilon_text": '{"labels": ["a", "b"], "backend": {"float": {"epsilon": "x"}}, '
    '"matrix": [["0", "1"], ["1", "0"]]}',
    "float_not_an_object": '{"labels": ["a", "b"], "backend": {"float": 1}, '
    '"matrix": [["0", "1"], ["1", "0"]]}',
}


def chain_space_file(o_to_a="1"):
    """Distances from o that chain within the tolerance 1e-9 (1, 1 + 0.9e-9,
    1 + 1.8e-9) while the chain's ends do not compare equal, so grouping
    them into ranks is ambiguous; ``o_to_a`` sets d(o, a) alone, d(a, o)
    stays 1."""
    mid, end = "1.0000000009", "1.0000000018"
    matrix = [["0", "5", "5", "1"], ["5", "0", "5", mid], ["5", "5", "0", end], [o_to_a, mid, end, "0"]]
    backend = {"float": {"epsilon": "1e-9"}}
    return json.dumps({"labels": ["a", "b", "c", "o"], "backend": backend, "matrix": matrix})


def run_child(tmp_path, *argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(weaksim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "weaksim", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


def assert_input_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestInputErrors:
    """Malformed input exits 2 with one line on stderr: exit 1 is reserved
    for false verdicts."""

    @pytest.mark.parametrize("case", sorted(SPACE_FILES))
    def test_malformed_space_file(self, tmp_path, case):
        (tmp_path / "s.json").write_text(SPACE_FILES[case])
        assert_input_error(run_child(tmp_path, "check", "--in", "s.json", "--metric"))

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1e-9", "0"])
    def test_csv_epsilon_must_be_finite_and_positive(self, tmp_path, epsilon):
        (tmp_path / "s.csv").write_text("a,b\n0,1\n1,0\n")
        assert_input_error(run_child(tmp_path, "check", "--in", "s.csv", f"--epsilon={epsilon}"))

    @pytest.mark.parametrize("epsilon", ["nan", "1e-9"])
    def test_json_space_file_takes_no_epsilon(self, tmp_path, epsilon):
        save_space(str(tmp_path / "s.json"), new_space(["a", "b"], [[0, 1], [1, 0]]))
        assert run_child(tmp_path, "check", "--in", "s.json").returncode == 0
        assert_input_error(run_child(tmp_path, "check", "--in", "s.json", f"--epsilon={epsilon}"))

    def test_an_ambiguous_float_ranking_is_an_input_error(self, tmp_path):
        (tmp_path / "s.json").write_text(chain_space_file())
        proc = run_child(tmp_path, "check", "--in", "s.json")
        assert_input_error(proc)
        assert "chain within tolerance" in proc.stderr

    def test_a_matrix_that_is_not_a_semimetric_fails_before_its_ranking(self, tmp_path):
        """The ambiguous chain in an asymmetric matrix is a false verdict
        with the first offending pair, not an input error."""
        (tmp_path / "s.json").write_text(chain_space_file(o_to_a="1.0000000018"))
        proc = run_child(tmp_path, "check", "--in", "s.json")
        assert proc.returncode == 1 and proc.stderr == ""
        checks = json.loads(proc.stdout)["report"]["result"]["checks"]
        assert checks == [{"name": "semimetric", "ok": False, "witness": ["a", "o"], "reason": "asymmetric"}]

    @pytest.mark.parametrize(
        "argv",
        [
            ["morph", "find", "--x", "s.json", "--y", "s.json", "--format", "text"],
            ["transform", "snowflake", "--in", "s.json", "--p", "2", "--out", "y.csv"],
        ],
    )
    def test_a_label_that_utf8_cannot_encode(self, tmp_path, argv):
        """JSON's \\ud800 escape loads as a lone surrogate, which neither the
        text report nor a written file can hold."""
        (tmp_path / "s.json").write_text('{"labels": ["\\ud800", "b"], "backend": "rational", '
                                         '"matrix": [["0", "1"], ["1", "0"]]}')
        assert_input_error(run_child(tmp_path, *argv))
        assert not (tmp_path / "y.csv").exists()

    def test_csv_float_entries_must_be_finite(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n0,inf\ninf,0\n")
        assert_input_error(run_child(tmp_path, "check", "--in", "s.csv", "--epsilon", "1e-9"))

    @pytest.mark.parametrize(
        "entries", ['["00", "11"]', '[[false, false], [true, true]]', '"0011"', '[[0, 0], [1, null]]']
    )
    def test_table_entries_must_be_pairs_of_numbers(self, tmp_path, entries):
        (tmp_path / "t.json").write_text(f'{{"entries": {entries}}}')
        assert_input_error(run_child(tmp_path, "subadditive", "check", "--f", "t.json"))

    @pytest.mark.parametrize("p, code", [("1/2", 0), ("1/3", 2)])
    def test_snowflake_of_a_distance_past_the_float_range(self, tmp_path, p, code):
        save_space(str(tmp_path / "s.json"), new_space(["a", "b"], [[0, 10**400], [10**400, 0]]))
        proc = run_child(tmp_path, "transform", "snowflake", "--in", "s.json", "--p", p)
        if code == 2:
            assert_input_error(proc)
        else:
            assert proc.returncode == 0 and proc.stderr == ""
            result = json.loads(proc.stdout)["report"]["result"]
            assert result["backend_changed"] is False
            assert result["space"]["matrix"][0][1] == str(10**200)

    @pytest.mark.parametrize(
        "entries", [[["0", "0"], ["1", "1"], [str(10**400), "2"]], [["0", "0"], ["1.5", str(10**400)]]]
    )
    def test_apply_with_table_numbers_past_the_float_range(self, tmp_path, entries):
        space = new_space(["a", "b"], [[0, 1.5], [1.5, 0]], FloatBackend())
        save_space(str(tmp_path / "s.json"), space)
        (tmp_path / "t.json").write_text(json.dumps({"entries": entries}))
        assert_input_error(run_child(tmp_path, "transform", "apply", "--in", "s.json", "--f", "t.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["subadditive", "check", "--f", "t.json"],
            ["subadditive", "check", "--f", "far.json"],
            ["dset", "--in", "big.json"],
            ["morph", "find", "--x", "big.json", "--y", "big.json"],
            ["transform", "snowflake", "--in", "mid.json", "--p", "2"],
        ],
    )
    def test_values_past_the_int_print_limit(self, tmp_path, argv):
        # Python prints no integer of more than 4,300 digits; "1e99999999"
        # is refused before its power of ten is computed, which takes minutes
        def two_points(d):
            return {"labels": ["a", "b"], "backend": "rational", "matrix": [["0", d], [d, "0"]]}

        files = {
            "t.json": {"entries": [["1", "1"], ["2", "1e5000"]]},
            "far.json": {"entries": [["1", "1"], ["2", "1e99999999"]]},
            "big.json": two_points("1e5000"),
            "mid.json": two_points("1e2500"),  # its square is past the limit
        }
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        assert_input_error(run_child(tmp_path, *argv))

    @pytest.mark.parametrize("first", [[[False, "0"], [True, "1"]], [[None, "0"], ["1", "1"]]])
    def test_morphism_scaling_entries_must_be_numbers(self, files, tmp_path, first):
        morph_path = str(tmp_path / "m.json")
        assert run(["morph", "find", "--x", files["x"], "--y", files["x"], "--out", morph_path]) == 0
        obj = json.loads((tmp_path / "m.json").read_text())
        obj["scaling"][:2] = first
        (tmp_path / "m.json").write_text(json.dumps(obj))
        proc = run_child(tmp_path, "morph", "verify", "--x", files["x"], "--y", files["x"], "--in", "m.json")
        assert_input_error(proc)

    def test_family_too_small(self, tmp_path):
        proc = run_child(tmp_path, "family", "gen", "--name", "grid", "--n", "1", "--out", "g.json")
        assert_input_error(proc)
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("sub", ["enum", "verify"])
    def test_out_is_not_accepted_where_nothing_is_written(self, capsys, files, tmp_path, sub):
        pair = ["--x", files["x"], "--y", files["y"]]
        morph_path = str(tmp_path / "m.json")
        assert run(["morph", "find", *pair, "--out", morph_path]) == 0
        extra = ["--in", morph_path] if sub == "verify" else []
        assert run(["morph", sub, *pair, *extra]) == 0
        assert run(["morph", sub, *pair, *extra, "--out", str(tmp_path / "o.json")]) == 2

    def test_negative_enum_limit_is_a_usage_error(self, capsys, files):
        pair = ["--x", files["eq"], "--y", files["eq"]]
        assert run(["morph", "enum", *pair, "--limit", "0"]) == 0
        assert run(["morph", "enum", *pair, "--limit", "-1"]) == 2

    @pytest.mark.parametrize("sub", [["check"], ["hull-eval", "--at", "5/2"]])
    def test_epsilon_is_not_accepted_where_no_space_is_read(self, capsys, files, sub):
        argv = ["subadditive", *sub, "--f", files["double"]]
        assert run(argv) == 0
        assert run([*argv, "--epsilon", "1e-6"]) == 2


class TestClosedPipe:
    """A reader that stops early (`| head -c 20`) gets no traceback."""

    @pytest.mark.parametrize(
        "argv,nbytes",
        [
            # an envelope far larger than a pipe buffer, so the write meets
            # the closed pipe after the reader took a few bytes
            (["transform", "snowflake", "--in", "grid.json", "--p", "1"], 20),
            # a small envelope, with the pipe closed before the child writes
            (["subadditive", "hull-eval", "--f", "hull.json", "--at", "100"], 0),
            # an enumeration streamed as it is walked, closed mid-stream
            (["morph", "enum", "--x", "rook.json", "--y", "rook.json", "--limit", "0"], 1),
        ],
    )
    def test_reader_closing_early(self, tmp_path, argv, nbytes):
        save_space(str(tmp_path / "grid.json"), segment_grid(150, 1))
        save_space(str(tmp_path / "rook.json"), rook_space())
        save_table(str(tmp_path / "hull.json"), HULL_TABLE)
        src = os.path.dirname(os.path.dirname(weaksim.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "weaksim", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(nbytes) == b'{\n  "report": {\n    '[:nbytes]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode in (0, 1)


LOADED_MODULES = """
import contextlib, io, json, sys
from weaksim.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

HEAVY = {"weaksim.morphisms", "weaksim.transforms", "weaksim.families"}
# the one heavy module each command group runs; `check` and `dset` run none
RUNS = {"morph": "weaksim.morphisms", "transform": "weaksim.transforms",
        "subadditive": "weaksim.transforms"}


class TestImports:
    """Each command imports only the modules it runs."""

    @pytest.fixture
    def inputs(self, tmp_path, files):
        morphism = str(tmp_path / "m.json")
        X, Y = load_space(files["x"]), load_space(files["y"])
        save_morphism(morphism, weaksim.find_weak_similarity(X, Y))
        return {**files, "m": morphism}

    def loaded(self, tmp_path, argv):
        src = os.path.dirname(os.path.dirname(weaksim.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["code"] == 0
        return set(out["modules"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--in", "{eq}", "--metric", "--ultrametric"],
            ["dset", "--in", "{x}"],
            ["morph", "find", "--x", "{x}", "--y", "{y}"],
            ["morph", "enum", "--x", "{x}", "--y", "{y}"],
            ["morph", "classify", "--x", "{x}", "--y", "{y}"],
            ["morph", "verify", "--x", "{x}", "--y", "{y}", "--in", "{m}"],
            ["morph", "factorize", "--x", "{x}", "--y", "{y}", "--in", "{m}", "{m}"],
            ["transform", "apply", "--in", "{x}", "--f", "{double}"],
            ["transform", "snowflake", "--in", "{x}", "--p", "1"],
            ["subadditive", "check", "--f", "{double}"],
            ["subadditive", "hull-eval", "--f", "{double}", "--at", "5/2"],
        ],
        ids=lambda argv: " ".join(argv[:2]).replace(" --in", ""),
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, inputs, argv):
        loaded = self.loaded(tmp_path, [arg.format(**inputs) for arg in argv])
        assert loaded & HEAVY <= {RUNS.get(argv[0])}

    def test_version_loads_no_space_code(self, tmp_path):
        loaded = self.loaded(tmp_path, ["--version"])
        assert "weaksim.cli" in loaded
        assert loaded & (HEAVY | {"weaksim.spaces", "weaksim.formats"}) == set()
