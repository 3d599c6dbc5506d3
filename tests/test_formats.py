import json
from fractions import Fraction as F

import pytest

from weaksim import (
    FloatBackend,
    FormatError,
    find_weak_similarity,
    new_space,
    snowflake,
)
from weaksim.formats import (
    load_morphism,
    load_space,
    load_table,
    morphism_from_obj,
    morphism_to_obj,
    save_morphism,
    save_space,
    save_table,
    space_from_csv,
    space_from_json,
    space_to_csv,
    space_to_json,
    space_to_obj,
    table_from_obj,
    table_to_obj,
)
from weaksim.transforms import function_table

RATIONAL_SPACE = new_space(
    ["a", "b", "c"],
    [[0, F(3, 2), 2], [F(3, 2), 0, 1], [2, 1, 0]],
)


class TestPinnedBytes:
    """A rational space is written from its distinct values, a float one
    entry by entry (each keeps its own digits, -0 included): the bytes of
    both stay as they were when every entry was formatted."""

    RATIONAL = new_space(["b", "a", "c"], [["0", "0.5", 3], ["2/4", 0, F(7, 3)], [3, "14/6", "-0"]])
    FLOAT = new_space(
        ["q", "p", "r"], [[0, 1.0, 0.1], [1.0000000001, 0, 2.5], [0.1, "2.5", -0.0]], FloatBackend()
    )

    def test_rational_json(self):
        rows = [["0", "1/2", "3"], ["1/2", "0", "7/3"], ["3", "7/3", "0"]]
        expected = '{\n  "labels": [\n    "b",\n    "a",\n    "c"\n  ],\n  "backend": "rational",\n  "matrix": [\n'
        expected += ",\n".join("    [\n" + ",\n".join(f'      "{v}"' for v in row) + "\n    ]" for row in rows)
        assert space_to_json(self.RATIONAL) == expected + "\n  ]\n}\n"

    def test_rational_csv(self):
        assert space_to_csv(self.RATIONAL) == "b,a,c\n0,1/2,3\n1/2,0,7/3\n3,7/3,0\n"

    def test_float_json(self):
        rows = [["0", "1", "0.10000000000000001"], ["1.0000000001", "0", "2.5"], ["0.10000000000000001", "2.5", "-0"]]
        expected = (
            '{\n  "labels": [\n    "q",\n    "p",\n    "r"\n  ],\n'
            '  "backend": {\n    "float": {\n      "epsilon": "1e-09"\n    }\n  },\n  "matrix": [\n'
        )
        expected += ",\n".join("    [\n" + ",\n".join(f'      "{v}"' for v in row) + "\n    ]" for row in rows)
        assert space_to_json(self.FLOAT) == expected + "\n  ]\n}\n"


class TestSpaceJson:
    @pytest.mark.parametrize(
        "space",
        [
            new_space(["only"], [[0]]),
            new_space(["only"], [["0"]], FloatBackend(1e-6)),
            new_space(['say "hi"', "back\\slash", "caf\u00e9 \u2713", "\ud800", "tab\t"], [[abs(i - j) for j in range(5)] for i in range(5)]),
            new_space(["\ud800", "x"], [[0, 0.1], [0.1, 0]], FloatBackend()),
            RATIONAL_SPACE,
            snowflake(RATIONAL_SPACE, F(1, 2)),
        ],
        ids=["one-point", "one-point-float", "escaped-labels", "escaped-float", "rational", "snowflake"],
    )
    def test_json_is_the_indented_dump_of_the_space_object(self, space):
        assert space_to_json(space) == json.dumps(space_to_obj(space), indent=2) + "\n"

    def test_rational_roundtrip_is_byte_exact(self):
        text = space_to_json(RATIONAL_SPACE)
        again = space_to_json(space_from_json(text))
        assert text == again

    def test_rational_strings_and_decimals_parse_exactly(self):
        text = """
        {"labels": ["a", "b"], "backend": "rational",
         "matrix": [["0", "1.5"], ["3/2", "0"]]}
        """
        s = space_from_json(text)
        assert s.dist("a", "b") == F(3, 2)

    def test_raw_json_numbers_parse_exactly(self):
        text = '{"labels": ["a", "b"], "backend": "rational", "matrix": [[0, 0.1], [0.1, 0]]}'
        s = space_from_json(text)
        assert s.dist("a", "b") == F(1, 10)  # exact decimal, not binary float

    def test_float_backend_roundtrip(self):
        s = snowflake(RATIONAL_SPACE, F(1, 2))
        assert isinstance(s.backend, FloatBackend)
        text = space_to_json(s)
        loaded = space_from_json(text)
        assert loaded == s
        assert space_to_json(loaded) == text

    def test_unknown_backend_rejected(self):
        with pytest.raises(FormatError):
            space_from_json('{"labels": ["a"], "backend": "decimal", "matrix": [[0]]}')

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "space.json")
        save_space(path, RATIONAL_SPACE)
        assert load_space(path) == RATIONAL_SPACE


class TestSpaceCsv:
    def test_roundtrip(self):
        text = space_to_csv(RATIONAL_SPACE)
        assert space_from_csv(text) == RATIONAL_SPACE
        assert space_to_csv(space_from_csv(text)) == text

    def test_header_and_values(self):
        assert space_to_csv(RATIONAL_SPACE).splitlines()[0] == "a,b,c"
        assert "3/2" in space_to_csv(RATIONAL_SPACE)

    def test_float_epsilon_parse(self):
        text = "a,b\n0,1.5\n1.5,0\n"
        s = space_from_csv(text, epsilon=1e-6)
        assert isinstance(s.backend, FloatBackend)
        assert s.backend.epsilon == 1e-6

    def test_float_space_has_no_csv_form(self):
        s = snowflake(RATIONAL_SPACE, F(1, 2))
        with pytest.raises(FormatError):
            space_to_csv(s)

    def test_size_mismatch_rejected(self):
        with pytest.raises(FormatError):
            space_from_csv("a,b\n0,1\n")

    def test_csv_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "space.csv")
        save_space(path, RATIONAL_SPACE)
        assert load_space(path) == RATIONAL_SPACE


class TestFunctionTableFormat:
    def test_roundtrip(self, tmp_path):
        t = function_table([(0, 0), (F(1, 2), F(1, 3)), (2, 5)])
        assert table_from_obj(table_to_obj(t)) == t
        path = str(tmp_path / "table.json")
        save_table(path, t)
        assert load_table(path) == t

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            table_from_obj({"rows": []})


class TestMorphismFormat:
    def test_roundtrip(self, tmp_path):
        X = RATIONAL_SPACE
        Y, _ = (
            new_space(["p", "q", "r"], [[0, 3, 4], [3, 0, 2], [4, 2, 0]]),
            None,
        )
        ws = find_weak_similarity(X, Y)
        assert ws is not None
        obj = morphism_to_obj(ws)
        assert obj["verified"] is True
        assert morphism_from_obj(obj, X, Y) == ws
        path = str(tmp_path / "morphism.json")
        save_morphism(path, ws)
        assert load_morphism(path, X, Y) == ws

    def test_classification_encodings(self):
        X = new_space(["a", "b"], [[0, 1], [1, 0]])
        Y = new_space(["p", "q"], [[0, 3], [3, 0]])
        ws = find_weak_similarity(X, Y)
        assert morphism_to_obj(ws)["classification"] == {"similarity": "3"}
        self_ws = find_weak_similarity(X, X)
        assert morphism_to_obj(self_ws)["classification"] == "isometry"
