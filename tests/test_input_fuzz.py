"""Fuzzed space and table files keep the CLI's exit-code contract.

Valid files are mutated (truncated text, bad numbers, wrong sizes,
non-increasing domains) and fed to `check`, `transform snowflake`,
`transform apply`, `subadditive check` and `subadditive hull-eval`.
Whatever the input, the CLI exits 0, 1 or 2 without a traceback: 0 and 1
print a report, 2 prints nothing on stdout and one `error:` line on stderr.
An exception escaping `run` fails the test, as it would print a traceback.
A run that takes more than RUN_SECONDS fails it too, rather than stalling
the suite.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weaksim.cli import run

SPACE = {
    "labels": ["a", "b", "c", "d"],
    "backend": "rational",
    "matrix": [
        ["0", "1", "2", "3/2"],
        ["1", "0", "1", "1/2"],
        ["2", "1", "0", "5/4"],
        ["3/2", "1/2", "5/4", "0"],
    ],
}
TABLE = {"entries": [["0", "0"], ["1/4", "1/3"], ["1", "1"], ["3/2", "7/5"], ["3", "5/2"]]}
FLOAT_SPACE = {
    "labels": SPACE["labels"],
    "backend": {"float": {"epsilon": "1e-9"}},
    "matrix": [[str(float(Fraction(v))) for v in row] for row in SPACE["matrix"]],
}
# covers every distance of SPACE
APPLY_TABLE = {
    "entries": [["0", "0"], ["1/2", "1/3"], ["1", "1"], ["5/4", "6/5"], ["3/2", "7/5"], ["2", "3/2"]]
}

BAD_NUMBERS = [
    "x", "", "1/0", "-1", "-1/3", "nan", "inf", "-inf", "1e400", "1e-400",
    "0.5.5", "3/-4", " 7 ", "1_0", "0x10", None, [], {}, True, 1.5, -2, 10**30, "1e5000",
]


@st.composite
def mutated(draw, base):
    obj = json.loads(json.dumps(base))
    key = "matrix" if "matrix" in obj else "entries"
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["number", "drop_row", "drop_cell", "extra_cell", "swap", "duplicate", "label", "key"]))
        rows = obj.get(key, [])
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        if kind == "number" and cells:
            i, j = draw(st.sampled_from(cells))
            rows[i][j] = draw(st.sampled_from(BAD_NUMBERS))
        elif kind == "drop_row" and rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
        elif kind == "drop_cell" and rows and rows[0]:
            rows[draw(st.integers(0, len(rows) - 1))][:1] = []
        elif kind == "extra_cell" and rows:
            rows[draw(st.integers(0, len(rows) - 1))].append("1")
        elif kind in ("swap", "duplicate") and len(rows) >= 2:
            i = draw(st.integers(0, len(rows) - 2))
            if kind == "swap":  # a non-increasing domain, or an asymmetric matrix
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
            else:
                rows[i + 1] = list(rows[i])
        elif kind == "label" and "labels" in obj:
            obj["labels"] = draw(st.sampled_from([["a", "a", "c", "d"], ["a", "b"], [], "abcd", [1, 2, 3, 4]]))
        elif kind == "key" and obj:
            obj.pop(draw(st.sampled_from(sorted(obj))))
    text = json.dumps(obj)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


RUN_SECONDS = 10


class RanTooLong(Exception):
    """Not an OSError, which `run` would report as an input error."""


def run_captured(*argv):
    def expire(signum, frame):
        raise RanTooLong(f"{argv} ran for more than {RUN_SECONDS} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert "report" in json.loads(out)


fuzz = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(text=mutated(SPACE))
@fuzz
def test_mutated_space_file(tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text)
    assert_contract(*run_captured("check", "--in", str(path), "--metric", "--ultrametric"))


@given(text=mutated(SPACE), p=st.sampled_from(["1/2", "1/3", "2"]))
@fuzz
def test_mutated_space_file_snowflake(tmp_path, text, p):
    path = tmp_path / "space.json"
    path.write_text(text)
    assert_contract(*run_captured("transform", "snowflake", "--in", str(path), "--p", p))


@given(text=mutated(APPLY_TABLE))
@fuzz
def test_mutated_table_applied_to_a_float_space(tmp_path, text):
    space, table = tmp_path / "space.json", tmp_path / "table.json"
    space.write_text(json.dumps(FLOAT_SPACE))
    table.write_text(text)
    assert_contract(*run_captured("transform", "apply", "--in", str(space), "--f", str(table)))


@given(text=mutated(TABLE), at=st.sampled_from(["5/2", "0", "1e9", "1/7", "-1", "x"]))
@fuzz
def test_mutated_table_file(tmp_path, text, at):
    path = tmp_path / "table.json"
    path.write_text(text)
    assert_contract(*run_captured("subadditive", "check", "--f", str(path)))
    assert_contract(*run_captured("subadditive", "hull-eval", "--f", str(path), "--at", at))
