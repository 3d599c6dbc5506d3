"""On-disk formats: space files (JSON / CSV), function tables, morphism reports.

Rational values travel as strings ("3/2", or decimal strings parsed exactly);
float-backed values are written with 17 significant digits so they round-trip
bit-exactly.  Loading accepts raw JSON numbers as well: float literals are
handed over as their source text and parsed exactly, never through a binary
float.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, Union

from .backends import (
    DEFAULT_EPSILON,
    RATIONAL,
    Backend,
    FloatBackend,
    RationalBackend,
)
from .errors import FormatError
from .spaces import Space, new_space

if TYPE_CHECKING:
    from .morphisms import Classification, WeakSimilarity
    from .transforms import FunctionTable


def backend_to_obj(backend: Backend) -> Union[str, dict]:
    if isinstance(backend, RationalBackend):
        return "rational"
    return {"float": {"epsilon": repr(backend.epsilon)}}


def backend_from_obj(obj) -> Backend:
    if obj == "rational":
        return RATIONAL
    if isinstance(obj, dict) and isinstance(obj.get("float"), dict):
        eps = obj["float"].get("epsilon", DEFAULT_EPSILON)
        if isinstance(eps, str):  # float literals arrive as their text
            try:
                eps = float(eps)
            except ValueError:
                raise FormatError(f"epsilon is not a number: {eps!r}") from None
        return FloatBackend(eps)
    raise FormatError(f"unknown backend {obj!r}")


_JSON_TYPES = {bool: "boolean", type(None): "null", list: "array", dict: "object"}


def _rows_from_obj(rows, what: str) -> list:
    """``rows`` as an array of arrays whose entries are numbers or strings.

    A string row would otherwise be split into its characters, and a
    boolean read as 0 or 1.
    """
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError(f"{what} must be an array of arrays")
    if not _JSON_TYPES.keys().isdisjoint(set(map(type, chain.from_iterable(rows)))):
        bad = next(filter(None, (_JSON_TYPES.keys() & map(type, row) for row in rows)))
        names = ", ".join(sorted(_JSON_TYPES[t] for t in bad))
        raise FormatError(f"{what} must hold numbers or strings, not {names}")
    return rows


def _text_rows(space: Space, wrap=str) -> list:
    """The matrix as rows of ``wrap(text)``; a rational entry is its rank's
    value, each formatted and wrapped once."""
    fmt = space.backend.format
    if isinstance(space.backend, RationalBackend):
        texts = [wrap(fmt(v)) for v in space._view.values]
        return [list(map(texts.__getitem__, row)) for row in space._view.ranks]
    return [[wrap(fmt(v)) for v in row] for row in space.matrix]


def space_to_obj(space: Space) -> dict:
    return {"labels": list(space.labels), "backend": backend_to_obj(space.backend), "matrix": _text_rows(space)}


def space_from_obj(obj: dict) -> Space:
    try:
        if not isinstance(obj["labels"], list):
            raise FormatError("labels must be an array")
        try:  # JSON's \ud800 escapes make lone surrogates, which no file or stream can hold
            "".join(map(str, obj["labels"])).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"a label holds {exc.object[exc.start : exc.end]!r}, which UTF-8 cannot encode") from None
        matrix = _rows_from_obj(obj["matrix"], "matrix")
        return new_space(obj["labels"], matrix, backend_from_obj(obj["backend"]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed space object: {exc}") from exc


def _parse_json(text: str):
    # float literals arrive as their source text and are parsed exactly
    try:
        return json.loads(text, parse_float=str)
    except ValueError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None


def space_to_json(space: Space) -> str:
    """``json.dumps(space_to_obj(space), indent=2)`` and a newline, laid out
    by hand around texts that the C string encoder writes."""
    enc = encode_basestring_ascii
    labels = ",\n    ".join(map(enc, space.labels))
    backend = json.dumps(backend_to_obj(space.backend), indent=2).replace("\n", "\n  ")
    matrix = ",\n    ".join(["[\n      " + ",\n      ".join(row) + "\n    ]" for row in _text_rows(space, enc)])
    return f'{{\n  "labels": [\n    {labels}\n  ],\n  "backend": {backend},\n  "matrix": [\n    {matrix}\n  ]\n}}\n'


def space_from_json(text: str) -> Space:
    return space_from_obj(_parse_json(text))


def space_to_csv(space: Space) -> str:
    if not isinstance(space.backend, RationalBackend):
        raise FormatError("CSV carries no backend metadata; use JSON for float spaces")
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(space.labels)
    writer.writerows(space_to_obj(space)["matrix"])
    return out.getvalue()


def space_from_csv(text: str, epsilon: Optional[float] = None) -> Space:
    import csv

    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise FormatError("empty CSV")
    labels = [cell.strip() for cell in rows[0]]
    matrix = [[cell.strip() for cell in row] for row in rows[1:]]
    if len(matrix) != len(labels):
        raise FormatError("CSV matrix does not match the header size")
    backend = RATIONAL if epsilon is None else FloatBackend(epsilon)
    return new_space(labels, matrix, backend)


def load_space(path: str, epsilon: Optional[float] = None) -> Space:
    """A CSV space (float-backed at ``epsilon`` if given) or a JSON one."""
    is_csv = path.endswith(".csv")
    if epsilon is not None and not is_csv:
        raise FormatError("epsilon applies to CSV files only; a JSON space file names its backend")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return space_from_csv(text, epsilon=epsilon) if is_csv else space_from_json(text)


def save_space(path: str, space: Space) -> None:
    text = space_to_csv(space) if path.endswith(".csv") else space_to_json(space)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def table_to_obj(table: FunctionTable) -> dict:
    return {"entries": [[str(a), str(v)] for a, v in table.entries]}


def table_from_obj(obj: dict) -> FunctionTable:
    from .transforms import function_table

    try:
        entries = _rows_from_obj(obj["entries"], "table entries")
        return function_table(tuple((a, v) for a, v in entries))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed table object: {exc}") from exc


def table_to_json(table: FunctionTable) -> str:
    return json.dumps(table_to_obj(table), indent=2) + "\n"


def load_table(path: str) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_obj(_parse_json(fh.read()))


def save_table(path: str, table: FunctionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table_to_json(table))


def classification_to_obj(cls: Classification) -> Union[str, dict]:
    if cls.kind == "isometry":
        return "isometry"
    if cls.kind == "similarity":
        ratio = cls.ratio
        text = str(ratio) if isinstance(ratio, Fraction) else format(ratio, ".17g")
        return {"similarity": text}
    return "generic"


def morphism_to_obj(ws: WeakSimilarity, verified: bool = True) -> dict:
    src_fmt = ws.source.backend.format
    tgt_fmt = ws.target.backend.format
    return {
        "map": {a: b for a, b in ws.mapping},
        "scaling": [[tgt_fmt(t), src_fmt(v)] for t, v in ws.scaling.pairs],
        "classification": classification_to_obj(ws.classification),
        "verified": bool(verified),
        "backends": {
            "source": backend_to_obj(ws.source.backend),
            "target": backend_to_obj(ws.target.backend),
        },
    }


def morphism_to_json(ws: WeakSimilarity, verified: bool = True) -> str:
    return json.dumps(morphism_to_obj(ws, verified), indent=2) + "\n"


def morphism_from_obj(obj: dict, source: Space, target: Space) -> WeakSimilarity:
    """Rebuild a weak similarity from its report, given the two spaces."""
    from .morphisms import ScalingFunction, build_realization

    try:
        mapping = dict(obj["map"])
        pairs = tuple(
            (target.backend.coerce(t), source.backend.coerce(v))
            for t, v in _rows_from_obj(obj["scaling"], "scaling")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed morphism object: {exc}") from exc
    return build_realization(source, target, mapping, ScalingFunction(pairs))


def load_morphism(path: str, source: Space, target: Space) -> WeakSimilarity:
    with open(path, "r", encoding="utf-8") as fh:
        return morphism_from_obj(_parse_json(fh.read()), source, target)


def save_morphism(path: str, ws: WeakSimilarity, verified: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(morphism_to_json(ws, verified))
