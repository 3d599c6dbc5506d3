"""Command-line front end.

Every invocation prints one JSON envelope: a canonical ``report`` section
(command echo, input and output digests, results; byte-identical across
runs on the same inputs) plus a non-canonical ``timing`` section.  Exit
codes: 0 for success / true verdicts, 1 for false verdicts or absent
morphisms, 2 for input and usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Iterator

from . import __version__
from .errors import NotSemimetric, WeaksimError

# Each handler imports what it runs, so a command loads only its own modules.


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _verdict_obj(verdict) -> dict:
    return {
        "ok": verdict.ok,
        "witness": list(verdict.witness) if verdict.witness else None,
    }


class _Ctx:
    """Collects the canonical report pieces while a subcommand runs."""

    def __init__(self, command: str, args_echo: dict):
        self.command = command
        self.args_echo = args_echo
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def read_input(self, path: str) -> str:
        self.inputs[path] = _digest(path)
        return path

    def write(self, path: str, save, *args) -> None:
        """``save(path, *args)``, and the digest of the file it wrote."""
        save(path, *args)
        self.outputs[path] = _digest(path)

    def envelope(self, result: dict, seconds: float) -> dict:
        report = {
            "command": self.command,
            "args": self.args_echo,
            "inputs": {k: self.inputs[k] for k in sorted(self.inputs)},
        }
        if self.outputs:
            report["outputs"] = {k: self.outputs[k] for k in sorted(self.outputs)}
        report["result"] = result
        return {"report": report, "timing": {"seconds": seconds}}


def _load_space(ctx: _Ctx, path: str, epsilon: float | None):
    from .formats import load_space

    ctx.read_input(path)
    return load_space(path, epsilon=epsilon)


def _cmd_check(ctx: _Ctx, args) -> tuple[int, dict]:
    from .spaces import is_metric, is_ultrametric

    checks = []
    try:
        space = _load_space(ctx, args.infile, args.epsilon)
    except NotSemimetric as exc:
        checks.append(
            {
                "name": "semimetric",
                "ok": False,
                "witness": list(exc.witness),
                "reason": exc.reason,
            }
        )
        return 1, {"checks": checks}
    checks.append({"name": "semimetric", "ok": True, "witness": None})
    code = 0
    if args.metric:
        v = is_metric(space)
        checks.append({"name": "metric", **_verdict_obj(v)})
        code = code or (0 if v.ok else 1)
    if args.ultrametric:
        v = is_ultrametric(space)
        checks.append({"name": "ultrametric", **_verdict_obj(v)})
        code = code or (0 if v.ok else 1)
    return code, {"checks": checks}


def _cmd_dset(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import backend_to_obj
    from .spaces import distance_set

    space = _load_space(ctx, args.infile, args.epsilon)
    dset = distance_set(space)
    fmt = space.backend.format
    return 0, {
        "backend": backend_to_obj(space.backend),
        "values": [fmt(v) for v in dset.values],
    }


def _morphism(ctx: _Ctx, ws, path: str | None) -> dict:
    """``ws`` verified, written to ``path`` if given, and rendered."""
    from .formats import morphism_to_obj, save_morphism
    from .morphisms import verify

    ok = verify(ws.source, ws.target, ws.as_map(), ws.scaling).ok
    if path:
        ctx.write(path, save_morphism, ws, ok)
    return morphism_to_obj(ws, ok)


def _transformed(ctx: _Ctx, space, image, path: str | None) -> dict:
    """The result of a transform of ``space`` into ``image``, written to
    ``path`` if given; a change of backend is warned of first."""
    from .formats import backend_to_obj, save_space, space_to_obj

    changed = type(image.backend) is not type(space.backend)
    if changed:
        print(
            "warning: result left the rational backend; distances are now "
            f"floats with epsilon {image.backend.epsilon!r}",
            file=sys.stderr,
        )
    if path:
        ctx.write(path, save_space, image)
    return {
        "backend": backend_to_obj(image.backend),
        "backend_changed": changed,
        "space": space_to_obj(image),
    }


def _cmd_morph_find(ctx: _Ctx, args) -> tuple[int, dict]:
    from .morphisms import find_weak_similarity

    X = _load_space(ctx, args.x, args.epsilon)
    Y = _load_space(ctx, args.y, args.epsilon)
    ws = find_weak_similarity(X, Y)
    if ws is None:
        return 1, {"found": False, "reason": "not weakly equivalent"}
    return 0, {"found": True, "morphism": _morphism(ctx, ws, args.out)}


def _cmd_morph_enum(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import morphism_to_obj
    from .morphisms import WeakSimilarity, _coset, _coset_holds, _solve

    X = _load_space(ctx, args.x, args.epsilon)
    Y = _load_space(ctx, args.y, args.epsilon)
    limit = None if args.limit == 0 else args.limit
    solved = _solve(X, Y, limit)
    if solved is None:
        return 1, {"count": 0, "limit": limit, "morphisms": []}
    phi, chain, count, scaling, cls = solved
    # what every map shares, its verdict too: phi and the generators are checked once
    shared = morphism_to_obj(WeakSimilarity(X, Y, (), scaling, cls), _coset_holds(X, Y, phi, chain))
    xs, ys = sorted(X.labels), sorted(Y.labels)

    def walk(key, value):
        values = list(map(value, ys))
        return _coset(phi, chain, [[k + v for v in values] for k in map(key, xs)], count)

    return 0, {"count": count, "limit": limit, "morphisms": _Maps(shared, walk)}


class _Maps:
    """The morphisms of one enumeration, written as the coset walk yields
    them.  They share all but their maps, so each is the same rendered
    object around its map's lines.  ``walk(key, value)`` yields each map as
    the tuple of key(x) + value(y) over its pairs, from a table of those
    lines rendered once."""

    MARK = "\x00"  # the placeholder entry of the one rendered map

    def __init__(self, shared: dict, walk):
        self.shared, self.walk = shared, walk

    def json(self, indent: int) -> Iterator[str]:
        """The list as ``json.dumps(..., indent=2)`` writes it, its items
        at column ``indent``."""
        pad = "\n" + " " * indent
        entry = pad + "    "
        obj = json.dumps({**self.shared, "map": {self.MARK: None}}, indent=2)
        head, tail = obj.replace("\n", pad).split(entry + json.dumps(self.MARK) + ": null")
        sep = "[" + pad
        for leaf in self.walk(lambda x: entry + json.dumps(x) + ": ", json.dumps):
            yield sep + head + ",".join(leaf) + tail
            sep = "," + pad
        yield "\n" + " " * (indent - 2) + "]"

    def text(self, prefix: str) -> Iterator[str]:
        """The list as :func:`_text_lines` writes it, a map's lines at a time."""
        lines = list(_text_lines([{**self.shared, "map": {self.MARK: None}}], prefix))
        at = lines.index(f"{prefix}    {self.MARK}: None")
        head, tail = "\n".join(lines[:at]), "\n".join(lines[at + 1 :])
        for leaf in self.walk(lambda x: f"\n{prefix}    {x}: ", str):
            yield head + "".join(leaf) + "\n" + tail


def _cmd_morph_classify(ctx: _Ctx, args) -> tuple[int, dict]:
    code, result = _cmd_morph_find(ctx, args)
    if code != 0:
        return code, result
    return 0, {
        "found": True,
        "classification": result["morphism"]["classification"],
        "morphism": result["morphism"],
    }


def _cmd_morph_verify(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import load_morphism
    from .morphisms import verify

    X = _load_space(ctx, args.x, args.epsilon)
    Y = _load_space(ctx, args.y, args.epsilon)
    ctx.read_input(args.infile)
    ws = load_morphism(args.infile, X, Y)
    verdict = verify(X, Y, ws.as_map(), ws.scaling)
    return (0 if verdict.ok else 1), {"verified": _verdict_obj(verdict)}


def _cmd_morph_factorize(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import load_morphism
    from .morphisms import compose, factorize

    X = _load_space(ctx, args.x, args.epsilon)
    Y = _load_space(ctx, args.y, args.epsilon)
    path1, path2 = args.infiles
    ctx.read_input(path1)
    ctx.read_input(path2)
    phi1 = load_morphism(path1, X, Y)
    phi2 = load_morphism(path2, X, Y)
    factor = factorize(phi1, phi2)
    reproduces = compose(factor, phi1).as_map() == phi2.as_map()
    obj = _morphism(ctx, factor, args.out)
    return (0 if obj["verified"] and reproduces else 1), {"factor": obj, "reproduces": reproduces}


def _cmd_transform_apply(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import load_table
    from .transforms import apply_function

    space = _load_space(ctx, args.infile, args.epsilon)
    ctx.read_input(args.table)
    table = load_table(args.table)
    return 0, _transformed(ctx, space, apply_function(space, table), args.out)


def _cmd_transform_snowflake(ctx: _Ctx, args) -> tuple[int, dict]:
    from .transforms import snowflake

    space = _load_space(ctx, args.infile, args.epsilon)
    image = snowflake(space, args.p)
    return 0, {"exponent": args.p, **_transformed(ctx, space, image, args.out)}


def _cmd_subadditive_check(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import load_table
    from .transforms import check_generalized_subadditivity

    ctx.read_input(args.table)
    table = load_table(args.table)
    verdict = check_generalized_subadditivity(table)
    if verdict.ok:
        return 0, {"ok": True}
    return 1, {
        "ok": False,
        "x": str(verdict.x),
        "multiset": [str(v) for v in verdict.multiset],
        "lhs": str(verdict.lhs),
        "rhs": str(verdict.rhs),
    }


def _cmd_subadditive_hull_eval(ctx: _Ctx, args) -> tuple[int, dict]:
    from .formats import load_table
    from .transforms import hull, hull_eval

    ctx.read_input(args.table)
    table = load_table(args.table)
    h = hull(table)
    value = hull_eval(h, args.at)
    return 0, {"at": args.at, "value": str(value)}


# Each family's generator in ``weaksim.families``, the argument it takes
# after ``--n`` with the key the report echoes it under (None for the
# paired families, which take their default sequences), and whether it is
# a finite truncation of an infinite family.
_FAMILIES = {
    "2_6": ("example_2_6", None, True),
    "2_6_star": ("example_2_6_star", None, True),
    "grid": ("segment_grid", ("length", "length"), False),
    "snowflake": ("snowflake_segment", ("p", "exponent"), True),
    "random_metric": ("random_metric", ("seed", "seed"), False),
    "random_ultrametric": ("random_ultrametric", ("seed", "seed"), False),
}


def _cmd_family_gen(ctx: _Ctx, args) -> tuple[int, dict]:
    from . import families
    from .formats import save_space

    generator, argument, truncation = _FAMILIES[args.name]
    build = getattr(families, generator)
    family: dict = {"name": args.name, "n": args.n}
    if truncation:
        family["truncation"] = "finite truncation of an infinite family"
    if argument:
        attr, key = argument
        family[key] = value = getattr(args, attr)
        ctx.write(args.out, save_space, build(args.n, value))
        return 0, {"family": family, "files": {"space": args.out}}
    family["sequences"] = {"r_k": "1/k", "p_k": "1 + 1/k"}
    family["declared_limits"] = {"r": "0", "p": "1"}
    X, Y, ws = build(families.FamilySpec(name=args.name, n=args.n))
    stem = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    paths = {"x": f"{stem}.x.json", "y": f"{stem}.y.json", "realization": f"{stem}.realization.json"}
    ctx.write(paths["x"], save_space, X)
    ctx.write(paths["y"], save_space, Y)
    verified = _morphism(ctx, ws, paths["realization"])["verified"]
    return 0, {"family": family, "files": paths, "realization_verified": verified}


def _text_lines(value, prefix="") -> Iterator[str]:
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, _Maps)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                yield f"{prefix}-"
                yield from _text_lines(item, prefix + "  ")
            else:
                yield f"{prefix}- {item}"
    elif isinstance(value, _Maps):
        yield from value.text(prefix)
    else:
        yield f"{prefix}{value}"


def _write(envelope: dict, fmt: str, start: float) -> None:
    """Print the envelope as ``json.dumps(envelope, indent=2)``, or its
    report as text lines.  A :class:`_Maps` is written as it is walked, and
    then the JSON timing is taken again, so that it covers the write."""
    out = sys.stdout
    if fmt == "text":
        out.writelines(line + "\n" for line in _text_lines(envelope["report"]))
        return
    result = envelope["report"]["result"]
    maps = result.get("morphisms")
    if not isinstance(maps, _Maps):
        out.write(json.dumps(envelope, indent=2) + "\n")
        return
    # argv and file paths cannot hold a NUL, so the two marks are the only ones
    result["morphisms"] = envelope["timing"]["seconds"] = _Maps.MARK
    head, middle, tail = json.dumps(envelope, indent=2).split(json.dumps(_Maps.MARK))
    out.write(head)
    key = head[head.rindex("\n") + 1 :]
    out.writelines(maps.json(len(key) - len(key.lstrip(" ")) + 2))
    out.write(middle + json.dumps(time.perf_counter() - start) + tail + "\n")


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaksim",
        description="Analyze finite semimetric spaces: axiom checks, "
        "weak-similarity search, distance transforms, example families.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def text_format(sp):
        sp.add_argument("--format", choices=["json", "text"], default="json")

    def common(sp, out=True):
        text_format(sp)
        if out:
            sp.add_argument("--out", default=None, help="write the primary artifact here")
        sp.add_argument(
            "--epsilon",
            type=float,
            default=None,
            help="load CSV matrices float-backed with this tolerance",
        )

    check = sub.add_parser("check", help="validate a space file, optionally test axioms")
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--metric", action="store_true")
    check.add_argument("--ultrametric", action="store_true")
    common(check, out=False)
    check.set_defaults(handler=_cmd_check, echo=("infile", "metric", "ultrametric"))

    dset = sub.add_parser("dset", help="print the sorted distance set")
    dset.add_argument("--in", dest="infile", required=True)
    common(dset, out=False)
    dset.set_defaults(handler=_cmd_dset, echo=("infile",))

    morph = sub.add_parser("morph", help="weak-similarity operations")
    morph_sub = morph.add_subparsers(dest="subcommand", required=True)

    mfind = morph_sub.add_parser("find", help="first weak similarity in canonical order")
    menum = morph_sub.add_parser("enum", help="enumerate weak similarities")
    mclassify = morph_sub.add_parser("classify", help="classify the first morphism found")
    mverify = morph_sub.add_parser("verify", help="verify a stored morphism")
    mfact = morph_sub.add_parser("factorize", help="factor one morphism through another")
    for sp in (mfind, menum, mclassify, mverify, mfact):
        sp.add_argument("--x", required=True, help="source space file")
        sp.add_argument("--y", required=True, help="target space file")
        common(sp, out=sp not in (menum, mverify))
    menum.add_argument("--limit", type=nonnegative_int, default=10_000, help="0 means unbounded")
    mverify.add_argument("--in", dest="infile", required=True, help="morphism report file")
    mfact.add_argument(
        "--in", dest="infiles", nargs=2, required=True, help="two morphism report files"
    )
    mfind.set_defaults(handler=_cmd_morph_find, echo=("x", "y"))
    menum.set_defaults(handler=_cmd_morph_enum, echo=("x", "y", "limit"))
    mclassify.set_defaults(handler=_cmd_morph_classify, echo=("x", "y"))
    mverify.set_defaults(handler=_cmd_morph_verify, echo=("x", "y", "infile"))
    mfact.set_defaults(handler=_cmd_morph_factorize, echo=("x", "y", "infiles"))

    transform = sub.add_parser("transform", help="distance transforms")
    transform_sub = transform.add_subparsers(dest="subcommand", required=True)
    tapply = transform_sub.add_parser("apply", help="apply a function table entrywise")
    tapply.add_argument("--in", dest="infile", required=True)
    tapply.add_argument("--f", dest="table", required=True, help="function table file")
    common(tapply)
    tapply.set_defaults(handler=_cmd_transform_apply, echo=("infile", "table"))
    tsnow = transform_sub.add_parser("snowflake", help="raise distances to a power")
    tsnow.add_argument("--in", dest="infile", required=True)
    tsnow.add_argument("--p", default="1/2", help="positive exponent, e.g. 1/2")
    common(tsnow)
    tsnow.set_defaults(handler=_cmd_transform_snowflake, echo=("infile", "p"))

    subadd = sub.add_parser("subadditive", help="generalized subadditivity tools")
    subadd_sub = subadd.add_subparsers(dest="subcommand", required=True)
    scheck = subadd_sub.add_parser("check", help="test generalized subadditivity")
    scheck.add_argument("--f", dest="table", required=True)
    text_format(scheck)
    scheck.set_defaults(handler=_cmd_subadditive_check, echo=("table",))
    shull = subadd_sub.add_parser("hull-eval", help="evaluate the subadditive extension")
    shull.add_argument("--f", dest="table", required=True)
    shull.add_argument("--at", required=True, help="evaluation point, e.g. 5/2")
    text_format(shull)
    shull.set_defaults(handler=_cmd_subadditive_hull_eval, echo=("table", "at"))

    family = sub.add_parser("family", help="example-family generators")
    family_sub = family.add_subparsers(dest="subcommand", required=True)
    fgen = family_sub.add_parser("gen", help="generate a family instance")
    fgen.add_argument("--name", required=True, choices=list(_FAMILIES))
    fgen.add_argument("--n", type=int, required=True)
    fgen.add_argument("--seed", type=int, default=0)
    fgen.add_argument("--p", default="1/2", help="snowflake exponent")
    fgen.add_argument("--length", default="1", help="grid length")
    text_format(fgen)
    fgen.add_argument("--out", required=True)
    fgen.set_defaults(
        handler=_cmd_family_gen, echo=("name", "n", "seed", "p", "length", "out")
    )

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{args.command} {args.subcommand}"
    echo = {name: getattr(args, name) for name in args.echo}
    ctx = _Ctx(command, echo)

    start = time.perf_counter()
    try:
        code, result = args.handler(ctx, args)
    except (WeaksimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits, Python's print limit", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - start

    try:
        _write(ctx.envelope(result, seconds), args.format, start)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`).  Point stdout at devnull so
        # the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
