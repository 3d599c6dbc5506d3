"""The benchmark's four workloads.

Each workload has a set-up step and a mix.  Set-up builds the workload's
instances from the seed with the ``families`` generators (or the graph
builders in ``instances``) and writes them with ``formats``; it is what
``setup_s`` times.  The mix lists the library questions and the CLI runs that
one cycle of the closed loop asks, each with the answer it must give.  The
expected answers come from how the instances were built, from known facts
about them, or from the independent checks in ``instances``; none comes
from the library call being timed.

Why each workload exists:

* ``axioms`` -- triangle and ultrametric checks plus the coincreasing test,
  on passing spaces (full scans), perturbed spaces (early witnesses) and one
  float-backed snowflake space.  The ``spaces`` triple loops and Fraction
  arithmetic do nearly all the work; ``morphisms`` does none.
* ``search`` -- find + verify + classification on base spaces paired with
  relabeled, scaled and distorted partners.  Refinement splits every point,
  so the time goes to rank extraction, refinement, ``verify`` and file reads.
* ``symmetric`` -- two-distance spaces of strongly regular graphs, which
  colour refinement cannot split: backtracking does all the work.  The
  mirror image of ``search``.
* ``transforms`` -- snowflake, entrywise transforms with file writes, and
  the subadditivity cover engine.  One cover query beyond Python's
  recursion limit is kept as a known defect: asked once per run, outside
  the timed and counted operations, so that it shows without failing them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from weaksim import (
    FamilySpec,
    FloatBackend,
    apply_function,
    check_generalized_subadditivity,
    coincreasing,
    derive_partner,
    distance_set,
    enumerate_weak_similarities,
    example_2_6,
    example_2_6_star,
    find_weak_similarity,
    function_table,
    hull,
    hull_eval,
    is_metric,
    is_ultrametric,
    new_space,
    random_metric,
    random_ultrametric,
    rank_matrix,
    snowflake,
    verify,
)
from weaksim.formats import load_space, load_table, morphism_to_json, save_space, save_table

import instances as inst


@dataclass
class Question:
    """One library question: ``ask`` is timed, ``check`` judges its answer."""

    kind: str
    ask: Callable  # ask(tracer) -> answer
    check: Callable  # check(answer) -> bool


@dataclass
class CliRun:
    """One CLI invocation, run with the workload's directory as cwd.  Runs
    of one command on seeded copies of an instance share a ``kind``, so
    their timings pool as one kind, like a question's copies do."""

    argv: list
    exit_code: int
    check: Callable  # check(report["result"]) -> bool
    stderr: str = ""
    kind: str = ""


@dataclass
class Mix:
    questions: list
    cli: list
    # Questions that fail on a known defect of the library: asked once per
    # run, untimed and outside the attempted count, so that the defect shows
    # without making the workload's operations fail.
    known_defects: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    setup: Callable  # setup(seed, workdir, tracer) -> dict of instances
    mix: Callable  # mix(instances, workdir) -> Mix


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _turns(copies: int):
    """Copy index for successive asks of one question: 0, 1, ..., copies - 1,
    0, ...  A run thus averages over several seeded copies of an instance
    instead of hanging on the quirks of one."""
    return (k % copies for k in itertools.count())


def _save(tr, wd, spaces: dict) -> None:
    for name, space in spaces.items():
        tr.call("formats.save_space", save_space, os.path.join(wd, f"{name}.json"), space)


def _load(tr, wd, name):
    return tr.call("formats.load_space", load_space, os.path.join(wd, f"{name}.json"))


def _witness_obj(witness) -> Optional[list]:
    return list(witness) if witness else None


def _verdict(v):
    return v.ok, v.witness


# ------------------------------------------------------------------ axioms

AXIOMS_METRIC_N = 32
AXIOMS_ULTRA_N = 48
AXIOMS_COIN_N = 16
AXIOMS_COPIES = 6
# The cost of a full scan varies by a quarter between random metrics (with
# their mix of denominators), so a run scans several.
AXIOMS_METRIC_COPIES = 4


def _raise_pair(matrix, rng):
    """Lengthen one early pair past a two-step path: a non-metric whose
    first triangle violation sits near the start of the scan."""
    m = [list(row) for row in matrix]
    n = len(m)
    i = rng.randrange(4)
    j = rng.randrange(i + 1, i + 8)
    m[i][j] = m[j][i] = min(m[i][k] + m[k][j] for k in range(n) if k not in (i, j)) + 1
    return m


def _break_order(matrix, rng):
    """Move one early pair to the other end of the distance order."""
    m = [list(row) for row in matrix]
    i = rng.randrange(3)
    j = rng.randrange(i + 1, 4)
    values = [v for row in m for v in row if v]
    m[i][j] = m[j][i] = max(values) + 1 if m[i][j] < max(values) else min(values) / 2
    return m


def _axioms_setup(seed, wd, tr):
    rng = random.Random(seed)
    spaces = {
        f"metric{k}": tr.call(
            "families.random_metric", random_metric, AXIOMS_METRIC_N, _seed(rng)
        )
        for k in range(AXIOMS_METRIC_COPIES)
    }
    metric = spaces["metric0"]
    spaces |= {
        "broken": tr.call(
            "spaces.new_space", new_space, metric.labels, _raise_pair(metric.matrix, rng)
        ),
        "snow": tr.call("transforms.snowflake", snowflake, metric, Fraction(1, 2)),
    }
    for k in range(AXIOMS_COPIES):
        spaces[f"ultra{k}"] = tr.call(
            "families.random_ultrametric", random_ultrametric, AXIOMS_ULTRA_N, _seed(rng)
        )
        coin = tr.call("families.random_metric", random_metric, AXIOMS_COIN_N, _seed(rng))
        rho = [[v + v * v for v in row] for row in coin.matrix]
        spaces[f"coin{k}"] = coin
        spaces[f"coin{k}_rho"] = tr.call("spaces.new_space", new_space, coin.labels, rho)
        spaces[f"coin{k}_bad"] = tr.call(
            "spaces.new_space", new_space, coin.labels, _break_order(rho, rng)
        )
    _save(tr, wd, spaces)
    return spaces


def _axioms_mix(sp, wd) -> Mix:
    # Passing verdicts hold by construction: random_metric closes under
    # shortest paths, random_ultrametric merges at increasing heights, a
    # snowflake with p <= 1 keeps a metric a metric, and t -> t + t^2 is
    # increasing.  Failing verdicts come from a direct scan.
    def scan(fn, name):
        return fn(sp[name].labels, sp[name].matrix)

    metric_not_ultra = [
        scan(inst.first_ultrametric_violation, f"metric{k}") for k in range(AXIOMS_METRIC_COPIES)
    ]
    broken = scan(inst.first_triangle_violation, "broken")
    coin_bad = [
        inst.first_order_disagreement(
            sp[f"coin{k}"].labels, sp[f"coin{k}"].matrix, sp[f"coin{k}_bad"].matrix
        )
        for k in range(AXIOMS_COPIES)
    ]
    if broken is None or None in coin_bad:
        raise RuntimeError("a perturbed instance kept its axiom")

    def question(layer, fn, names, witness=lambda k: None, copies=AXIOMS_COPIES):
        """Ask fn about the spaces named by the templates, copy k on turn k."""
        turns = _turns(copies)

        def ask(tr):
            k = next(turns)
            spaces = [_load(tr, wd, name.format(k=k)) for name in names]
            return k, _verdict(tr.call(layer, fn, *spaces))

        def check(ans) -> bool:
            k, verdict = ans
            return verdict == (witness(k) is None, witness(k))

        return Question(f"{'~'.join(names).format(k='*')}/{fn.__name__}", ask, check)

    questions = [
        question("spaces.is_metric", is_metric, ["metric{k}"], copies=AXIOMS_METRIC_COPIES),
        question("spaces.is_ultrametric", is_ultrametric, ["ultra{k}"]),
        question("spaces.is_metric", is_metric, ["ultra{k}"]),
        question("spaces.is_metric", is_metric, ["broken"], lambda k: broken),
        question("spaces.is_metric", is_metric, ["snow"]),
        question("spaces.coincreasing", coincreasing, ["coin{k}", "coin{k}_rho"]),
        question(
            "spaces.coincreasing", coincreasing, ["coin{k}", "coin{k}_bad"], coin_bad.__getitem__
        ),
    ]

    def check_run(name, verdicts, kind=""):
        flags = [f"--{check}" for check, _ in verdicts]
        expected = {
            "checks": [{"name": "semimetric", "ok": True, "witness": None}]
            + [
                {"name": check, "ok": w is None, "witness": _witness_obj(w)}
                for check, w in verdicts
            ]
        }
        code = 0 if all(w is None for _, w in verdicts) else 1
        argv = ["check", "--in", f"{name}.json", *flags]
        return CliRun(argv, code, lambda r: r == expected, kind=kind)

    # The full-scan check runs on every random metric, four runs per cycle,
    # so that both the median and the 67th percentile fall inside its
    # samples rather than on the edge between two kinds of run.
    cli = [
        check_run("broken", [("metric", broken)]),
        check_run("snow", [("metric", None)]),
        *(
            check_run(
                f"metric{k}",
                [("metric", None), ("ultrametric", w)],
                kind="check --in metric*.json --metric --ultrametric",
            )
            for k, w in enumerate(metric_not_ultra)
        ),
        check_run("ultra0", [("metric", None), ("ultrametric", None)]),
    ]
    return Mix(questions, cli)


# ------------------------------------------------------------------ search

SEARCH_ULTRA_N = 48
SEARCH_METRIC_N = 32
SEARCH_2_6_N = 24
SEARCH_2_6_STAR_N = 12
SEARCH_COPIES = 5
# The CLI runs on the first copies only, so that a CLI cycle stays short.
SEARCH_CLI_COPIES = 3
PARTNER_MODES = ("relabeled", "scaled", "distorted")


def _ratio(rng) -> Fraction:
    while True:
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if r != 1:
            return r


def _family_spec(name, n, rng) -> FamilySpec:
    """Seeded sequences r_k = a/(k+b) (vanishing) and p_k = 1 + c/(k+e)."""
    a, b, c, e = rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 5), rng.randint(0, 3)
    return FamilySpec(
        name=name,
        n=n,
        r=lambda k: Fraction(a, k + b),
        p=lambda k: 1 + Fraction(c, k + e),
    )


def _search_setup(seed, wd, tr):
    rng = random.Random(seed)
    bases = {
        f"u{k}": tr.call(
            "families.random_ultrametric", random_ultrametric, SEARCH_ULTRA_N, _seed(rng)
        )
        for k in range(SEARCH_COPIES)
    }
    for k in range(SEARCH_COPIES):
        bases[f"m{k}"] = tr.call(
            "families.random_metric", random_metric, SEARCH_METRIC_N, _seed(rng)
        )
    spaces, ratios = dict(bases), {}
    for stem, base in bases.items():
        ratios[stem] = _ratio(rng)
        for mode in PARTNER_MODES:
            partner, _ = tr.call(
                "families.derive_partner",
                derive_partner,
                base,
                mode,
                ratio=ratios[stem],
                seed=_seed(rng),
            )
            spaces[f"{stem}_{mode}"] = partner
    for stem, builder, n in (
        ("e26", example_2_6, SEARCH_2_6_N),
        ("e26s", example_2_6_star, SEARCH_2_6_STAR_N),
    ):
        x, y, _ = tr.call(f"families.{builder.__name__}", builder, _family_spec(stem, n, rng))
        spaces[f"{stem}_x"], spaces[f"{stem}_y"] = x, y
    _save(tr, wd, spaces)
    return {"spaces": spaces, "ratios": ratios}


def _class_obj(cls) -> object:
    kind, ratio = cls
    return {"similarity": str(ratio)} if kind == "similarity" else kind


def _search_mix(inst_, wd) -> Mix:
    sp, ratios = inst_["spaces"], inst_["ratios"]

    def expected_class(x, y):
        return inst.classify_pairing(inst.forced_pairing(sp[x].matrix, sp[y].matrix))

    for stem, ratio in ratios.items():
        built = {"relabeled": ("isometry", Fraction(1)), "scaled": ("similarity", ratio)}
        for mode, cls in built.items():
            if expected_class(stem, f"{stem}_{mode}") != cls:
                raise RuntimeError(f"{stem}_{mode} does not classify as built")

    checkers = {}

    def valid(x, y, mapping) -> bool:
        if (x, y) not in checkers:
            X, Y = sp[x], sp[y]
            checkers[x, y] = inst.weak_similarity_check(X.labels, X.matrix, Y.labels, Y.matrix)
        return checkers[x, y](mapping)

    def question(xt, yt):
        """Find, verify and classify from space xt to space yt (copy k on
        turn k); also probe the distance sets and rank matrices."""
        turns = _turns(SEARCH_COPIES)

        def ask(tr):
            k = next(turns)
            x, y = xt.format(k=k), yt.format(k=k)
            X, Y = _load(tr, wd, x), _load(tr, wd, y)
            dsets = [tr.call("spaces.distance_set", distance_set, s) for s in (X, Y)]
            ranks = [tr.call("spaces.rank_matrix", rank_matrix, s) for s in (X, Y)]
            ws = tr.call("morphisms.find_weak_similarity", find_weak_similarity, X, Y)
            if ws is None:
                tr.count("morphisms.no_morphism")
                return x, y, None
            tr.count("morphisms.solutions")
            verdict = tr.call("morphisms.verify", verify, X, Y, ws.as_map(), ws.scaling)
            text = tr.call("formats.morphism_to_json", morphism_to_json, ws, verdict.ok)
            return x, y, (dsets, ranks, ws, verdict, text)

        def check(ans) -> bool:
            x, y, found = ans
            if found is None:
                return False
            dsets, ranks, ws, verdict, text = found
            n_values = len({v for row in sp[x].matrix for v in row})
            mapping = ws.as_map()
            return (
                all(len(d) == n_values for d in dsets)
                and all(max(map(max, r.ranks)) == n_values - 1 for r in ranks)
                and valid(x, y, mapping)
                and (ws.classification.kind, ws.classification.ratio) == expected_class(x, y)
                and verdict.ok
                and json.loads(text)["map"] == mapping
            )

        return Question(f"{xt}->{yt}".replace("{k}", "*"), ask, check)

    pairs = [
        ("u{k}", "u{k}_relabeled"),
        ("u{k}", "u{k}_scaled"),
        ("u{k}", "u{k}_distorted"),
        ("u{k}_relabeled", "u{k}_distorted"),
        ("m{k}", "m{k}_relabeled"),
        ("m{k}", "m{k}_scaled"),
        ("m{k}", "m{k}_distorted"),
        ("e26_x", "e26_y"),
        ("e26s_x", "e26s_y"),
    ]
    questions = [question(x, y) for x, y in pairs]

    def find_run(cmd, x, y, out=None, kind=""):
        cls = _class_obj(expected_class(x, y))
        argv = ["morph", cmd, "--x", f"{x}.json", "--y", f"{y}.json"]
        if out:
            argv += ["--out", out]

        def check(r) -> bool:
            m = r["morphism"]
            return (
                r["found"] is True
                and valid(x, y, m["map"])
                and m["classification"] == cls
                and m["verified"] is True
            )

        return CliRun(argv, 0, check, kind=kind)

    def verify_run(x, y, infile, kind):
        argv = ["morph", "verify", "--x", f"{x}.json", "--y", f"{y}.json", "--in", infile]
        expected = {"verified": {"ok": True, "witness": None}}
        return CliRun(argv, 0, lambda r: r == expected, kind=kind)

    # Find and verify run on every copy; the copies of one command share a kind.
    cli = []
    for x, y in (("u{k}", "u{k}_scaled"), ("m{k}", "m{k}_distorted")):
        found = f"found_{x}.json"
        for k in range(SEARCH_CLI_COPIES):
            xk, yk, out = (t.format(k=k) for t in (x, y, found))
            pair = f"--x {x}.json --y {y}.json".replace("{k}", "*")
            cli.append(find_run("find", xk, yk, out, kind=f"morph find {pair}"))
            cli.append(verify_run(xk, yk, out, kind=f"morph verify {pair}"))
    cli.append(find_run("classify", "e26_x", "e26_y"))
    return Mix(questions, cli)


# --------------------------------------------------------------- symmetric

# Automorphism counts are known facts, not solver output:
# |Aut(Paley(q))| = q(q-1)/2 for prime q, |Aut(K4 x K4)| = 2 (4!)^2 = 1152,
# |Aut(Shrikhande)| = 192.
SYMMETRIC_GRAPHS = {
    # name: (graph builder, number of weak self-similarities)
    "p13": (lambda: inst.paley_graph(13), 78),
    "p29": (lambda: inst.paley_graph(29), 406),
    "rook": (lambda: inst.rook_graph(4), 1152),
    "shrik": (inst.shrikhande_graph, 192),
    "latin_z6": (lambda: inst.latin_square_graph(inst.cyclic_table(6)), None),
    "latin_s3": (lambda: inst.latin_square_graph(inst.s3_table()), None),
}
# Each question goes from a graph's space in its built labelling to a seeded
# relabelling of the target graph: copy k + shift on the k-th turn.  The
# source labelling fixes the canonical search order, so it sets the search
# time; relabelling the source instead swings the Latin-square search
# between 1.3 s and 7 s and would drown the changes the benchmark must see.
# Equal graphs enumerate all weak similarities, unequal ones expect none.
SYMMETRIC_QUESTIONS = [
    ("rook", "shrik", 0),
    ("shrik", "rook", 0),
    ("rook", "shrik", 1),
    ("p13", "p13", 0),
    ("p13", "p13", 1),
    *(("shrik", "shrik", shift) for shift in range(7)),
    *(("rook", "rook", shift) for shift in range(3)),
    ("p29", "p29", 0),
    ("latin_z6", "latin_s3", 0),
]
SYMMETRIC_COPIES = 7


def _symmetric_setup(seed, wd, tr):
    rng = random.Random(seed)
    spaces = {}
    for name, (build, _) in SYMMETRIC_GRAPHS.items():
        adj = build()
        if any(src == name for src, _, _ in SYMMETRIC_QUESTIONS):
            spaces[name] = tr.call("spaces.new_space", new_space, *inst.two_distance_matrix(adj, "v"))
        if any(tgt == name for _, tgt, _ in SYMMETRIC_QUESTIONS):
            for k in range(SYMMETRIC_COPIES):
                labels, matrix = inst.two_distance_matrix(adj, "v", _seed(rng))
                spaces[f"{name}{k}"] = tr.call("spaces.new_space", new_space, labels, matrix)
    _save(tr, wd, spaces)
    return spaces


def _symmetric_mix(sp, wd) -> Mix:
    checkers, validated = {}, set()

    def all_valid(x, y, maps) -> bool:
        """Distinct, in canonical (lexicographic) order, and each one valid.
        A mapping already checked for the same pair is not checked again."""
        X, Y = sp[x], sp[y]
        if (x, y) not in checkers:
            checkers[x, y] = inst.weak_similarity_check(X.labels, X.matrix, Y.labels, Y.matrix)
        order = sorted(X.labels)
        keys = [(x, y, tuple(m[lab] for lab in order)) for m in maps]
        if keys != sorted(set(keys)):
            return False
        fresh = [(k, m) for k, m in zip(keys, maps) if k not in validated]
        if not all(checkers[x, y](m) for _, m in fresh):
            return False
        validated.update(k for k, _ in fresh)
        return True

    def question(x, y, shift):
        count = SYMMETRIC_GRAPHS[x][1] if x == y else 0
        turns = _turns(SYMMETRIC_COPIES)

        def ask(tr):
            target = f"{y}{(next(turns) + shift) % SYMMETRIC_COPIES}"
            X, Y = _load(tr, wd, x), _load(tr, wd, target)
            if count:
                found = tr.call(
                    "morphisms.enumerate_weak_similarities", enumerate_weak_similarities, X, Y, None
                )
            else:
                ws = tr.call("morphisms.find_weak_similarity", find_weak_similarity, X, Y)
                found = [] if ws is None else [ws]
            tr.count("morphisms.solutions", len(found))
            if not found:
                tr.count("morphisms.no_morphism")
            return target, found

        def check(ans) -> bool:
            target, found = ans
            return len(found) == count and all_valid(x, target, [ws.as_map() for ws in found])

        verb = "enumerate" if count else "find"
        return Question(f"{x}->{y}+{shift}/{verb}", ask, check)

    questions = [question(x, y, shift) for x, y, shift in SYMMETRIC_QUESTIONS]

    # CLI runs keep fixed files, so each command repeats and its report can
    # be compared byte for byte.
    def cli_run(x, y, shift):
        count = SYMMETRIC_GRAPHS[x][1] if x == y else 0
        target = f"{y}{shift}"
        if not count:
            argv = ["morph", "find", "--x", f"{x}.json", "--y", f"{target}.json"]
            expected = {"found": False, "reason": "not weakly equivalent"}
            return CliRun(argv, 1, lambda r: r == expected)
        argv = ["morph", "enum", "--x", f"{x}.json", "--y", f"{target}.json", "--limit", "0"]

        def check(r) -> bool:
            maps = [m["map"] for m in r["morphisms"]]
            return r["count"] == count == len(maps) and all_valid(x, target, maps)

        kind = f"morph enum --x {x}.json --y {y}*.json --limit 0"
        return CliRun(argv, 0, check, kind=kind)

    # Paley(13) runs on three copies per cycle, under one kind, so that both
    # CLI percentiles fall inside its samples.
    cli = [
        *(cli_run("p13", "p13", shift) for shift in range(3)),
        cli_run("shrik", "shrik", 0),
        cli_run("rook", "shrik", 0),
        cli_run("shrik", "rook", 0),
    ]
    return Mix(questions, cli)


# -------------------------------------------------------------- transforms

TRANSFORMS_METRIC_N = 40
# Domains of the cover tables before the seeded scaling.  Each is fixed so
# that the branch-and-bound explores the same tree on every seed: scaling
# every point (and every value) by one factor leaves the search unchanged.
HEAVY_DOMAIN = ["1/40", "1/3", "2/5", "7/8", "1", "5/4", "3/2", "8/5", "12/7", "13/5", "3", "25/8"]
HEAVY2_DOMAIN = ["1/40", "1/4", "1/3", "4/5", "5/6", "1", "9/8", "4/3", "3/2", "12/7", "2", "3"]
HULL_DOMAIN = ["1/40", "3/7", "1", "2"]
HULL_COSTS = ["1/30", "2/5", "9/10", "17/10"]
# Covering 2 from {1/1000, 1, 2} recurses once per 1/1000 step, past
# Python's default recursion limit of 1000.
DEEP_DOMAIN = ["1/1000", "1", "2"]
# Whole-number scales keep the denominators, and so the Fraction work, alike.
SCALES = [Fraction(k) for k in range(1, 7)]


def _apply_value(t: Fraction) -> Fraction:
    return t + t * t / 8


def _transforms_setup(seed, wd, tr):
    rng = random.Random(seed)
    metric = tr.call("families.random_metric", random_metric, TRANSFORMS_METRIC_N, _seed(rng))
    _save(tr, wd, {"metric": metric})
    dom, cost = rng.choice(SCALES), rng.choice(SCALES)

    def linear(domain):
        return [(Fraction(a) * dom, Fraction(a) * dom * cost) for a in domain]

    values = sorted({v for row in metric.matrix for v in row})
    tables = {
        "apply": [(t, _apply_value(t)) for t in values],
        "heavy": linear(HEAVY_DOMAIN),
        "heavy2": linear(HEAVY2_DOMAIN),
        "convex": [(a, a + a * a * cost) for a, _ in linear(HEAVY2_DOMAIN)],
        "lin4": linear(HULL_DOMAIN),
        "nonlin4": [
            (Fraction(a) * dom, Fraction(c) * cost) for a, c in zip(HULL_DOMAIN, HULL_COSTS)
        ],
        "deep": linear(DEEP_DOMAIN),
    }
    for name, rows in tables.items():
        save_table(os.path.join(wd, f"{name}.json"), function_table(rows))
    return {"metric": metric, "tables": tables, "dom": dom, "cost": cost}


def _transforms_mix(inst_, wd) -> Mix:
    metric, tables, dom, cost = inst_["metric"], inst_["tables"], inst_["dom"], inst_["cost"]
    applied = tuple(tuple(_apply_value(v) for v in row) for row in metric.matrix)

    def table_path(name):
        return os.path.join(wd, f"{name}.json")

    def snowflake_question(p):
        def ask(tr):
            return tr.call("transforms.snowflake", snowflake, _load(tr, wd, "metric"), p)

        def check(space) -> bool:
            return isinstance(space.backend, FloatBackend) and all(
                math.isclose(s, float(v) ** float(p), rel_tol=1e-12, abs_tol=0.0)
                for srow, row in zip(space.matrix, metric.matrix)
                for s, v in zip(srow, row)
            )

        return Question(f"metric/snowflake {p}", ask, check)

    def ask_apply(tr):
        table = tr.call("formats.load_table", load_table, table_path("apply"))
        out = tr.call("transforms.apply_function", apply_function, _load(tr, wd, "metric"), table)
        tr.call("formats.save_space", save_space, os.path.join(wd, "applied.json"), out)
        return out

    # Closed forms: a linear table f(a) = c*a is subadditive, and its hull at
    # an x that is an exact sum of domain points is c*x.  Other cover answers
    # come from the independent knapsack in instances.min_cover_costs.
    violation = inst.first_subadditivity_violation(tables["convex"])
    hull_x = {"lin4": 5 * dom, "nonlin4": 4 * dom, "deep": 2 * dom}
    hull_value = {
        "lin4": hull_x["lin4"] * cost,
        "nonlin4": inst.min_cover_costs(tables["nonlin4"], [hull_x["nonlin4"]])[hull_x["nonlin4"]],
        "deep": hull_x["deep"] * cost,
    }

    def subadditive(name, expected):
        def ask(tr):
            table = tr.call("formats.load_table", load_table, table_path(name))
            return tr.call(
                "transforms.check_generalized_subadditivity",
                check_generalized_subadditivity,
                table,
            )

        def check(v) -> bool:
            if expected is None:
                return v.ok
            f = dict(tables[name])
            return (
                not v.ok
                and (v.x, v.lhs, v.rhs) == expected
                and sum(v.multiset) >= v.x
                and sum(f[a] for a in v.multiset) == v.rhs
            )

        return Question(f"{name}/subadditivity", ask, check)

    def hull_question(name):
        def ask(tr):
            table = tr.call("formats.load_table", load_table, table_path(name))
            return tr.call("transforms.hull_eval", hull_eval, hull(table), hull_x[name])

        return Question(f"{name}/hull_eval", ask, lambda v: v == hull_value[name])

    questions = [
        snowflake_question(Fraction(1, 2)),
        snowflake_question(Fraction(1, 3)),
        Question("metric/apply_function", ask_apply, lambda out: out.matrix == applied),
        subadditive("heavy", None),
        subadditive("heavy2", None),
        subadditive("convex", violation),
        hull_question("lin4"),
        hull_question("nonlin4"),
    ]

    def check_applied(r) -> bool:
        matrix = r["space"]["matrix"]
        return r["backend"] == "rational" and all(
            Fraction(s) == v for srow, row in zip(matrix, applied) for s, v in zip(srow, row)
        )

    def check_snow(r) -> bool:
        return r["backend"] == {"float": {"epsilon": "1e-09"}} and r["backend_changed"] is True

    def check_violation(r) -> bool:
        f = dict(tables["convex"])
        ms = [Fraction(a) for a in r["multiset"]]
        x, lhs, rhs = violation
        return (
            r["ok"] is False
            and (r["x"], r["lhs"], r["rhs"]) == (str(x), str(lhs), str(rhs))
            and sum(ms) >= x
            and sum(f[a] for a in ms) == rhs
        )

    def hull_run(name):
        at = str(hull_x[name])
        expected = {"at": at, "value": str(hull_value[name])}
        return CliRun(
            ["subadditive", "hull-eval", "--f", f"{name}.json", "--at", at],
            0,
            lambda r: r == expected,
        )

    cli = [
        CliRun(
            ["transform", "apply", "--in", "metric.json", "--f", "apply.json", "--out", "applied_cli.json"],
            0,
            check_applied,
        ),
        CliRun(
            ["transform", "snowflake", "--in", "metric.json", "--p", "1/2", "--out", "snow_cli.json"],
            0,
            check_snow,
            stderr="warning: result left the rational backend; distances are now "
            "floats with epsilon 1e-09\n",
        ),
        CliRun(["subadditive", "check", "--f", "heavy.json"], 0, lambda r: r == {"ok": True}),
        CliRun(["subadditive", "check", "--f", "heavy2.json"], 0, lambda r: r == {"ok": True}),
        CliRun(["subadditive", "check", "--f", "convex.json"], 1, check_violation),
        hull_run("lin4"),
    ]
    return Mix(questions, cli, known_defects=[hull_question("deep")])


WORKLOADS = {
    "axioms": Workload(_axioms_setup, _axioms_mix),
    "search": Workload(_search_setup, _search_mix),
    "symmetric": Workload(_symmetric_setup, _symmetric_mix),
    "transforms": Workload(_transforms_setup, _transforms_mix),
}
