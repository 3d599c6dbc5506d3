"""Weak similarities between finite semimetric spaces.

A weak similarity from X to Y is a point bijection together with a strictly
increasing scaling table that pulls every Y-distance back onto the matching
X-distance.  Because finite totally ordered sets admit exactly one increasing
bijection onto each other, the scaling table is forced as soon as the two
distance sets have equal size; the search is therefore an edge-colored
complete-graph isomorphism over the rank matrices.  Colour refinement from a
queue of splitter cells settles the points alone in their cells, and
canonical-order backtracking on bitmasks of candidates places the rest,
up to the first leaf.  Where that walk's dead ends cost as much as
refining again, a search node individualizes its point against each
candidate and refines from that partition, which prunes whole subtrees
on spaces that refinement alone cannot split.  Once the first point's
candidate has failed, a later candidate that an automorphism of Y, found
on demand by the same engine from Y to Y, carries it to fails too, so it
is skipped.  Every other weak similarity is that one composed with an
isometry of X, so enumeration builds Aut(X) as a stabilizer chain by
Sims's backtrack, each generator read off another leaf of the same X → Y
search, and walks that coset.  The walk finishes each map as it goes, by
one gather from a table of (source, target) entries built once per call,
so every result shares its entries; the CLI walks the same coset with
entries rendered as JSON or text lines, once phi and the generators are
verified.

Order is deterministic: results arrive in lexicographic order of the
mapping, source labels sorted and images compared by target label.
"""

from __future__ import annotations

import copy
import operator
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from itertools import pairwise, repeat
from math import prod
from typing import Iterable, Iterator, Mapping, Optional, Union

from .backends import Backend, FloatBackend, Value, _Record
from .errors import (
    CardinalityMismatch,
    DomainMismatch,
    LabelMismatch,
    SpaceMismatch,
)
from .spaces import (
    DistanceSet,
    TRUE_VERDICT,
    Space,
    Verdict,
    _label_order,
    distance_set,
    new_space,
)

DEFAULT_ENUM_LIMIT = 10_000

MappingLike = Union[Mapping[str, str], Iterable[tuple[str, str]]]


class ScalingFunction(_Record):
    """Finite strictly increasing bijection table between two distance sets.

    ``pairs`` holds (t, f_t) sorted by t; t ranges over the target's distance
    set and f_t over the source's.  The zero pair (0, 0) is always present.
    """

    pairs: tuple[tuple[Value, Value], ...]

    def __post_init__(self):
        pairs = self.pairs
        if not pairs:
            raise DomainMismatch("a scaling table cannot be empty")
        if pairs[0][0] != 0 or pairs[0][1] != 0:
            raise DomainMismatch("a scaling table must map 0 to 0")
        for (t1, v1), (t2, v2) in pairwise(pairs):
            if not (t1 < t2 and v1 < v2):
                raise DomainMismatch(
                    "scaling table entries must be strictly increasing "
                    "in both coordinates"
                )

    @cached_property
    def _table(self) -> dict:
        return dict(self.pairs)

    def domain(self) -> tuple[Value, ...]:
        return tuple(t for t, _ in self.pairs)

    def values(self) -> tuple[Value, ...]:
        return tuple(v for _, v in self.pairs)

    def apply(self, t: Value) -> Value:
        """Evaluate the table at t, which must be one of its domain keys."""
        try:
            return self._table[t]
        except KeyError:
            raise DomainMismatch(f"value {t!r} is outside the scaling domain") from None

    def inverse(self) -> "ScalingFunction":
        return ScalingFunction(tuple(sorted((v, t) for t, v in self.pairs)))


class Classification(_Record):
    """Isometry, similarity with a ratio, or generic weak similarity."""

    kind: str  # "isometry" | "similarity" | "generic"
    ratio: Optional[Value] = None

    @staticmethod
    def isometry() -> "Classification":
        return Classification("isometry", Fraction(1))

    @staticmethod
    def similarity(ratio: Value) -> "Classification":
        return Classification("similarity", ratio)

    @staticmethod
    def generic() -> "Classification":
        return Classification("generic", None)


class WeakSimilarity(_Record):
    """A point bijection, its scaling table and the table's class.  It is
    not checked on construction: :func:`verify` checks the defining
    identity.  Those that :func:`find_weak_similarity` and
    :func:`enumerate_weak_similarities` return are correct by construction
    and never verified; the CLI verifies what it reports."""

    source: Space
    target: Space
    mapping: tuple[tuple[str, str], ...]  # sorted by source label
    scaling: ScalingFunction
    classification: Classification

    def as_map(self) -> dict[str, str]:
        return dict(self.mapping)

    def apply(self, label: str) -> str:
        return self.as_map()[label]


def increasing_bijection(d1: DistanceSet, d2: DistanceSet) -> ScalingFunction:
    """The unique strictly increasing bijection pairing i-th smallest values.

    Finite totally ordered sets are rigid, so this is the only candidate;
    sets of different size admit none (CardinalityMismatch).
    """
    if len(d1) != len(d2):
        raise CardinalityMismatch(
            f"distance sets have sizes {len(d1)} and {len(d2)}"
        )
    return ScalingFunction(tuple(zip(d1.values, d2.values)))


def _normalize_mapping(mapping: MappingLike, source: Space, target: Space) -> dict:
    pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
    m = {str(a): str(b) for a, b in pairs}
    if set(m) != set(source.labels):
        raise LabelMismatch("mapping keys must be exactly the source labels")
    if set(m.values()) != set(target.labels) or len(set(m.values())) != len(m):
        raise LabelMismatch("mapping must be a bijection onto the target labels")
    return m


def _values_match(actual, expected: DistanceSet) -> bool:
    if len(actual) != len(expected.values):
        return False
    eq = expected.backend.eq
    return all(eq(a, b) for a, b in zip(sorted(actual), expected.values))


def verify(
    X: Space, Y: Space, mapping: MappingLike, scaling: ScalingFunction
) -> Verdict:
    """Check the defining identity d_X(x,y) = f(d_Y(map x, map y)) pairwise.

    Raises DomainMismatch when the scaling table does not pair D(Y) with
    D(X); a failing verdict carries the first bad pair in label order.
    """
    m = _normalize_mapping(mapping, X, Y)
    if not _values_match(scaling.domain(), distance_set(Y)):
        raise DomainMismatch("scaling domain differs from the target distance set")
    if not _values_match(scaling.values(), distance_set(X)):
        raise DomainMismatch("scaling range differs from the source distance set")
    # the checks above pair the k-th distance of Y with the k-th of X, so
    # the identity holds on a pair exactly when its two ranks agree
    order = _label_order(X)
    image = [Y.index(m[X.labels[i]]) for i in order]
    bad = _rank_disagreement(X._view.ranks, Y._view.ranks, order, image)
    return TRUE_VERDICT if bad is None else Verdict(False, (X.labels[bad[0]], X.labels[bad[1]]))


def _rank_disagreement(rkX, rkY, order: list[int], image: list[int]) -> Optional[tuple[int, int]]:
    """The first pair of points, taken in ``order``, whose rank in rkX
    differs from that of their images in rkY (``image[a]`` is the image of
    ``order[a]``), or None if every pair agrees."""
    for a, i in enumerate(order):
        row_x, row_y = rkX[i], rkY[image[a]]
        for b in range(a + 1, len(order)):
            if row_x[order[b]] != row_y[image[b]]:
                return i, order[b]
    return None


def classify_scaling(
    scaling: ScalingFunction, source_backend: Backend, target_backend: Backend
) -> Classification:
    """Classify a scaling table: f(t) = t/r for a constant r, or generic.

    Rational tables are classified exactly; a table with a float side uses
    floats and that side's tolerance (the source's when both are floats).
    """
    positive = scaling.pairs[1:]
    if not positive:
        return Classification.isometry()
    floats = [b for b in (source_backend, target_backend) if isinstance(b, FloatBackend)]
    num, eq = (float, floats[0].eq) if floats else (Fraction, operator.eq)
    t0, v0 = positive[-1]
    ratio = num(t0) / num(v0)
    if not all(eq(t, ratio * v) for t, v in positive):
        return Classification.generic()
    if eq(ratio, 1):
        return Classification.isometry()
    return Classification.similarity(ratio)


def classify(ws: WeakSimilarity) -> Classification:
    """Recompute the classification of a weak similarity from its table."""
    return classify_scaling(ws.scaling, ws.source.backend, ws.target.backend)


def _splitter_key(rows, splitter):
    """A point's key against a splitter: its ranks to the splitter's points,
    sorted; for a one-point splitter, the one rank (ranks are symmetric)."""
    if len(splitter) == 1:
        return rows[splitter[0]].__getitem__
    pick = operator.itemgetter(*splitter)
    return lambda point: tuple(sorted(pick(rows[point])))


def _refine_colors(rkX, rkY, cells=None, queue=(0,)) -> Optional[tuple[list[int], list[int], int]]:
    """Synchronized colour refinement on two edge-coloured complete graphs.

    A balanced partition of X ⊔ Y, a list of cells of (X members, Y
    members), is refined in place from a queue of splitter cells
    (Berkholz, Bonsma & Grohe, ESA 2013).  By default it is the one cell
    of every point, queued; the search passes a stable partition in which
    it has individualized points, with their new cells queued.  Popping a
    splitter S splits every cell with more than one member on a side by
    how many points of S each member sees at each rank (its own graph's
    part of S).  A split whose X and Y pieces differ in size returns None:
    no rank-preserving bijection exists.  The largest piece keeps its
    cell's place, in the queue or out of it, and every other piece joins
    the queue: a cell out of the queue has split the others already, alone
    or inside a larger splitter, so keys against its largest piece follow
    from those against the whole and the other pieces.
    A cell of one X point x and one Y point y (a lone pair) is not split
    again: any split of it is unbalanced.  It is checked at the end
    instead.  Refinement stops when the queue is empty, or early when every
    cell is a lone pair.  Every other cell then sees a single rank from
    all its points to x and to y, so x and y agree on it; what is left is
    that the ranks among the lone pairs match, pair by pair, or None is
    returned.  Lone pairs out of the starting queue have been compared
    with each other before, so each lone pair made here or queued at the
    start is compared with every lone pair.  The search takes the lone
    pairs as settled, and this comparison is what makes that exact.  So
    None comes back exactly when the stable partition has a cell with more
    X points than Y points, or lone pairs that disagree.
    Returns the cell of each point, as colours of X and of Y, and the
    work done: ranks read by the keys and the lone-pair comparison, and
    one per point coloured.
    """
    n = len(rkX)
    if cells is None:
        cells = [(list(range(n)), list(range(n)))]
    queue = deque(queue)
    live = [c for c, (xs, _) in enumerate(cells) if len(xs) > 1]  # more than one point a side
    live_points = sum(len(cells[c][0]) for c in live)  # on each side
    oldX, oldY, loneX, loneY = [], [], [], []  # lone pairs' points, paired by index
    for c, (xs, ys) in enumerate(cells):
        if len(xs) == 1:
            if c in queue:
                loneX += xs
                loneY += ys
            else:
                oldX += xs
                oldY += ys
    reads = 2 * n  # colouring every point at the end
    while queue and live:
        SX, SY = cells[queue.popleft()]
        keyX, keyY = _splitter_key(rkX, SX), _splitter_key(rkY, SY)
        reads += len(SX) * 2 * live_points
        still = []
        for c in live:
            xs, ys = cells[c]
            kx, ky = list(map(keyX, xs)), list(map(keyY, ys))
            first = kx[0]
            if kx.count(first) == len(kx) and ky.count(first) == len(ky):
                still.append(c)  # nothing to split
                continue
            pieces: dict = {}
            for x, k in zip(xs, kx):
                pieces.setdefault(k, ([], []))[0].append(x)
            for y, k in zip(ys, ky):
                pieces.setdefault(k, ([], []))[1].append(y)
            parts = list(pieces.values())
            if any(len(px) != len(py) for px, py in parts):
                return None
            largest = max(parts, key=lambda part: len(part[0]))
            for part in parts:
                if part is largest:
                    cells[c] = part
                    at = c
                else:
                    at = len(cells)
                    cells.append(part)
                    queue.append(at)
                if len(part[0]) > 1:
                    still.append(at)
                else:
                    live_points -= 1
                    loneX += part[0]
                    loneY += part[1]
        live = still
    if loneX:
        pickX = operator.itemgetter(*oldX, *loneX)
        pickY = operator.itemgetter(*oldY, *loneY)
        reads += 2 * len(loneX) * (len(oldX) + len(loneX))
        if [pickX(rkX[x]) for x in loneX] != [pickY(rkY[y]) for y in loneY]:
            return None
    colorsX, colorsY = [0] * n, [0] * n
    for c, (xs, ys) in enumerate(cells):
        for x in xs:
            colorsX[x] = c
        for y in ys:
            colorsY[y] = c
    return colorsX, colorsY, reads


class _Search:
    """Canonical-order backtracking from X to Y on candidate bitmasks,
    refining at the nodes where that pays.

    Refinement settles the lone pairs; the free points, those of larger
    cells, are placed in source label order.  Bit q of a mask is the q-th
    free target in label order.  A point's candidates are its cell's bits
    ANDed, per placed point, with the free targets at the same rank from
    its image: every bit left fits all placed points, and no used image
    survives, as rank 0 is only on the diagonal.  A whole map is a list
    from each point's place in X's label order to its image's in Y's.

    Where that plain walk pays for dead ends, it refines at its nodes
    instead (McKay & Piperno 2014): a node individualizes its free point
    against each candidate in turn, every placed point with its image
    too, and refines that partition again.  A candidate whose refinement
    is unbalanced is pruned; otherwise the refined cells are the candidate
    masks below it, ANDed only with the points placed after it, and a
    discrete partition is the leaf itself, its lone pairs compared.
    Costs are counted in ranks read: a node reads its mask and one rank
    per placed point, and a refinement reports its own work (keys, the
    lone-pair comparison, one per point coloured); the last one sets the
    price.  A level of the walk refines its nodes' candidates from the
    time the subtrees it has walked plainly have cost more than one
    refinement each on average; a pruned candidate costs one.  So a level
    that refines in vain costs at most about twice its plain walk, and a
    walk without dead ends never refines.  Nor does one whose first
    level's subtrees each cost less than a refinement, as every subtree
    lies in one of them.

    A walk from the root also prunes its first level by automorphisms of
    Y (McKay & Piperno 2014; Seress 2003): once a candidate's subtree has
    failed, a later candidate is walked only if no automorphism carries a
    failed candidate to it.  The mirror search, from Y to Y on the same
    free targets, rank maps and colours, looks for one on demand, after
    the candidate's own refinement if its level refines, and each one
    found joins its cycles into the orbits known.  The mirror's searches
    for a candidate may read as much as the walk has per failed candidate,
    so they at most about double the walk, and a walk whose failed
    subtrees each cost less than a refinement never searches.  Nor does a
    walk whose first subtree succeeds; neither builds the mirror.
    """

    def __init__(self, X: Space, Y: Space, cells: list, colorsX: list[int], colorsY: list[int], reads: int):
        self.rkY, self.colorsY = Y._view.ranks, colorsY
        self.reads = reads  # what the last refinement read: the price of one
        self.dst = dst = _label_order(Y)
        size = Counter(colorsY)  # a cell has as many X points as Y points
        self.target_at = [p for p, j in enumerate(dst) if size[colorsY[j]] > 1]
        self.targets = targets = [dst[p] for p in self.target_at]
        self.lone = {colorsY[j]: p for p, j in enumerate(dst) if size[colorsY[j]] == 1}
        bit = [1 << q for q in range(len(targets))]
        self.cell_bits = cell_bits = {}
        at_rank: list[dict] = [{} for _ in targets]  # [q][r]: free targets at rank r from the q-th
        for q, j in enumerate(targets):
            cell_bits[colorsY[j]] = cell_bits.get(colorsY[j], 0) | bit[q]
            row, mine = self.rkY[j], at_rank[q]
            for p in range(q + 1, len(targets)):  # ranks are symmetric: fill both maps
                r, theirs = row[targets[p]], at_rank[p]
                mine[r] = mine.get(r, 0) | bit[p]
                theirs[r] = theirs.get(r, 0) | bit[q]
        self.at_rank = at_rank
        self._source(X._view.ranks, (cells, colorsX), _label_order(X))

    def _source(self, rkX, root: tuple[list, list[int]], src: list[int]) -> None:
        """Take the source's side: the root partition (cells, colours), the
        free points in label order, their ranks and their cells' bits."""
        self.rkX, self.root = rkX, root
        colorsX = root[1]
        self.free = [a for a, i in enumerate(src) if colorsX[i] not in self.lone]
        self.settled = [self.lone.get(colorsX[i]) for i in src]
        self.points = points = [src[a] for a in self.free]
        pick = operator.itemgetter(*points) if points else None  # a free cell has two points or more
        self.rows = [pick(rkX[i]) for i in points]
        self.cells = [self.cell_bits[colorsX[i]] for i in points]

    @cached_property
    def _mirror(self) -> "_Search":
        """The search from Y to Y on the same free targets, rank maps,
        colours and root cells: its leaves are automorphisms of Y."""
        mirror = copy.copy(self)
        mirror._source(self.rkY, ([(ys, ys) for _, ys in self.root[0]], self.colorsY), self.dst)
        return mirror

    def _automorphism(self, r: int, q: int, limit: int) -> tuple[Optional[list[int]], int]:
        """An automorphism of Y taking the r-th free target to the q-th, as
        the images of the free targets, and the ranks read; None if there
        is none, or if the search would read more than ``limit``.  The
        mirror search individualizes r with q, refines (priced as the last
        refinement when it prunes) and walks to its first leaf."""
        mirror = self._mirror
        found = mirror._refine_at(mirror.root, [(r, q)])
        price = mirror.reads
        if found is None:
            return None, price
        masks, part = found
        return mirror.first_leaf([], masks, 0, part, limit - price), price + mirror.walked

    def _carried(self, orbits: _Orbits, q: int, spent: int) -> bool:
        """Whether an automorphism of Y is found that carries a failed
        first-level candidate (``orbits`` of the free targets) to q.  The
        mirror search tries one failed candidate of each orbit.  Together
        its searches for q may read what the walk has read per failed
        candidate so far (``spent`` in all), about the price of walking q
        instead, and each starts only while that leaves the price of a
        refinement; so they at most about double the walk, and a walk
        whose failed subtrees each cost less than a refinement never
        searches.  An automorphism found joins its cycles into the
        orbits."""
        budget = spent // max(len(orbits.ruled_out), 1)
        for r in {orbits.find(r): r for r in orbits.ruled_out}.values():
            if budget < self.reads:
                break
            g, reads = self._automorphism(r, q, budget)
            budget -= reads
            if g is not None:
                orbits.join(g)
                return True
        return False

    def _refine_at(self, part, pairs):
        """Individualize each (free point, bit) pair in the partition and
        refine it: None if unbalanced, else the candidate masks of the
        free points and the refined partition."""
        cells, colorsX = part
        cells = cells[:]  # refinement replaces cells, never changes one
        queue = []
        for k, q in pairs:
            x, y = self.points[k], self.targets[q]
            c = colorsX[x]  # a cell split here keeps its place for its other points
            xs, ys = cells[c]
            if len(xs) == 1:
                continue  # already alone with its image
            cells[c] = ([p for p in xs if p != x], [p for p in ys if p != y])
            queue.append(len(cells))
            cells.append(([x], [y]))
            if len(xs) == 2:
                queue.append(c)  # the rest is a lone pair too
        refined = _refine_colors(self.rkX, self.rkY, cells, queue)
        if refined is None:
            return None
        colorsX, colorsY, self.reads = refined
        cell_bits: dict[int, int] = {}
        for q, y in enumerate(self.targets):
            cell_bits[colorsY[y]] = cell_bits.get(colorsY[y], 0) | 1 << q
        return [cell_bits[colorsX[x]] for x in self.points], (cells, colorsX)

    def first_leaf(self, image: list[int], masks=None, base: int = 0, part=None, limit=None) -> Optional[list[int]]:
        """The images (bits) of the free points at the first leaf below a
        consistent prefix of images of the first free points, or None.
        ``masks`` are the candidates of every free point given the first
        ``base`` placed points, and ``part`` the partition they come from,
        in which the placed points are not individualized; by default the
        cells' bits and the root partition.  The untried bits of each level
        sit on a stack, so the depth is bounded by memory, not by the
        recursion limit.  With a ``limit``, a walk that has read more at a
        dead end gives up and returns None.

        From the root (no masks given), a first point's candidate whose
        subtree failed rules out its orbit under the automorphisms of Y: a
        later candidate is skipped when an automorphism, found on demand,
        carries a failed candidate to it.  ``walked`` keeps the ranks the
        walk read, which prices the mirror's walks."""
        rows, at_rank = self.rows, self.at_rank
        f, k = len(rows), len(image)
        orbits = None
        if masks is None:
            masks, orbits = self.cells, _Orbits(len(self.targets))
        stack: list[int] = []  # the untried bits of each level
        # each frame: masks, the placed points they account for, and the
        # partition they come from with the points individualized in it
        frames = [(masks, base, part or self.root, 0)]
        # per level, the ranks read below the candidates it took plainly
        # (less those read when the current one was taken), and how many
        below, taken = [0] * f, [0] * f
        reads = 0  # a node reads its mask and one rank per placed point
        cost = self.reads  # of one refinement
        while k < f:
            bits = masks[k]
            for r, p in zip(rows[k][base:], image[base:]) if base else zip(rows[k], image):
                bits &= at_rank[p].get(r, 0)
            reads += k - base + 1
            while True:  # take the next candidate that neither refinement nor Aut(Y) prunes
                while not bits:  # dead end: back to the last level with bits left
                    if not stack or limit is not None and reads > limit:
                        self.walked = reads
                        return None
                    bits = stack.pop()
                    q = image.pop()
                    k -= 1
                    if base > k:
                        frames.pop()
                        masks, base = frames[-1][:2]
                    below[k] += reads
                    taken[k] += 1
                    if orbits and not k:
                        orbits.ruled_out.append(q)
                low = bits & -bits
                bits ^= low
                q = low.bit_length() - 1
                first = orbits and not k
                if first and orbits.dead(q):
                    continue
                spent = below[k]
                found = None
                if spent > taken[k] * cost:  # individualize the k-th point with q and refine
                    part, done = frames[-1][2:]
                    found = self._refine_at(part, [*zip(range(done, k), image[done:]), (k, q)])
                    reads += cost
                    if found is None:
                        if first:
                            orbits.ruled_out.append(q)
                        continue
                if first and self._carried(orbits, q, reads):
                    continue
                if found is None:
                    below[k] = spent - reads
                break
            if found is not None:
                cost = self.reads
                masks, part = found
                if len(part[0]) == len(self.rkX):  # discrete: every cell a lone pair
                    self.walked = reads
                    return image + [q] + [m.bit_length() - 1 for m in masks[k + 1 :]]
                base = k + 1
                frames.append((masks, base, part, base))
            stack.append(bits)
            image.append(q)
            k += 1
        self.walked = reads
        return image

    def _leaf(self, image: list[int]) -> list[int]:
        leaf = self.settled[:]
        for a, q in zip(self.free, image):
            leaf[a] = self.target_at[q]
        return leaf


class _Orbits:
    """Orbits under the permutations joined so far, as a union-find forest
    over ``range(size)``, and the points ruled out, each with its orbit:
    the search and the chain join automorphisms only, so that is sound."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.ruled_out: list[int] = []

    def find(self, q: int) -> int:
        parent = self.parent
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        return q

    def join(self, g: list[int]) -> None:
        """Join the orbit of each point a with that of g[a]."""
        for a, b in enumerate(g):
            self.parent[self.find(a)] = self.find(b)

    def dead(self, q: int) -> bool:
        """Whether q lies in a ruled-out point's orbit."""
        root = self.find(q)
        return any(self.find(r) == root for r in self.ruled_out)


def _stabilizer_chain(search: _Search, phi: list[int]) -> list[dict]:
    """Aut(X) by Sims's backtrack on the X -> Y search whose first leaf is
    ``phi`` (the images, as bits, of the free points): the Schreier trees
    (c: (g, p) for the edge c = g[p], root: None) of the basic orbits of
    more than one point.

    Every leaf of the search is phi ∘ g for an isometry g of X, so a leaf
    psi gives the automorphism g = phi⁻¹ ∘ psi (McKay & Piperno 2014).
    The base is X's free points in label order; refinement is
    isomorphism-invariant, so automorphisms fix the lone ones.  Levels run
    deepest first, so at level i every generator found so far fixes
    b_1..b_{i-1}, and one union-find of X's points, joined by each
    generator, holds the orbits of the group found so far (McKay 1981).
    At level i, each image c of b_i other than phi(b_i) that fits phi on
    b_1..b_{i-1}, where phi⁻¹(c) is in neither b_i's orbit nor a failed
    image's, is extended to its first leaf, a new generator taking b_i to
    phi⁻¹(c): a strong generating set by construction.  Once a level is
    done, one breadth-first pass from b_i over the generators (orbit size
    times their number) builds its tree, a point after its edge's other end.
    The candidate masks given phi on that prefix are built once, in one
    pass down to the deepest level that has a candidate, and every leaf at
    a level starts from them.
    """
    free, cells, rows, at_rank = search.free, search.cells, search.rows, search.at_rank
    f = len(free)
    top = next(  # the deepest b_i that another point sees as b_i sees b_1..b_{i-1}
        (i for i in reversed(range(f)) for c in range(i + 1, f) if cells[c] == cells[i] and rows[c][:i] == rows[i][:i]),
        -1,
    )
    fixed = [cells]  # fixed[i][k]: the candidates of point k once b_1..b_i go where phi takes them
    for i in range(top):
        prev, ranks = fixed[-1], at_rank[phi[i]]
        fixed.append(prev[: i + 1] + [m & ranks.get(row[i], 0) for m, row in zip(prev[i + 1 :], rows[i + 1 :])])
    back = {p: a for a, p in enumerate(search._leaf(phi))}  # phi⁻¹, from Y's label order to X's
    orbits = _Orbits(len(back))
    gens: list[list[int]] = []
    chain = []
    for i in reversed(range(top + 1)):
        masks = fixed.pop()
        orbits.ruled_out = [free[i]]  # b_i's own orbit, then the images that failed
        bits = masks[i] ^ 1 << phi[i]  # the targets that see phi(b_1..b_{i-1}) as phi(b_i) does
        while bits:
            low = bits & -bits
            bits ^= low
            c = low.bit_length() - 1
            x = back[search.target_at[c]]
            if orbits.dead(x):
                continue
            image = search.first_leaf([*phi[:i], c], masks, i)
            if image is None:
                orbits.ruled_out.append(x)
                continue
            g = [back[p] for p in search._leaf(image)]
            gens.append(g)
            orbits.join(g)
        tree, queue = {free[i]: None}, [free[i]]
        for p in queue:  # breadth first
            for g in gens:
                if g[p] not in tree:
                    tree[g[p]] = (g, p)
                    queue.append(g[p])
        if len(tree) > 1:
            chain.append(tree)
    return chain[::-1]


def _coset(phi: list[int], chain: list[dict], rows: list[list], count: int) -> Iterator[tuple]:
    """The first ``count`` maps phi ∘ g, for g in the group of the chain, in
    lexicographic order of the images, each finished as the tuple of
    rows[a][p] over the pairs a -> p of its points (X's and Y's places in
    label order), so that every map shares the entries of one table.
    At base point b, a map h that agrees on the earlier base points goes
    on as h ∘ u_c for each c in b's basic orbit, taken in order of h(c);
    u_c = g ∘ u_p along the edge c = g[p] maps b to c, and is composed on
    first use and kept.  The deepest levels whose group has at most n
    elements, the last level at least, are walked at once instead: that
    group is listed once per call, and at a map h above it its elements w
    go in order of the images h ∘ w gives their base points, each map
    gathered from the table straight away, never built as a list."""
    getitem = operator.getitem
    if not chain:
        yield tuple(map(getitem, rows, phi))
        return
    n, cut, size = len(phi), len(chain) - 1, len(chain[-1])
    while cut and size * len(chain[cut - 1]) <= n:  # the group stays a table of n² at most
        cut -= 1
        size *= len(chain[cut])
    upper, bases = chain[:cut], [next(iter(tree)) for tree in chain[cut:]]
    identity = list(range(n))
    group = [identity]
    for tree in reversed(chain[cut:]):  # u ∘ w for u in the level's transversal, w below it
        us: dict = {}
        for c, edge in tree.items():  # a tree lists a point after its edge's other end
            us[c] = identity if edge is None else list(map(edge[0].__getitem__, us[edge[1]]))
        group = [list(map(u.__getitem__, w)) for u in us.values() for w in group]
    moved = [[w[b] for w in group] for b in bases]  # the images of each base point
    known = [{next(iter(tree)): identity} for tree in upper]
    maps, todo = [phi], []
    while maps and count > 0:
        h = maps[-1]
        if len(maps) > len(upper):
            maps.pop()
            at = h.__getitem__
            # distinct elements move the base points apart, so w is never compared
            for keyed in sorted(zip(*[map(at, images) for images in moved], group))[:count]:
                yield tuple(map(getitem, rows, map(at, keyed[-1])))
            count -= len(group)
            continue
        if len(todo) < len(maps):
            todo.append(iter(sorted(upper[len(todo)], key=h.__getitem__)))
        c = next(todo[-1], None)
        if c is None:
            todo.pop()
            maps.pop()
            continue
        tree, us = upper[len(todo) - 1], known[len(todo) - 1]
        path = []
        while c not in us:
            path.append(c)
            c = tree[c][1]
        for c in reversed(path):
            g, p = tree[c]
            us[c] = list(map(g.__getitem__, us[p]))
        maps.append(list(map(h.__getitem__, us[c])))


def _solve(X: Space, Y: Space, limit: Optional[int]) -> Optional[tuple]:
    """The first leaf phi of the X -> Y search, Aut(X)'s stabilizer chain
    (none when limit is 1: phi alone is asked for), the number of maps to
    list, min(limit, |Aut(X)|), |Aut(X)| being the product of the basic
    orbit sizes, and the scaling table every map shares, the one increasing
    bijection from Y's distances to X's, with its class; None when there
    is no weak similarity.  phi gives, in X's label order, the place of
    each point's image in Y's."""
    if X.n != Y.n or len(X._view.values) != len(Y._view.values):
        return None
    cells = [(list(range(X.n)), list(range(Y.n)))]
    refined = _refine_colors(X._view.ranks, Y._view.ranks, cells)
    if refined is None:
        return None
    search = _Search(X, Y, cells, *refined)
    image = search.first_leaf([])
    if image is None:
        return None
    chain = [] if limit == 1 else _stabilizer_chain(search, image)
    order = prod(map(len, chain))
    scaling = increasing_bijection(distance_set(Y), distance_set(X))
    cls = classify_scaling(scaling, X.backend, Y.backend)
    return search._leaf(image), chain, order if limit is None else min(limit, order), scaling, cls


def _coset_holds(X: Space, Y: Space, phi: list[int], chain: list[dict]) -> bool:
    """Whether phi is a weak similarity and every strong generator of the
    chain an isometry of X, by :func:`verify`'s rank comparison.  Every map
    of the coset is phi composed with generators, so then each one is a
    weak similarity, and none needs a check of its own."""
    src, dst = _label_order(X), _label_order(Y)
    rkX = X._view.ranks
    if _rank_disagreement(rkX, Y._view.ranks, src, [dst[p] for p in phi]):
        return False
    gens = {id(edge[0]): edge[0] for tree in chain for edge in tree.values() if edge}
    return not any(_rank_disagreement(rkX, rkX, src, [src[b] for b in g]) for g in gens.values())


def build_realization(
    X: Space, Y: Space, mapping: MappingLike, scaling: ScalingFunction
) -> WeakSimilarity:
    """Assemble and classify a weak similarity from its raw parts.

    The parts are not verified here; run :func:`verify` to check the
    defining identity.
    """
    pairs = tuple(sorted(_normalize_mapping(mapping, X, Y).items()))
    cls = classify_scaling(scaling, X.backend, Y.backend)
    return WeakSimilarity(X, Y, pairs, scaling, cls)


def find_weak_similarity(X: Space, Y: Space) -> Optional[WeakSimilarity]:
    """First weak similarity in canonical order, or None if there is none."""
    found = enumerate_weak_similarities(X, Y, limit=1)
    return found[0] if found else None


def enumerate_weak_similarities(
    X: Space, Y: Space, limit: Optional[int] = DEFAULT_ENUM_LIMIT
) -> list[WeakSimilarity]:
    """All weak similarities X -> Y in canonical order, truncated at limit.

    Pass ``limit=None`` for an unbounded enumeration (factorially many on
    highly symmetric spaces).  A limit of 1 takes the search's first leaf
    alone; any other walks that leaf times Aut(X), every result sharing
    its (source label, target label) pairs with the others.
    """
    if limit is not None and limit <= 0:
        return []
    solved = _solve(X, Y, limit)
    if solved is None:
        return []
    phi, chain, count, scaling, cls = solved
    xs, ys = sorted(X.labels), sorted(Y.labels)
    if chain:
        maps = _coset(phi, chain, [list(zip(repeat(x), ys)) for x in xs], count)
    else:
        maps = [tuple(zip(xs, map(ys.__getitem__, phi)))]
    return [WeakSimilarity(X, Y, m, scaling, cls) for m in maps]


def invert(ws: WeakSimilarity) -> WeakSimilarity:
    """The inverse realization: reversed bijection, inverted scaling table."""
    mapping = {b: a for a, b in ws.mapping}
    return build_realization(ws.target, ws.source, mapping, ws.scaling.inverse())


def compose(first: WeakSimilarity, second: WeakSimilarity) -> WeakSimilarity:
    """Compose X -> Y with Y -> Z into X -> Z; scales compose the other way."""
    if first.target != second.source:
        raise SpaceMismatch("first.target and second.source must be the same space")
    fmap = first.as_map()
    smap = second.as_map()
    mapping = {x: smap[y] for x, y in fmap.items()}
    pairs = tuple((u, first.scaling.apply(g_u)) for u, g_u in second.scaling.pairs)
    return build_realization(first.source, second.target, mapping, ScalingFunction(pairs))


def pullback(X: Space, Y: Space, mapping: MappingLike) -> Space:
    """Transport d_Y back along a bijection onto X's points.

    The bijection underlies a weak similarity X -> Y exactly when the
    returned semimetric and d_X are coincreasing.
    """
    m = _normalize_mapping(mapping, X, Y)
    matrix = [
        [Y.dist(m[a], m[b]) for b in X.labels]
        for a in X.labels
    ]
    return new_space(X.labels, matrix, Y.backend)


def factorize(phi1: WeakSimilarity, phi2: WeakSimilarity) -> WeakSimilarity:
    """Solve phi2 = phi1 compose F for the self-map F of the common source.

    With finite distance sets F always classifies as an isometry.
    """
    if phi1.source != phi2.source or phi1.target != phi2.target:
        raise SpaceMismatch("both morphisms must share source and target")
    return compose(phi2, invert(phi1))
