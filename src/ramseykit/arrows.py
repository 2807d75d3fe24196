"""Partition arrows between finite structures.

The arrow C -> (B)^A_r says: however the copies of A in C are colored
with r colors, some copy of B in C has all of its inner A-copies the same
color.  Deciding it at finite scale is a complete backtracking search for
a *bad* coloring (one with no monochromatic B-copy); the search
generalizes to degree caps d (bad now means every B-copy shows more than
d distinct colors), which is what Ramsey-degree probing and joint arrows
need.

Copies come in two flavors sharing one engine: embedding copies
(binom(C, A) as injective structure maps) and subset copies (tuples in a
host realizing a fixed quantifier-free type); :func:`build_instance`
picks one by name.  Every instance, joint ones too, has one member
rule: the members of a B-copy b are the copies b∘f, f in one list of
position tuples (binom(B, A), or the positions of the A-copies inside
the first subset B-copy).  One driver, :func:`_run`, is the only run
path: :func:`check_instance` enters it with one part and
:func:`joint_arrow_check` with one part per pattern, and each re-verifies
every FAILS it gets back.  It runs over the parts that some coloring
can take past their cap.  One seeded sampler draws for sample mode, and
one seeded local search refutes with what refute mode's budget leaves.
All results carry enough state to re-verify certificates with no search.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass

from .embeddings import Embedding, automorphism_group, enumerate_embeddings, first_embedding
from .formulas import eval_term, term_variables
from .qftypes import QfType, copies_of_type, qftp
from .structures import InputError, Structure, substructure_closure

HOLDS = "HOLDS"
FAILS = "FAILS"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_BUDGET = 10_000_000
DEFAULT_SAMPLES = 200


class ArrowError(InputError):
    """Ill-posed arrow query (bad mode, bad color count, bad coloring)."""


class TermColoringError(InputError):
    """A term-iteration precondition failed; the message says which."""


# -- colorings ---------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """A total assignment of colors in {0..r-1} to a list of copy keys.

    Keys are mapping tuples (embedding copies) or element tuples (subset
    copies); both are plain integer tuples.
    """

    r: int
    assignments: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ArrowError("number of colors must be positive")
        seen = {}
        for key, c in self.assignments:
            if not 0 <= c < self.r:
                raise ArrowError(f"color {c} out of range for r={self.r}")
            if key in seen:
                raise ArrowError(f"copy {key} colored twice")
            seen[key] = c
        object.__setattr__(self, "_map", seen)

    def color_of(self, key: tuple[int, ...]) -> int:
        try:
            return self._map[key]  # type: ignore[attr-defined]
        except KeyError:
            raise ArrowError(f"coloring is not defined on copy {key}") from None

    def keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple(key for key, _ in self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)


# -- instances ---------------------------------------------------------------


@dataclass(frozen=True)
class ArrowInstance:
    """The combinatorial core of one arrow query.

    ``members[j]`` lists the indices into ``copy_keys`` of the A-copies
    lying inside the j-th B-copy, each once, in any order.  Once built,
    everything downstream is pure hypergraph coloring; ``kind`` only
    records where the keys came from.
    """

    kind: str  # "embedding" | "subset"
    r: int
    copy_keys: tuple[tuple[int, ...], ...]
    bcopy_keys: tuple[tuple[int, ...], ...]
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ArrowError("number of colors must be positive")
        if len(self.members) != len(self.bcopy_keys):
            raise ArrowError("one member list per B-copy required")
        if list(map(len, map(set, self.members))) != list(map(len, self.members)):
            raise ArrowError("a B-copy member list repeats an index")
        used = set().union(*self.members)
        if used and not (0 <= min(used) and max(used) < len(self.copy_keys)):
            raise ArrowError("a B-copy member list names a copy outside "
                             f"0..{len(self.copy_keys) - 1}")


def _instance(kind: str, r: int, copy_keys, bcopy_keys, inner) -> ArrowInstance:
    """The instance whose B-copy b has the members b∘f, f in ``inner``
    (position tuples into a B-copy key)."""
    index = {key: i for i, key in enumerate(copy_keys)}
    members = tuple(tuple(sorted(index[tuple(b[x] for x in f)] for f in inner))
                    for b in bcopy_keys)
    return ArrowInstance(kind, r, tuple(copy_keys), tuple(bcopy_keys), members)


def _mappings(host: Structure, pattern: Structure) -> tuple[tuple[int, ...], ...]:
    return tuple(e.mapping for e in enumerate_embeddings(host, pattern))


def arrow_instance(C: Structure, B: Structure, A: Structure, r: int) -> ArrowInstance:
    """Embedding-copy instance: copies are binom(C,A), B-copies binom(C,B)."""
    bcopy_keys = _mappings(C, B)
    return _instance("embedding", r, _mappings(C, A), bcopy_keys, _mappings(B, A))


def subset_arrow_instance(host: Structure, a_type: QfType, b_type: QfType,
                          r: int, ground=None) -> ArrowInstance:
    """Subset-copy instance: copies are tuples of ``host`` realizing a type.

    Types are evaluated relative to the ambient host even when ``ground``
    restricts which elements copies may use.  The members of a B-copy are
    the A-copies among its entries.  Tuples of equal generated type carry
    sub-tuples of equal type at the same positions, so the positions of
    the A-copies inside the first B-copy serve every B-copy.
    """
    acopies = copies_of_type(host, a_type, ground)
    bcopies = copies_of_type(host, b_type, ground)
    inner = []
    if bcopies:
        pos = {x: i for i, x in enumerate(bcopies[0])}
        inner = [tuple(pos[x] for x in t)
                 for t in copies_of_type(host, a_type, bcopies[0])]
    return _instance("subset", r, acopies, bcopies, inner)


def build_instance(copies: str, C: Structure, B: Structure, A: Structure,
                   r: int) -> ArrowInstance:
    """The instance of C -> (B)^A_r over ``embedding`` or ``subset`` copies.

    Subset copies realize the full types of A and of B.
    """
    if copies == "embedding":
        return arrow_instance(C, B, A, r)
    if copies == "subset":
        return subset_arrow_instance(C, qftp(A, tuple(range(A.size))),
                                     qftp(B, tuple(range(B.size))), r)
    raise ArrowError(f"unknown copy kind {copies!r}")


# -- the bad-coloring search -------------------------------------------------


def _search_bad_coloring(members, ncopies: int, r: int, d: int, budget):
    """Complete DFS for a coloring where every B-copy shows > d colors.

    Returns ``(colors or None, stats, exhausted)``.  ``exhausted`` is True
    only when the whole space was covered, so ``None, stats, True`` is a
    proof that no bad coloring exists.  Symmetry over color names is
    broken by first-use order (a fresh color may only be one past the
    largest color used so far), which is sound: badness is invariant
    under renaming colors.

    Copies are colored in index order, so when copy ci gets a color every
    copy below it has one and no copy above it has.  A B-copy that still
    has an uncolored member can gain a color from it, so it cannot fail
    yet; it is settled when its largest member is colored.  Coloring ci
    can therefore only make unfixable the B-copies in ``closing[ci]``,
    those whose largest member is ci, and the feasibility test looks at
    no other.

    Each B-copy keeps its r color counts and then its distinct count in
    one flat list, ``r + 1`` slots from offset ``bi * (r + 1)``.
    ``touch[ci][c]`` holds the color-c slots of the B-copies containing
    ci, ``closing[ci]`` the distinct slots of the B-copies it closes.
    It needs some B-copy, r > d and every list longer than d (:func:`_settled`).
    """
    stats = {"nodes": 0, "prunes": 0, "early_exit": 0}
    nb = len(members)
    stride = r + 1
    offsets: list[list[int]] = [[] for _ in range(ncopies)]
    closing: list[list[int]] = [[] for _ in range(ncopies)]
    for bi, mem in enumerate(members):
        off = bi * stride
        for ci in mem:
            offsets[ci].append(off)
        closing[max(mem)].append(off + r)
    touch = [[[off + c for off in offs] for c in range(r)] for offs in offsets]

    cnt = [0] * (nb * stride)
    colors = [-1] * ncopies
    next_try = [0] * (ncopies + 1)
    saved_max = [-1] * (ncopies + 1)
    safe = 0  # B-copies already past d distinct colors
    nodes = prunes = 0
    limit = sys.maxsize if budget is None else budget
    top = r - 1
    fresh = d + 1
    depth = 0
    # Every B-copy is longer than d, so the copy that closes it leaves it
    # past d colors: ``safe == nb`` holds by the time the last copy is
    # colored, and the loop never runs past it.
    while True:
        cap = saved_max[depth] + 1
        if cap > top:
            cap = top
        c = next_try[depth]
        closes = closing[depth]
        while c <= cap:
            # infeasible iff a closed B-copy would show at most d colors
            shift = r - c
            for j in closes:
                k = cnt[j]
                if k < d or (k == d and cnt[j - shift]):
                    break
            else:
                break
            prunes += 1
            c += 1
        if c > cap:
            # no color fits here: uncolor the copy below and go on with it
            depth -= 1
            if depth < 0:
                stats["nodes"], stats["prunes"] = nodes, prunes
                return None, stats, True
            c = colors[depth]
            colors[depth] = -1
            shift = r - c
            for i in touch[depth][c]:
                if cnt[i] == 1:
                    cnt[i] = 0
                    j = i + shift
                    if cnt[j] == fresh:
                        safe -= 1
                    cnt[j] -= 1
                else:
                    cnt[i] -= 1
            continue
        colors[depth] = c
        shift = r - c
        for i in touch[depth][c]:
            if cnt[i]:
                cnt[i] += 1
            else:
                cnt[i] = 1
                j = i + shift
                cnt[j] += 1
                if cnt[j] == fresh:
                    safe += 1
        nodes += 1
        if nodes > limit:
            stats["nodes"], stats["prunes"] = nodes, prunes
            return None, stats, False
        next_try[depth] = c + 1
        if safe == nb:
            # every B-copy already refuted; any completion is bad
            stats["nodes"], stats["prunes"] = nodes, prunes
            stats["early_exit"] = 1
            return [x if x >= 0 else 0 for x in colors], stats, False
        saved_max[depth + 1] = c if c > saved_max[depth] else saved_max[depth]
        depth += 1
        next_try[depth] = 0


def _bcopy_rows(nb: int, members):
    """Row bi holds ``members[p][bi]`` for each part p; no parts, nb empty rows."""
    return zip(*members) if members else itertools.repeat((), nb)


def _first_good_bcopy(rows, caps, colors) -> int | None:
    """Index of the first row (one member list per part, read lazily) in
    which every part p shows at most ``caps[p]`` colors under ``colors[p]``,
    or None.  An empty row is good; :func:`_bcopy_rows` gives ``nb`` of them."""
    for bi, row in enumerate(rows):
        for mem, cap, cs in zip(row, caps, colors):
            if len({cs[m] for m in mem}) > cap:
                break
        else:
            return bi
    return None


def _sample(nb: int, members, sizes, rs, caps, seed: int, samples: int):
    """Up to ``samples`` seeded draws of one color list per part, in part
    order (so one part draws as a single arrow), stopping at the first
    draw that leaves no B-copy good.  Returns that draw or None, the
    number of draws before it, and the first good B-copy of the first
    witnessed draw."""
    rng = random.Random(seed)
    first_good = None
    rows = list(_bcopy_rows(nb, members))
    for drawn in range(samples):
        colors = [[rng.randrange(r) for _ in range(n)] for n, r in zip(sizes, rs)]
        good = _first_good_bcopy(rows, caps, colors)
        if good is None:
            return colors, drawn, first_good
        if drawn == 0:
            first_good = good
    return None, samples, first_good


def _refute_by_local_search(nb: int, members, sizes, rs, caps, seed: int,
                            steps: int):
    """Seeded local search for one color list per part leaving no B-copy
    good, over the same parts as :func:`_sample`.

    A B-copy is a conflict while it is good: within ``caps[p]`` colors for
    every part p.  Each step picks a random conflict and makes the
    recoloring of one of its members that changes the weighted conflict
    count least, ties broken at random (min-conflicts, Minton, Johnston,
    Philips & Laird 1992).  When that move does not lower the count, the
    picked B-copy's weight goes up by one (breakout, Morris 1993).
    Returns the color lists or None, and the number of steps made, at most
    ``steps``.

    Copies of all parts share one index space, part p's from
    ``first[p]``.  Part p keeps, per B-copy, its ``rs[p]`` color counts
    and then its distinct count in one flat list, as
    :func:`_search_bad_coloring` does; ``touch[g]`` pairs the distinct
    slot of each B-copy holding copy g with the B-copy's index, and color
    c's count sits ``r - c`` slots before the distinct slot.  ``over[bi]``
    counts the parts in which B-copy bi is past its cap, so bi is a
    conflict iff it is 0.  Recoloring g can change that only where g's
    part has exactly cap or cap + 1 distinct colors.  :func:`_run` calls
    it past :func:`_settled`: every B-copy can leave its cap in some part.
    """
    parts = range(len(sizes))
    rng = random.Random(seed)
    first = [sum(sizes[:p]) for p in parts]
    var_r = [rs[p] for p in parts for _ in range(sizes[p])]
    var_cap = [caps[p] for p in parts for _ in range(sizes[p])]
    touch: list[list[tuple[int, int]]] = [[] for _ in var_r]
    vars_of: list[list[int]] = [[] for _ in range(nb)]
    end = 0
    for p in parts:
        stride = rs[p] + 1
        for bi, mem in enumerate(members[p]):
            ds = end + bi * stride + rs[p]
            for ci in mem:
                touch[first[p] + ci].append((ds, bi))
                vars_of[bi].append(first[p] + ci)
        end += nb * stride
    cnt = [0] * end
    col = [rng.randrange(r) for r in var_r]
    over = [0] * nb
    for g, r in enumerate(var_r):
        sa = col[g] - r
        for ds, bi in touch[g]:
            if not cnt[ds + sa]:
                cnt[ds] += 1
                if cnt[ds] == var_cap[g] + 1:
                    over[bi] += 1
            cnt[ds + sa] += 1
    conflicts = [bi for bi in range(nb) if not over[bi]]
    pos = [-1] * nb
    for i, bi in enumerate(conflicts):
        pos[bi] = i
    weight = [1] * nb

    step = 0
    while conflicts and step < steps:
        step += 1
        picked = conflicts[rng.randrange(len(conflicts))]
        best = sys.maxsize
        moves = []
        for g in vars_of[picked]:
            r, cap, a = var_r[g], var_cap[g], col[g]
            cap1, sa = cap + 1, a - r
            for c in range(r):
                if c == a:
                    continue
                sc = c - r
                change = 0  # weighted conflict change of recoloring g to c
                for ds, bi in touch[g]:
                    k = cnt[ds]
                    if k == cap1:
                        # g is the last of color a, c is not new: back within cap
                        if cnt[ds + sa] == 1 and cnt[ds + sc] and over[bi] == 1:
                            change += weight[bi]
                    elif k == cap:
                        # a stays and c is new: past cap
                        if cnt[ds + sa] > 1 and not cnt[ds + sc] and not over[bi]:
                            change -= weight[bi]
                if change < best:
                    best = change
                    moves = [(g, c)]
                elif change == best:
                    moves.append((g, c))
        g, c = moves[rng.randrange(len(moves))] if len(moves) > 1 else moves[0]
        if best >= 0:
            weight[picked] += 1

        r, cap = var_r[g], var_cap[g]
        sa, sc = col[g] - r, c - r
        col[g] = c
        for ds, bi in touch[g]:
            k = cnt[ds]
            left = cnt[ds + sa] - 1
            cnt[ds + sa] = left
            had = cnt[ds + sc]
            cnt[ds + sc] = had + 1
            new = k - (not left) + (not had)
            if new == k:
                continue
            cnt[ds] = new
            if k > cap >= new:  # back within cap
                over[bi] -= 1
                if not over[bi]:
                    pos[bi] = len(conflicts)
                    conflicts.append(bi)
            elif new > cap >= k:  # past cap
                over[bi] += 1
                if over[bi] == 1:
                    last = conflicts.pop()
                    if last != bi:
                        conflicts[pos[bi]] = last
                        pos[last] = pos[bi]
    if conflicts:
        return None, step
    return [col[first[p]:first[p] + sizes[p]] for p in parts], step


def coloring_refutes(instance: ArrowInstance, coloring: Coloring, d: int = 1) -> bool:
    """Independent certificate check: every B-copy shows more than d colors.

    Walks the instance from scratch; shares nothing with the search.
    """
    if coloring.r != instance.r:
        return False
    if set(coloring.keys()) != set(instance.copy_keys):
        return False
    by_key = {key: c for key, c in coloring.assignments}
    per_copy = [by_key[key] for key in instance.copy_keys]
    for mem in instance.members:
        if len({per_copy[ci] for ci in mem}) <= d:
            return False
    return True


# -- results -----------------------------------------------------------------


@dataclass(frozen=True)
class ArrowResult:
    verdict: str
    mode: str
    d: int
    seed: int
    budget: int | None
    stats: tuple[tuple[str, int], ...]
    coloring: Coloring | None
    instance: ArrowInstance

    @property
    def r(self) -> int:
        return self.instance.r

    def stat(self, key: str) -> int:
        return dict(self.stats).get(key, 0)


def _live_parts(members, rs, caps) -> list[int]:
    """The parts p where some coloring takes a B-copy past ``caps[p]``:
    ``rs[p] > caps[p]`` and some member list is longer than ``caps[p]``."""
    return [p for p, (mem, r, cap) in enumerate(zip(members, rs, caps))
            if r > cap and any(len(m) > cap for m in mem)]


def _settled(nb: int, members, rs, caps):
    """The live parts, and the verdict needing no search: FAILS with no
    B-copy, HOLDS with one of at most ``caps[p]`` members in each live part."""
    live = _live_parts(members, rs, caps)
    if not nb:
        return live, FAILS
    free = [False] * nb  # B-copies some live part can take past its cap
    for p in live:
        free = [f or len(m) > caps[p] for f, m in zip(free, members[p])]
    return live, None if all(free) else HOLDS


def _run(nb: int, members, sizes, rs, caps, mode: str, seed: int, budget,
         samples: int):
    """The one run of :func:`check_instance` (one part) and
    :func:`joint_arrow_check` (a part per pattern) over :func:`_sample`'s
    parts.  :func:`_settled` goes first: its FAILS ends any run with color
    0, its HOLDS any but a sample run.  Sample mode only samples.  Else the
    live parts run, dead ones keeping color 0: a lone one's complete search
    runs on the whole budget (decide) or its first half (refute), and its
    exhaustion holds.  Refute mode's local search then gets what is left,
    all of it over several live parts, and no step limit without a budget.

    Returns the verdict, one color list per part or None, the searched
    part's stats by its index, the other stats, and the first good B-copy
    of the first draw when sampling ends INCONCLUSIVE.
    """
    if samples < 0:
        raise ArrowError("samples must be non-negative")
    if budget is not None and budget < 0:
        raise ArrowError("budget must be non-negative")
    live, settled = _settled(nb, members, rs, caps)
    if settled == FAILS:
        return FAILS, [[0] * n for n in sizes], {}, {}, None
    if mode == "sample":
        stats = {"samples": samples}
        colors, stats["witnessed"], good = _sample(nb, members, sizes, rs, caps,
                                                   seed, samples)
        if colors is not None:
            return FAILS, colors, {}, stats, None
        return INCONCLUSIVE, None, {}, stats, good
    if settled == HOLDS:
        return HOLDS, None, {}, {}, None
    parts = [[part[p] for p in live] for part in (members, sizes, rs, caps)]
    searches, stats = {}, {}
    found, steps = None, sys.maxsize if budget is None else budget
    if len(live) == 1:
        nodes = budget // 2 if mode == "refute" and budget is not None else budget
        found, searches[live[0]], done = _search_bad_coloring(
            *(part[0] for part in parts), nodes)
        if done:
            return HOLDS, None, searches, stats, None
        found = None if found is None else [found]
        if budget is not None:
            steps -= nodes
    if found is None and mode == "refute":
        found, stats["steps"] = _refute_by_local_search(nb, *parts, seed, steps)
    if found is None:
        return INCONCLUSIVE, None, searches, stats, None
    colors = [[0] * n for n in sizes]
    for p, cs in zip(live, found):
        colors[p] = cs
    return FAILS, colors, searches, stats, None


def check_instance(instance: ArrowInstance, mode: str = "decide", *, d: int = 1,
                   seed: int = 0, budget: int | None = DEFAULT_BUDGET,
                   samples: int = DEFAULT_SAMPLES) -> ArrowResult:
    """Run one instance in decide, refute, or sample mode.

    decide: complete search; HOLDS means exhaustion proved no bad coloring.
    refute: the complete search on the first half of the budget, then the
    seeded local search (:func:`_refute_by_local_search`) on the rest;
    FAILS on a bad coloring from either, HOLDS only if the search
    exhausts, else INCONCLUSIVE.
    sample: up to ``samples`` seeded uniform draws only; never HOLDS.
    :func:`_settled` decides no B-copy, r <= d, or a B-copy of at most d members.

    The search writes the stats ``nodes``, ``prunes`` and ``early_exit``
    and the local search ``steps``, each only when it runs, and sampling
    ``samples`` and ``witnessed`` (the draws before the bad one).  Every
    FAILS is re-verified through :func:`coloring_refutes`.
    """
    if mode not in ("decide", "refute", "sample"):
        raise ArrowError(f"unknown mode {mode!r}")
    if d < 1:
        raise ArrowError("degree cap must be positive")
    verdict, colors, searches, stats, _ = _run(
        len(instance.members), (instance.members,), (len(instance.copy_keys),),
        (instance.r,), (d,), mode, seed, budget, samples)
    stats.update(*searches.values())  # nodes, prunes and early_exit, if it ran
    coloring = None
    if colors is not None:
        coloring = Coloring(instance.r, tuple(zip(instance.copy_keys, colors[0])))
        if not coloring_refutes(instance, coloring, d):
            raise AssertionError("search produced a coloring that does not re-verify")
    return ArrowResult(verdict, mode, d, seed, budget, tuple(sorted(stats.items())),
                       coloring, instance)


def arrow_check(C: Structure, B: Structure, A: Structure, r: int,
                mode: str = "decide", *, seed: int = 0,
                budget: int | None = DEFAULT_BUDGET,
                samples: int = DEFAULT_SAMPLES) -> ArrowResult:
    """Decide / refute / sample the arrow C -> (B)^A_r over embedding copies."""
    if r < 1:
        raise ArrowError("number of colors must be positive")
    instance = arrow_instance(C, B, A, r)
    return check_instance(instance, mode, seed=seed, budget=budget, samples=samples)


def find_monochromatic_copy(C: Structure, B: Structure, A: Structure,
                            coloring: Coloring) -> Embedding | None:
    """First B-copy whose inner A-copies all share one color, or None.

    The coloring must be total on binom(C, A); a B-copy with no inner
    A-copies counts as (vacuously) monochromatic.
    """
    instance = arrow_instance(C, B, A, coloring.r)
    if set(coloring.keys()) != set(instance.copy_keys):
        raise ArrowError("coloring keys do not match binom(C, A)")
    per_copy = [coloring.color_of(key) for key in instance.copy_keys]
    good = _first_good_bcopy(zip(instance.members), (1,), (per_copy,))
    return None if good is None else Embedding(B, C, instance.bcopy_keys[good])


# -- Ramsey degrees ----------------------------------------------------------


@dataclass(frozen=True)
class DegreeBounds:
    """Outcome of probing upper witnesses for the Ramsey degree of A.

    ``verdict`` is WITNESS (some candidate C has the <= d image property
    for every probed r), IMPOSSIBLE (d is below the automorphism lower
    bound, so no C can exist), or INCONCLUSIVE.  ``checked`` records one
    (candidate name, size, per-r verdicts) row per scanned candidate.
    """

    lower: int
    d: int
    r_cap: int
    verdict: str
    witness: Structure | None
    checked: tuple[tuple[str, int, tuple[tuple[int, str], ...]], ...]

    def __post_init__(self) -> None:
        if self.verdict == "WITNESS":
            assert self.lower <= self.d, "witnessed degree below the lower bound"


def ramsey_degree_lower(A: Structure) -> int:
    """|Aut(A)|: colors distinguishing re-enumerations of one copy survive."""
    return len(automorphism_group(A))


def ramsey_degree_upper_probe(A: Structure, B: Structure, candidates,
                              d: int, *, r_cap: int = 3,
                              budget: int | None = DEFAULT_BUDGET) -> DegreeBounds:
    """Scan candidates for C where every r-coloring (r <= r_cap) leaves some
    B-copy with at most d colors on its inner A-copies.

    Candidates are tried in the order supplied (generators should yield by
    increasing size).  When d is below |Aut(A)| no witness can exist and
    the scan is skipped.  Colors r <= d hold trivially and are not probed,
    so r_cap must exceed d.
    """
    if d < 1:
        raise ArrowError("degree cap must be positive")
    if r_cap <= d:
        raise ArrowError(f"colour cap {r_cap} must exceed the degree cap {d}")
    if first_embedding(B, A) is None:
        raise ArrowError("A must embed in B")
    lower = ramsey_degree_lower(A)
    if d < lower:
        return DegreeBounds(lower, d, r_cap, "IMPOSSIBLE", None, ())

    checked = []
    for C in candidates:
        per_r = []
        for r in range(d + 1, r_cap + 1):  # r_cap > d: at least one round
            verdict = check_instance(arrow_instance(C, B, A, r), "decide",
                                     d=d, budget=budget).verdict
            per_r.append((r, verdict))
            if verdict != HOLDS:
                break
        checked.append((C.name or f"size{C.size}", C.size, tuple(per_r)))
        if verdict == HOLDS:
            return DegreeBounds(lower, d, r_cap, "WITNESS", C, tuple(checked))
        if verdict == INCONCLUSIVE:
            break
    return DegreeBounds(lower, d, r_cap, "INCONCLUSIVE", None, tuple(checked))


# -- joint arrows ------------------------------------------------------------


@dataclass(frozen=True)
class JointInstance:
    """One B-copy list shared by several pattern copy lists."""

    rs: tuple[int, ...]
    ds: tuple[int, ...]
    bcopy_keys: tuple[tuple[int, ...], ...]
    pattern_copies: tuple[tuple[tuple[int, ...], ...], ...]
    pattern_members: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class JointArrowResult:
    verdict: str
    mode: str
    seed: int
    stats: tuple[tuple[str, int], ...]
    witness_key: tuple[int, ...] | None
    colorings: tuple[Coloring, ...] | None
    instance: JointInstance


def joint_instance(C: Structure, B: Structure, patterns, rs, ds) -> JointInstance:
    """binom(C,B) once, then each pattern's copies and member lists."""
    patterns = list(patterns)
    if not (len(patterns) == len(rs) == len(ds)):
        raise ArrowError("patterns, colors, and caps must have equal length")
    if any(r < 1 for r in rs) or any(d < 1 for d in ds):
        raise ArrowError("colors and caps must be positive")
    bcopy_keys = _mappings(C, B)
    parts = []
    for A, r in zip(patterns, rs):
        inner = _mappings(B, A)
        if not inner:
            raise ArrowError("every pattern must embed in B")
        parts.append(_instance("embedding", r, _mappings(C, A), bcopy_keys, inner))
    return JointInstance(tuple(rs), tuple(ds), bcopy_keys,
                         tuple(p.copy_keys for p in parts),
                         tuple(p.members for p in parts))


def joint_arrow_check(C: Structure, B: Structure, patterns, rs=None, ds=None,
                      mode: str = "sample", *, seed: int = 0,
                      samples: int = DEFAULT_SAMPLES,
                      budget: int | None = DEFAULT_BUDGET) -> JointArrowResult:
    """Simultaneous arrows: seek one B-copy within every pattern's cap.

    sample: up to ``samples`` seeded coloring tuples; FAILS on the first
    leaving no B-copy good for all patterns at once, else INCONCLUSIVE
    with the first draw's first good B-copy as ``witness_key``.  Stats:
    ``samples``, and ``witnessed`` for the draws before the bad one.
    refute: :func:`_run` over the live patterns, dead ones keeping color
    0: HOLDS if a B-copy can leave no cap, the one live pattern's single
    refute run (stats ``nodes_<p>``, ``steps``), else the local search on
    the whole budget.  With no budget it has no step limit, so it does not
    return on a joint arrow of several live patterns that holds.
    """
    patterns = list(patterns)
    rs = [2] * len(patterns) if rs is None else list(rs)
    ds = [1] * len(patterns) if ds is None else list(ds)
    if mode not in ("refute", "sample"):
        raise ArrowError(f"unknown joint mode {mode!r}")

    instance = joint_instance(C, B, patterns, rs, ds)
    nb = len(instance.bcopy_keys)
    verdict, colors, searches, stats, good = _run(
        nb, instance.pattern_members, [len(pc) for pc in instance.pattern_copies],
        rs, ds, mode, seed, budget, samples)
    stats.update((f"nodes_{p}", search["nodes"]) for p, search in searches.items())
    colorings = None
    if colors is not None:
        if _first_good_bcopy(_bcopy_rows(nb, instance.pattern_members), ds,
                             colors) is not None:
            raise AssertionError("search produced colorings that do not re-verify")
        colorings = tuple(Coloring(r, tuple(zip(keys, cs)))
                          for r, keys, cs in zip(rs, instance.pattern_copies, colors))
    return JointArrowResult(verdict, mode, seed, tuple(sorted(stats.items())),
                            None if good is None else instance.bcopy_keys[good],
                            colorings, instance)


@dataclass(frozen=True)
class JointWitnessStage:
    pattern_index: int
    target_name: str
    witness_name: str | None
    scanned: tuple[tuple[str, str], ...]  # (candidate name, verdict)


@dataclass(frozen=True)
class JointWitnessResult:
    verdict: str  # "WITNESS" | "INCONCLUSIVE"
    witness: Structure | None
    stages: tuple[JointWitnessStage, ...]


def build_joint_witness(candidates, B: Structure, patterns, rs=None, *,
                        budget: int | None = DEFAULT_BUDGET) -> JointWitnessResult:
    """Compose single-arrow witnesses into a joint one, one pattern at a time.

    Stage k replaces the current target T by the first candidate C (in
    supply order, so generators should yield by increasing size) with
    C -> (T)^{A}_r decided to hold, starting from T = B.  Patterns are
    consumed from the last to the first, which keeps the composed witness
    small when later patterns are the larger ones.  With no patterns the
    target itself is the witness.
    """
    patterns = list(patterns)
    rs = [2] * len(patterns) if rs is None else list(rs)
    if len(rs) != len(patterns):
        raise ArrowError("one color count per pattern required")
    pool = list(candidates)
    names = [C.name or f"candidate{i}" for i, C in enumerate(pool)]

    current = B
    stages = []
    for p in range(len(patterns) - 1, -1, -1):
        A, r = patterns[p], rs[p]
        scanned = []
        found = None
        for C, name in zip(pool, names):
            res = check_instance(arrow_instance(C, current, A, r),
                                 "decide", budget=budget)
            scanned.append((name, res.verdict))
            if res.verdict == HOLDS:
                found = C
                break
        stages.append(JointWitnessStage(
            p, current.name or f"size{current.size}",
            found.name if found is not None else None, tuple(scanned)))
        if found is None:
            return JointWitnessResult("INCONCLUSIVE", None, tuple(stages))
        current = found
    return JointWitnessResult("WITNESS", current, tuple(stages))


# -- explicit colorings from term iteration ----------------------------------


def _apply_terms(M: Structure, terms, point: tuple[int, ...]):
    env = {i: v for i, v in enumerate(point)}
    out = []
    for t in terms:
        v = eval_term(M, t, env)
        if v is None:
            return None
        out.append(v)
    return tuple(out)


def term_iteration_coloring(M: Structure, bbar, term) -> Coloring:
    """2-coloring of the copies of b̄ by parity along the term orbit.

    ``term`` is one term (width-1 tuples) or one term per coordinate.  The
    step map u |-> t(u) must move b̄ to a distinct tuple of the same local
    diagram type; across all copies it must be acyclic and injective where
    defined (these are checked, not assumed).  Copies are taken in the
    tuple-local diagram sense, so the equations t makes between a tuple
    and its successor are part of the type; every copy of b̄ followed by
    t(b̄) is then a consecutive orbit pair and gets both parities.
    """
    bbar = tuple(int(x) for x in bbar)
    if not bbar:
        raise TermColoringError("the base tuple must be nonempty")
    terms = list(term) if isinstance(term, (list, tuple)) else [term]
    if len(terms) != len(bbar):
        raise TermColoringError(
            f"{len(bbar)} coordinates need {len(bbar)} terms, got {len(terms)}")
    for t in terms:
        bad = [v for v in term_variables(t) if v >= len(bbar)]
        if bad:
            raise TermColoringError(f"term uses unbound variable x{bad[0]}")

    from .qftypes import induced_type  # local: the only type notion used here

    tb = _apply_terms(M, terms, bbar)
    if tb is None:
        raise TermColoringError("t(b̄) is undefined")
    if tb == bbar:
        raise TermColoringError("t(b̄) must differ from b̄")
    base_type = induced_type(M, bbar)
    if induced_type(M, tb) != base_type:
        raise TermColoringError("b̄ and t(b̄) have different local diagram types")

    width = len(bbar)
    copies = [p for p in itertools.product(range(M.size), repeat=width)
              if induced_type(M, p) == base_type]
    copy_set = set(copies)

    succ: dict[tuple[int, ...], tuple[int, ...]] = {}
    pred: dict[tuple[int, ...], tuple[int, ...]] = {}
    for u in copies:
        v = _apply_terms(M, terms, u)
        if v is None or v not in copy_set:
            continue
        succ[u] = v
        if v in pred:
            raise TermColoringError(
                f"t is not injective on the copies: {pred[v]} and {u} both step to {v}")
        pred[v] = u

    parity: dict[tuple[int, ...], int] = {}
    for u in copies:
        if u in pred:
            continue
        n, node = 0, u
        while True:
            parity[node] = n % 2
            nxt = succ.get(node)
            if nxt is None:
                break
            n += 1
            node = nxt
    if len(parity) != len(copies):
        raise TermColoringError("the term orbit is periodic within the copies")

    coloring = Coloring(2, tuple((u, parity[u]) for u in copies))

    # the guarantee behind the construction: every copy of b̄ followed by
    # t(b̄) straddles one orbit step, hence sees both colors
    pair_type = induced_type(M, bbar + tb)
    for q in itertools.product(range(M.size), repeat=2 * width):
        if induced_type(M, q) != pair_type:
            continue
        head, tail = q[:width], q[width:]
        if coloring.color_of(head) == coloring.color_of(tail):
            raise TermColoringError(
                f"monochromatic concatenated copy {q}: the term equations do not "
                "pin the successor (composite terms can leave the point set)")
    return coloring


# -- promotion of point-set witnesses to generated targets -------------------


@dataclass(frozen=True)
class PromotionResult:
    structure: Structure
    precheck: ArrowResult
    recheck: ArrowResult


def promote_arrow_witness(C: Structure, A: Structure, b_prime, B: Structure, *,
                          seed: int = 0,
                          budget: int | None = DEFAULT_BUDGET) -> PromotionResult:
    """Carry C -> (B′)^A_2 over to the structure B′ generates.

    ``b_prime`` is a point set of B that generates it and supports every
    A-copy of B.  Both facts are re-verified, as is the point-set arrow
    itself (decide mode); the promoted arrow over the full B is then
    re-checked in refute mode.  Copies are subset copies throughout.
    """
    bp = tuple(sorted(set(int(x) for x in b_prime)))
    if substructure_closure(B, bp) != tuple(range(B.size)):
        raise ArrowError("the point set does not generate B")
    a_type = qftp(A, tuple(range(A.size)))
    if a_type.signature != B.signature:
        raise ArrowError("A and B signatures differ")
    inside = set(bp)
    escaped = [e.mapping for e in enumerate_embeddings(B, A)
               if not all(x in inside for x in e.mapping)]
    if escaped:
        raise ArrowError(f"A-copies of B escape the point set: {escaped[:3]}")

    bp_type = qftp(B, bp)
    precheck = check_instance(subset_arrow_instance(C, a_type, bp_type, 2),
                              "decide", budget=budget)
    if precheck.verdict != HOLDS:
        raise ArrowError(f"point-set arrow not verified: {precheck.verdict}")

    # a finite structure is closed, so the structure C generates is C
    b_type = qftp(B, tuple(range(B.size)))
    recheck = check_instance(subset_arrow_instance(C, a_type, b_type, 2),
                             "refute", seed=seed, budget=budget)
    if recheck.verdict == FAILS:
        raise ArrowError("promoted arrow refuted; promotion preconditions understate")
    return PromotionResult(C, precheck, recheck)


# -- external checking -------------------------------------------------------


def render_cnf(instance: ArrowInstance) -> str:
    """DIMACS encoding whose satisfying assignments are the bad colorings.

    Variable ci*r + c + 1 says copy ci has color c; exactly-one clauses
    per copy, plus one clause per (B-copy, color) forbidding that B-copy
    from being monochromatic in that color.  Satisfiable exactly when the
    arrow FAILS.
    """
    r = instance.r
    ncopies = len(instance.copy_keys)

    def var(ci: int, c: int) -> int:
        return ci * r + c + 1

    clauses: list[list[int]] = []
    for ci in range(ncopies):
        clauses.append([var(ci, c) for c in range(r)])
        for c1 in range(r):
            for c2 in range(c1 + 1, r):
                clauses.append([-var(ci, c1), -var(ci, c2)])
    for mem in instance.members:
        for c in range(r):
            clauses.append([-var(ci, c) for ci in mem])

    lines = [f"c arrow instance kind={instance.kind} r={r} "
             f"copies={ncopies} bcopies={len(instance.bcopy_keys)}",
             "c variable ci*r + c + 1 <-> copy ci gets color c"]
    for ci, key in enumerate(instance.copy_keys):
        lines.append(f"c copy {ci} = {','.join(map(str, key))}")
    lines.append(f"p cnf {ncopies * r} {len(clauses)}")
    for cl in clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"
