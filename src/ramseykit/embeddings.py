"""Embeddings between finite structures.

An embedding is an injective map on domains that preserves *and reflects*
every relation atom, maps every defined function value to an equal defined
value (definedness is preserved forward, never reflected), and matches
constants.  There is one search, the generator :func:`iter_embeddings`;
it assigns pattern positions in order 0..n-1 and tries images in
ascending order, so embeddings come out sorted by mapping tuple with no
sort afterwards.  ``enumerate_embeddings``, ``first_embedding`` and
``embeds`` only consume it.

Each call first compiles a plan: for every pattern position e, the
pattern relation atoms over positions 0..e that contain e, each with its
truth value and the host table it is looked up in, and the function
entries whose largest element is e.  Assigning e then checks exactly
that list, the atoms whose truth the new image decides, and nothing that
an earlier position already checked.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

from .structures import InputError, SignatureMismatch, Structure


class EmbeddingError(InputError):
    """A mapping tuple that is not an embedding, with the reason."""


@dataclass(frozen=True)
class Embedding:
    """An injective structure map, stored as ``mapping[i] = image of i``."""

    source: Structure
    target: Structure
    mapping: tuple[int, ...]

    def apply(self, i: int) -> int:
        return self.mapping[i]

    def apply_tuple(self, t) -> tuple[int, ...]:
        return tuple(self.mapping[x] for x in t)

    def compose(self, inner: "Embedding") -> "Embedding":
        """``self`` after ``inner`` (inner's target must be self's source)."""
        if inner.target != self.source:
            raise EmbeddingError("composition mismatch: inner target differs from outer source")
        return Embedding(inner.source, self.target,
                         tuple(self.mapping[x] for x in inner.mapping))

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Independent atom-by-atom re-check; raises on any violation.

        Deliberately not shared with the search in
        :func:`iter_embeddings`: the search prunes incrementally,
        this walks every atom from scratch so returned embeddings can be
        re-certified without trusting the search.
        """
        src, tgt, m = self.source, self.target, self.mapping
        if src.signature != tgt.signature:
            raise EmbeddingError("source and target signatures differ")
        if len(m) != src.size:
            raise EmbeddingError("mapping length differs from source size")
        if any(not 0 <= y < tgt.size for y in m):
            raise EmbeddingError("mapping leaves the target domain")
        if len(set(m)) != len(m):
            raise EmbeddingError("mapping is not injective")
        for sym in src.signature.constants:
            if m[src.const(sym)] != tgt.const(sym):
                raise EmbeddingError(f"constant {sym} not preserved")
        for sym, ar in src.signature.relations:
            for t in itertools.product(range(src.size), repeat=ar):
                if src.holds(sym, t) != tgt.holds(sym, self.apply_tuple(t)):
                    raise EmbeddingError(
                        f"relation {sym} not preserved/reflected at {t}")
        for sym, _ in src.signature.functions:
            for args, val in src.fn_entries(sym):
                got = tgt.fn_value(sym, self.apply_tuple(args))
                if got != m[val]:
                    raise EmbeddingError(
                        f"function {sym} at {args}: expected image {m[val]}, target has {got}")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except EmbeddingError:
            return False
        return True


def _keyed(rows, arity: int) -> frozenset:
    """A host table in the shape ``itemgetter(*positions)`` reads off the
    assignment list: bare images for one position, tuples for more."""
    return frozenset(t[0] for t in rows) if arity == 1 else frozenset(rows)


@functools.lru_cache(maxsize=64)
def _atoms_by_last(n: int, ar: int) -> tuple[tuple[tuple, ...], ...]:
    """The ``ar``-tuples over ``0..n-1`` grouped by largest entry, each
    with its key reader."""
    groups: list[list[tuple]] = [[] for _ in range(n)]
    for t in itertools.product(range(n), repeat=ar):
        groups[max(t)].append((t, itemgetter(*t)))
    return tuple(map(tuple, groups))


def _compile(host: Structure, pattern: Structure) -> list[list[tuple]]:
    """The per-position plan of one search, described in the module
    docstring: ``plan[e]`` lists ``(key, table, truth)`` checks.

    A function entry is the atom ``args + (value,)``, which must lie on
    the graph of the host function: a function has one value per
    argument tuple, so graph membership is equality of values.
    """
    n = pattern.size
    plan: list[list[tuple]] = [[] for _ in range(n)]
    for sym, ar in pattern.signature.relations:
        table = _keyed(host._rels[sym], ar)
        held = pattern._rels[sym]
        for checks, atoms in zip(plan, _atoms_by_last(n, ar)):
            checks.extend((key, table, t in held) for t, key in atoms)
    for sym, ar in pattern.signature.functions:
        graph = _keyed((args + (val,) for args, val in host._fns[sym].items()), ar + 1)
        for args, val in pattern.fn_entries(sym):
            atom = args + (val,)
            plan[max(atom)].append((itemgetter(*atom), graph, True))
    return plan


def iter_embeddings(host: Structure, pattern: Structure,
                    fixed: dict[int, int] | None = None) -> Iterator[Embedding]:
    """Embeddings of ``pattern`` into ``host``, lazily, by mapping tuple.

    Element images are tried in ascending order, so mappings come out in
    lexicographic order.  ``fixed`` optionally pins pattern elements to
    host elements before the search (used by amalgamation checks).
    Raises :class:`SignatureMismatch` at once when the signatures differ,
    and :class:`EmbeddingError` when a pin names an element outside the
    pattern or an image outside the host.
    """
    if host.signature != pattern.signature:
        raise SignatureMismatch("pattern and host signatures differ")
    n = pattern.size
    sig = pattern.signature
    pins = {int(k): int(v) for k, v in (fixed or {}).items()}
    for k, v in pins.items():
        if not 0 <= k < n:
            raise EmbeddingError(f"pinned element {k} is not in the pattern")
        if not 0 <= v < host.size:
            raise EmbeddingError(f"pin {k} -> {v} leaves the host domain")
    if n > host.size:
        return iter(())

    pre: dict[int, int] = {}
    for sym in sig.constants:
        pe, he = pattern.const(sym), host.const(sym)
        if pre.setdefault(pe, he) != he:
            return iter(())
    for k, v in pins.items():
        if pre.setdefault(k, v) != v:
            return iter(())
    if len(set(pre.values())) != len(pre):
        return iter(())

    plan = _compile(host, pattern)
    assign = [-1] * n
    used = [False] * host.size

    def rec(e: int) -> Iterator[Embedding]:
        if e == n:
            yield Embedding(pattern, host, tuple(assign))
            return
        checks = plan[e]
        candidates = [pre[e]] if e in pre else range(host.size)
        for img in candidates:
            if used[img]:
                continue
            assign[e] = img
            for key, table, truth in checks:
                if (key(assign) in table) is not truth:
                    break
            else:
                used[img] = True
                yield from rec(e + 1)
                used[img] = False

    return rec(0)


def enumerate_embeddings(host: Structure, pattern: Structure,
                         fixed: dict[int, int] | None = None) -> list[Embedding]:
    """All embeddings of ``pattern`` into ``host``, sorted by mapping tuple."""
    return list(iter_embeddings(host, pattern, fixed))


def first_embedding(host: Structure, pattern: Structure,
                    fixed: dict[int, int] | None = None) -> Embedding | None:
    """Lexicographically least embedding, or None."""
    return next(iter_embeddings(host, pattern, fixed), None)


def embeds(host: Structure, pattern: Structure,
           fixed: dict[int, int] | None = None) -> bool:
    """Existence check: the search stops at the first embedding."""
    return first_embedding(host, pattern, fixed) is not None


@dataclass(frozen=True)
class AutomorphismGroup:
    """All automorphisms of a structure, sorted by mapping tuple."""

    structure: Structure
    elements: tuple[Embedding, ...]

    def __len__(self) -> int:
        return len(self.elements)


def automorphism_group(A: Structure) -> AutomorphismGroup:
    """The full automorphism group.

    Self-embeddings of a finite structure are automatically bijective and,
    by a finite counting argument on function graphs, reflect function
    definedness, so the set of self-embeddings is the automorphism group
    (closed under composition and inverse, contains the identity).
    Results are cached on the structure.
    """
    if A._aut_cache is None:
        A._aut_cache = AutomorphismGroup(A, tuple(enumerate_embeddings(A, A)))
    return A._aut_cache


def is_rigid(A: Structure) -> bool:
    """True when the identity is the only automorphism."""
    return len(automorphism_group(A)) == 1
