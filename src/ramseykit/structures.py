"""Finite first-order structures over integer domains.

A :class:`Structure` interprets a finite :class:`Signature` of relation
symbols, partial function symbols, and constant symbols over the domain
``{0, ..., n-1}``.  Function tables may be partial (that is what makes
acyclic successor chains representable at finite scale); constant tables
are total.  Everything downstream -- embeddings, quantifier-free types,
partition arrows -- reduces to the two primitives implemented here:
generated substructures and a deterministic canonical labeling.

The canonical labeling is a self-contained backtracking search with
iterated color refinement.  It never consults an external library and is
deterministic: equal inputs produce byte-equal certificates, and two
structures are isomorphic exactly when their certificates coincide.

The search prunes with automorphisms, as nauty does (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  Two leaves with equal
certificates give an automorphism; at a node, a child that a recorded
automorphism fixing the node's individualised vertices maps onto an
explored child is skipped, since its subtree is the image of an explored
one and holds the same leaf certificates.  The skipped child comes later
in the search order, so the least certificate and the first labeling
that reaches it are those of the unpruned search.  Pure sets and other
highly symmetric inputs cost polynomial time instead of n! leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class InputError(ValueError):
    """Input that ramseykit rejects.  Every package error derives from it;
    the command line exits 3 on it alone, and anything else is a fault."""


class SignatureError(InputError):
    """Malformed signature (duplicate names, bad arity)."""


class StructureError(InputError):
    """Tables that do not fit the signature or the domain."""


class SignatureMismatch(InputError):
    """An operation mixed structures over different signatures.

    Kept distinct from a plain non-isomorphism verdict: ``is_isomorphic``
    raises this instead of returning False when the comparison itself is
    ill-posed.
    """


def read_natural(text: str, what: str) -> int:
    """``text`` as a count: at most 18 decimal digits, so ``int`` always
    converts it; anything else is an :class:`InputError` naming ``what``."""
    if not text.isdecimal() or len(text) > 18:
        raise InputError(f"{what} must be a non-negative integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class Signature:
    """Relation, partial-function, and constant symbols with arities.

    Symbol lists are sorted on construction so two signatures with the
    same symbols compare equal regardless of declaration order.
    """

    relations: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rels = tuple(sorted((str(n), int(a)) for n, a in self.relations))
        fns = tuple(sorted((str(n), int(a)) for n, a in self.functions))
        consts = tuple(sorted(str(n) for n in self.constants))
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "functions", fns)
        object.__setattr__(self, "constants", consts)
        names = [n for n, _ in rels] + [n for n, _ in fns] + list(consts)
        if len(names) != len(set(names)):
            raise SignatureError("symbol names must be unique across kinds")
        for name in names:
            if not name or any(ch.isspace() for ch in name):
                raise SignatureError(f"bad symbol name {name!r}")
        for name, ar in rels + fns:
            if ar < 1:
                raise SignatureError(f"arity of {name!r} must be at least 1")
        object.__setattr__(self, "_rel_arity", dict(rels))
        object.__setattr__(self, "_fn_arity", dict(fns))

    def rel_arity(self, name: str) -> int:
        try:
            return self._rel_arity[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {name!r}") from None

    def fn_arity(self, name: str) -> int:
        try:
            return self._fn_arity[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SignatureError(f"unknown function symbol {name!r}") from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.relations)

    @property
    def function_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.functions)

    @property
    def is_relational(self) -> bool:
        return not self.functions and not self.constants


class Structure:
    """A finite structure with domain ``{0, ..., size-1}``.

    Equality and hashing are *labeled* identity: same signature, same
    domain size, same tables.  Isomorphism is a separate, coarser notion
    decided through :func:`canonical_form`.  The ``name`` attribute is a
    label for file formats and reports only; it does not participate in
    equality.
    """

    __slots__ = (
        "signature", "size", "name", "_rels", "_fns", "_consts", "_key",
        "_hash", "_type_cache", "_type_intern", "_type_partition",
        "_support_index", "_canon_cert", "_aut_cache",
    )

    def __init__(self, signature: Signature, size: int, relations=None,
                 functions=None, constants=None, name: str = ""):
        if size < 0:
            raise StructureError("domain size must be nonnegative")
        relations = dict(relations or {})
        functions = dict(functions or {})
        constants = dict(constants or {})
        for sym in relations:
            signature.rel_arity(sym)
        for sym in functions:
            signature.fn_arity(sym)
        for sym in constants:
            if sym not in signature.constants:
                raise SignatureError(f"unknown constant symbol {sym!r}")

        rels: dict[str, frozenset[tuple[int, ...]]] = {}
        for sym, ar in signature.relations:
            table = set()
            for t in relations.get(sym, ()):
                t = tuple(int(x) for x in t)
                if len(t) != ar:
                    raise StructureError(f"{sym}: tuple {t} has arity {len(t)}, expected {ar}")
                if not all(0 <= x < size for x in t):
                    raise StructureError(f"{sym}: tuple {t} out of domain range")
                table.add(t)
            rels[sym] = frozenset(table)

        fns: dict[str, dict[tuple[int, ...], int]] = {}
        for sym, ar in signature.functions:
            table = {}
            for args, val in dict(functions.get(sym, {})).items():
                args = tuple(int(x) for x in args)
                val = int(val)
                if len(args) != ar:
                    raise StructureError(f"{sym}: arguments {args} have arity {len(args)}, expected {ar}")
                if not all(0 <= x < size for x in args) or not 0 <= val < size:
                    raise StructureError(f"{sym}: entry {args}->{val} out of domain range")
                table[args] = val
            fns[sym] = table

        consts: dict[str, int] = {}
        for sym in signature.constants:
            if sym not in constants:
                raise StructureError(f"constant {sym!r} has no value (constants are total)")
            val = int(constants[sym])
            if not 0 <= val < size:
                raise StructureError(f"constant {sym} = {val} out of domain range")
            consts[sym] = val

        self.signature = signature
        self.size = size
        self.name = name
        self._rels = rels
        self._fns = fns
        self._consts = consts
        self._key = (
            signature, size,
            tuple((s, tuple(sorted(ts))) for s, ts in sorted(rels.items())),
            tuple((s, tuple(sorted(tb.items()))) for s, tb in sorted(fns.items())),
            tuple(sorted(consts.items())),
        )
        self._hash = hash(self._key)
        self._type_cache: dict = {}
        self._type_intern: dict = {}
        self._type_partition: dict = {}
        self._support_index = None
        self._canon_cert = None
        self._aut_cache = None

    # -- table access ----------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.size)

    def holds(self, rel: str, t: tuple[int, ...]) -> bool:
        return tuple(t) in self._rels[rel]

    def rel_tuples(self, rel: str) -> tuple[tuple[int, ...], ...]:
        """All tuples of a relation, sorted for deterministic iteration."""
        return tuple(sorted(self._rels[rel]))

    def fn_value(self, fn: str, args: tuple[int, ...]) -> int | None:
        return self._fns[fn].get(tuple(args))

    def fn_entries(self, fn: str) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(sorted(self._fns[fn].items()))

    def const(self, sym: str) -> int:
        return self._consts[sym]

    def constant_values(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._consts.items()))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Structure) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Structure{label} size={self.size}>"


# -- relation tuples by support ---------------------------------------------


def _rows_by_support(M: Structure):
    # Built once per structure: each relation tuple filed under its point
    # set (as a sorted tuple) with the symbol's position in the signature,
    # and the size of the largest point set.  One entry per table row, so
    # it is no larger than M's own tables.
    if M._support_index is None:
        index: dict[tuple[int, ...], list] = {}
        for si, (sym, _) in enumerate(M.signature.relations):
            for t in M._rels[sym]:
                index.setdefault(tuple(sorted(set(t))), []).append((si, t))
        M._support_index = (index, max(map(len, index), default=0))
    return M._support_index


def relation_rows_within(M: Structure, points) -> list[tuple[int, tuple[int, ...]]]:
    """Every relation tuple whose entries all lie in a set of domain elements.

    Returns ``(symbol position, tuple)`` pairs, the position indexing
    ``M.signature.relations``, in no particular order.  Looks up each
    subset of the points no larger than the widest relation tuple, so the
    cost depends on the point set and not on the size of the tables.
    """
    index, widest = _rows_by_support(M)
    pts = sorted(set(points))
    rows = []
    for r in range(1, min(len(pts), widest) + 1):
        for sub in itertools.combinations(pts, r):
            hit = index.get(sub)
            if hit is not None:
                rows.extend(hit)
    return rows


# -- generated substructures -----------------------------------------------


def substructure_closure(M: Structure, points) -> tuple[int, ...]:
    """Close a point set under all defined function applications and constants."""
    current = set(int(p) for p in points)
    for p in current:
        if not 0 <= p < M.size:
            raise StructureError(f"point {p} out of domain range")
    current.update(v for _, v in M.constant_values())
    changed = True
    while changed:
        changed = False
        for fn, _ in M.signature.functions:
            for args, val in M._fns[fn].items():
                if val not in current and all(a in current for a in args):
                    current.add(val)
                    changed = True
    return tuple(sorted(current))


def generated_substructure(M: Structure, points):
    """Substructure generated by a point set.

    Returns ``(sub, inclusion)`` where ``sub`` is the induced structure on
    the closure of ``points`` (under function tables and constants),
    relabeled to ``{0..k-1}`` in ascending order of the original elements,
    and ``inclusion`` maps sub elements back into ``M`` (as a mapping
    tuple; ``inclusion[i]`` is the original element).
    """
    closure = substructure_closure(M, points)
    # on a closed set the induced tables lose no function entry or constant
    size, rel_items, fn_items, const_items, _ = induced_substructure_tables(M, closure)
    return Structure(M.signature, size, dict(rel_items),
                     {sym: dict(entries) for sym, entries in fn_items},
                     dict(const_items)), closure


def induced_substructure_tables(M: Structure, points):
    """Induced tables on a bare point set (no closure).

    Function entries survive only when arguments *and* value stay inside
    the set; constants outside the set are dropped from the table (the
    result is raw table data, not a Structure, because dropped constants
    would violate totality).  Used for tuple-local diagram types.
    """
    pts = tuple(sorted(set(int(p) for p in points)))
    old2new = {e: i for i, e in enumerate(pts)}
    inside = set(pts)
    rel_items = tuple(
        (sym, tuple(sorted(tuple(old2new[x] for x in t)
                           for t in M._rels[sym] if all(x in inside for x in t))))
        for sym, _ in M.signature.relations)
    fn_items = tuple(
        (sym, tuple(sorted((tuple(old2new[x] for x in args), old2new[val])
                           for args, val in M._fns[sym].items()
                           if all(x in inside for x in args) and val in inside)))
        for sym, _ in M.signature.functions)
    const_items = tuple(sorted((sym, old2new[val])
                               for sym, val in M.constant_values() if val in inside))
    return len(pts), rel_items, fn_items, const_items, old2new


# -- canonical labeling ------------------------------------------------------


def _dense_ranks(keys) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def canonical_search(size, rel_items, fn_items, const_items, pointing=()):
    """Canonically label raw structure tables, optionally pointed by a tuple.

    ``rel_items``/``fn_items`` must list *every* symbol of the signature in
    a fixed (sorted) order so certificates over the same signature are
    comparable.  Returns ``(certificate, labeling)`` where ``labeling`` maps
    old element ids to canonical ids and the certificate is a nested tuple
    of relabeled tables plus the relabeled pointing.  The certificate is
    invariant under relabeling of the input: the minimum over a
    backtracking search guided by color refinement, with the subtrees
    that a found automorphism maps onto explored ones left out (see the
    module docstring).
    """
    pointing = tuple(pointing)
    if size == 0:
        cert = (0, tuple((n, ()) for n, _ in rel_items),
                tuple((n, ()) for n, _ in fn_items), (), pointing)
        return cert, ()

    incidence: list[list] = [[] for _ in range(size)]
    for si, (_, tuples) in enumerate(rel_items):
        for t in tuples:
            ent = (0, si, t)
            for e in set(t):
                incidence[e].append(ent)
    for si, (_, entries) in enumerate(fn_items):
        for args, val in entries:
            ent = (1, si, args + (val,))
            for e in set(args) | {val}:
                incidence[e].append(ent)

    pos_of: list[list[int]] = [[] for _ in range(size)]
    for i, e in enumerate(pointing):
        pos_of[e].append(i)
    const_at: list[list[str]] = [[] for _ in range(size)]
    for sym, e in const_items:
        const_at[e].append(sym)

    init_keys = []
    for e in range(size):
        profile = sorted((kind, si, j)
                         for kind, si, t in incidence[e]
                         for j, x in enumerate(t) if x == e)
        init_keys.append((tuple(pos_of[e]), tuple(const_at[e]), tuple(profile)))
    colors0 = _dense_ranks(init_keys)

    def refine(colors: list[int]) -> list[int]:
        while True:
            keys = []
            for e in range(size):
                sigs = sorted((kind, si, tuple(colors[x] for x in t),
                               tuple(j for j, x in enumerate(t) if x == e))
                              for kind, si, t in incidence[e])
                keys.append((colors[e], tuple(sigs)))
            new = _dense_ranks(keys)
            if new == colors:
                return colors
            colors = new

    def build_cert(perm):
        rel_sec = tuple(
            (name, tuple(sorted(tuple(perm[x] for x in t) for t in tuples)))
            for name, tuples in rel_items)
        fn_sec = tuple(
            (name, tuple(sorted((tuple(perm[x] for x in args), perm[val])
                                for args, val in entries)))
            for name, entries in fn_items)
        const_sec = tuple(sorted((sym, perm[e]) for sym, e in const_items))
        return (size, rel_sec, fn_sec, const_sec, tuple(perm[e] for e in pointing))

    first = best = None  # (certificate, labeling) of the first and the least leaf
    automorphisms: list[tuple[int, ...]] = []

    def explored_orbit(e: int, explored: list[int], path: list[int]) -> bool:
        # Is e the image of an explored child under the recorded
        # automorphisms that fix every individualised vertex of the path?
        gens = [g for g in automorphisms if all(g[v] == v for v in path)]
        orbit, frontier = {e}, [e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return not orbit.isdisjoint(explored)

    def rec(colors: list[int], path: list[int]) -> None:
        nonlocal first, best
        colors = refine(colors)
        if len(set(colors)) == size:
            leaf = (build_cert(colors), tuple(colors))
            # Equal certificates: other_lab^-1 ∘ lab maps the structure onto
            # itself.  The best leaf is the first or has a smaller
            # certificate, so at most one of the two matches.
            for other in (first, best):
                if other is not None and other[0] == leaf[0]:
                    inv = {c: x for x, c in enumerate(other[1])}
                    automorphisms.append(tuple(inv[c] for c in leaf[1]))
                    break
            if first is None:
                first = leaf
            if best is None or leaf[0] < best[0]:
                best = leaf
            return
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k > 1)
        cell = [e for e in range(size) if colors[e] == target]
        explored: list[int] = []
        for e in cell:
            if explored and explored_orbit(e, explored, path):
                continue
            explored.append(e)
            keys = [(colors[x], 0 if x == e else 1) for x in range(size)]
            rec(_dense_ranks(keys), path + [e])

    rec(list(colors0), [])
    return best


def structure_tables(M: Structure):
    """Full raw tables of a structure in canonical symbol order."""
    rel_items = tuple((sym, tuple(sorted(M._rels[sym])))
                      for sym, _ in M.signature.relations)
    fn_items = tuple((sym, M.fn_entries(sym)) for sym, _ in M.signature.functions)
    return rel_items, fn_items, M.constant_values()


def canonical_certificate(M: Structure) -> tuple:
    """Unpointed canonical certificate; equal iff structures isomorphic."""
    if M._canon_cert is None:
        rel_items, fn_items, const_items = structure_tables(M)
        cert, _ = canonical_search(M.size, rel_items, fn_items, const_items)
        M._canon_cert = cert
    return M._canon_cert


def canonical_form(M: Structure) -> Structure:
    """A canonically labeled copy of ``M``.

    Idempotent (the result is rebuilt from the certificate, so isomorphic
    inputs yield the identical labeled structure).
    """
    cert = canonical_certificate(M)
    size, rel_sec, fn_sec, const_sec, _ = cert
    out = Structure(
        M.signature, size,
        {name: tuples for name, tuples in rel_sec},
        {name: dict(entries) for name, entries in fn_sec},
        dict(const_sec), name=M.name)
    out._canon_cert = cert
    return out


def is_isomorphic(A: Structure, B: Structure) -> bool:
    """Isomorphism test via canonical certificates.

    Raises :class:`SignatureMismatch` when the signatures differ; the
    question "are these isomorphic" is only well-posed over one signature.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("cannot compare structures over different signatures")
    if A.size != B.size:
        return False
    return canonical_certificate(A) == canonical_certificate(B)
