"""Quantifier-free types of tuples, as canonical pointed certificates.

The quantifier-free type of a tuple ā in M is the canonical form of the
substructure generated by ā, pointed by ā's positions.  Two tuples have
equal types exactly when an isomorphism of their generated substructures
maps one tuple to the other componentwise -- across structures over the
same signature, not just within one structure.

A second, strictly tuple-local notion is also provided: the *induced
diagram type*, the canonical pointed form of the induced tables on the
tuple's bare point set (no closure).  The two notions agree on relational
constant-free structures; they differ exactly where function closure
leaks information, which is what term-iteration colorings need to ignore.

On relational structures without constants the generated substructure is
the tuple's bare point set, and every point is pointed, so the canonical
labeling is the first-occurrence relabeling: the certificate is written
down directly from the relation tuples inside the point set, found through
the structure's support index, with no canonical search.  Elsewhere the
induced tables on the tuple's closure are labeled by
:func:`canonical_search`, with no substructure built; the certificates of
both paths have the same shape.  Generated types are cached per tuple and
interned per certificate, so equal types from one structure are one object.

Every question of which tuples share a type -- the type predicates of the
Morleyisation and the isolator, copies of a tuple, index-type classes of
an indexed sequence, realizers of pair types -- is answered by one
partition, :func:`tuples_by_type`: the k-tuples of a structure (repeats
allowed) grouped by generated type, types in order of first realization
and each group in lexicographic order.  It is built once per structure
and arity and kept on the structure; copies of a type are its group,
filtered to injective tuples inside an optional ground set.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType

from .structures import (Signature, SignatureMismatch, Structure, StructureError,
                         canonical_search, induced_substructure_tables,
                         relation_rows_within, substructure_closure)


@dataclass(frozen=True)
class QfType:
    """Canonical pointed certificate of a tuple's generated substructure.

    ``kind`` distinguishes the closure semantics ("generated") from the
    tuple-local diagram semantics ("induced"); the two kinds never compare
    equal.
    """

    signature: Signature
    arity: int
    cert: tuple
    kind: str = "generated"

    def __post_init__(self) -> None:
        # Types key dictionaries in every hot loop; hashing the nested
        # certificate each time would dominate them.
        object.__setattr__(self, "_hash",
                           hash((self.signature, self.arity, self.cert, self.kind)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # rebuild through __init__ so an unpickled copy rehashes in its
        # own process (string hashes are salted per process)
        return (QfType, (self.signature, self.arity, self.cert, self.kind))

    def sort_key(self):
        return (self.arity, self.kind, self.cert)


def type_digest(t: QfType, length: int = 10) -> str:
    """Deterministic short hex digest, stable across runs and machines."""
    blob = repr((t.signature, t.arity, t.kind, t.cert)).encode()
    return hashlib.sha256(blob).hexdigest()[:length]


def _direct_cert(M: Structure, abar: tuple[int, ...]) -> tuple:
    # The first-occurrence relabeling is the canonical labeling here (see
    # the module docstring), so this equals canonical_search's certificate.
    relabel: dict[int, int] = {}
    for e in abar:
        if e not in relabel:
            relabel[e] = len(relabel)
    rows: dict[int, list] = {}
    for si, t in relation_rows_within(M, relabel):
        rows.setdefault(si, []).append(tuple(map(relabel.__getitem__, t)))
    # every symbol is listed; expansions have many, few of them non-empty
    rels = M.signature.relations
    rel_sec = list(zip(map(itemgetter(0), rels), itertools.repeat(())))
    for si, r in rows.items():
        rel_sec[si] = (rels[si][0], tuple(sorted(r)))
    return (len(relabel), tuple(rel_sec), (), (),
            tuple(map(relabel.__getitem__, abar)))


def _pointed_cert(M: Structure, points, abar: tuple[int, ...]) -> tuple:
    # canonical search over the induced tables on a point set containing
    # abar; on a closed point set these are the generated substructure's
    size, rel_items, fn_items, const_items, old2new = \
        induced_substructure_tables(M, points)
    pointing = tuple(old2new[x] for x in abar)
    return canonical_search(size, rel_items, fn_items, const_items, pointing)[0]


def qftp(M: Structure, abar) -> QfType:
    """Quantifier-free type of a tuple (repeats allowed).

    The canonical pointed form of the generated substructure.  On
    relational constant-free structures the certificate is written down
    directly from the relation tuples inside the tuple's point set, with
    no canonical search; otherwise the closure is labeled by
    :func:`canonical_search`.  Cached per tuple (a cached tuple is
    returned before its entries are re-checked; every other input is
    converted and range-checked), and interned per certificate: equal
    types from one structure are the same object.
    """
    if isinstance(abar, tuple):
        hit = M._type_cache.get(abar)
        if hit is not None:
            return hit
    abar = tuple(int(x) for x in abar)
    for x in abar:
        if not 0 <= x < M.size:
            raise StructureError(f"tuple entry {x} out of domain range")
    hit = M._type_cache.get(abar)
    if hit is not None:
        return hit
    cert = (_direct_cert(M, abar) if M.signature.is_relational
            else _pointed_cert(M, substructure_closure(M, abar), abar))
    t = M._type_intern.get(cert)
    if t is None:
        t = M._type_intern[cert] = QfType(M.signature, len(abar), cert)
    M._type_cache[abar] = t
    return t


def induced_type(M: Structure, abar) -> QfType:
    """Tuple-local diagram type: induced tables on the bare point set.

    Function entries count only when arguments and value stay inside the
    point set, so term equations among the tuple's entries (like
    ``s(x0) = x1``) are captured while closure beyond the tuple is not.
    """
    abar = tuple(int(x) for x in abar)
    for x in abar:
        if not 0 <= x < M.size:
            raise StructureError(f"tuple entry {x} out of domain range")
    return QfType(M.signature, len(abar), _pointed_cert(M, abar, abar),
                  kind="induced")


def _reference_type(M: Structure, abar) -> QfType:
    abar = tuple(int(x) for x in abar)
    if len(set(abar)) != len(abar):
        raise StructureError("reference tuple must have pairwise distinct entries")
    return qftp(M, abar)


def enumerate_qf_copies(M: Structure, abar) -> list[tuple[int, ...]]:
    """All injective tuples over M with the same quantifier-free type as ā.

    The reference tuple must itself be injective (copies-of-subsets
    semantics requires distinct points); the result is in lexicographic
    order, includes ā, and is *not* deduplicated up to re-enumeration of a
    shared support.
    """
    return copies_of_type(M, _reference_type(M, abar))


def qf_copies_within(M: Structure, abar, ground) -> list[tuple[int, ...]]:
    """Copies of ā whose entries stay inside a ground subset of M.

    Types are still evaluated relative to the ambient M, so a copy's
    generated substructure may leave the ground set; only its entries are
    constrained.
    """
    return copies_of_type(M, _reference_type(M, abar), ground)


def copies_of_type(M: Structure, t: QfType,
                   ground=None) -> list[tuple[int, ...]]:
    """Injective tuples of M realizing a given (generated) type.

    The type may originate in a different structure over the same
    signature; certificates make the comparison meaningful.  The result
    is in lexicographic order; ``ground`` optionally restricts the
    entries to a subset of M, and every ground entry must lie in M's
    domain.  A type whose tuples repeat an entry has no copies.
    """
    if t.signature != M.signature:
        raise SignatureMismatch("type and structure signatures differ")
    if t.kind != "generated":
        raise StructureError("copies are enumerated for generated types only")
    inside = None
    if ground is not None:
        inside = {int(g) for g in ground}
        bad = sorted(g for g in inside if not 0 <= g < M.size)
        if bad:
            raise StructureError(f"ground entry {bad[0]} out of domain range")
    group = tuples_by_type(M, t.arity).get(t, ())
    if group and len(set(group[0])) < t.arity:
        return []
    return [p for p in group if inside is None or inside.issuperset(p)]


def tuples_by_type(M: Structure,
                   k: int) -> Mapping[QfType, tuple[tuple[int, ...], ...]]:
    """The k-tuples of M, repeats allowed, grouped by generated type.

    A read-only mapping from type to its realizers: types in order of
    first realization and each group a tuple in lexicographic order (both
    follow ``itertools.product``).  Built once per structure and arity.
    """
    hit = M._type_partition.get(k)
    if hit is None:
        groups: dict[QfType, list[tuple[int, ...]]] = {}
        for tup in itertools.product(range(M.size), repeat=k):
            groups.setdefault(qftp(M, tup), []).append(tup)
        hit = M._type_partition[k] = MappingProxyType(
            {t: tuple(g) for t, g in groups.items()})
    return hit
