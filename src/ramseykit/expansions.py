"""Expansions of a structure by predicates naming quantifier-free types.

Up to a mandatory arity bound k (a finite structure realizes types of
every arity, so the bound keeps signatures finite), each realized type p
gets a fresh relation symbol R_p holding of exactly its realizers.  The
*Morleyisation* keeps the original tables and adds the R_p; the
*isolator* keeps only the R_p, dropping the original language entirely
(constants then survive only through the types that mention them).

Symbol names derive from the canonical certificate of the type, so equal
inputs serialize identically across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qftypes import QfType, tuples_by_type, type_digest
from .structures import Signature, SignatureMismatch, Structure, StructureError


@dataclass(frozen=True)
class TypePredicateTable:
    """Realized types of arity <= k, each with a fresh symbol and realizers.

    For every arity m <= k the rows of that arity partition the m-tuples
    of the carrier (every tuple realizes exactly one type).
    """

    k: int
    rows: tuple[tuple[str, QfType, tuple[tuple[int, ...], ...]], ...]

    def symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple((name, t.arity) for name, t, _ in self.rows)

    def arity_rows(self, m: int):
        return tuple(row for row in self.rows if row[1].arity == m)


def realized_types(M: Structure, k: int) -> TypePredicateTable:
    """Group all tuples of arity <= k of M by quantifier-free type.

    Rows are sorted by (arity, certificate); names are ``qft<arity>_`` plus
    a digest of the type, lengthened on the rare clash with an existing
    symbol or another row.
    """
    if k < 1:
        raise StructureError("arity bound must be positive")
    taken = set(M.signature.relation_names) | set(M.signature.function_names) \
        | set(M.signature.constants)
    rows = []
    for m in range(1, k + 1):
        groups = tuples_by_type(M, m)
        for t in sorted(groups, key=lambda t: t.sort_key()):
            length = 10
            name = f"qft{m}_{type_digest(t, length)}"
            while name in taken:
                length += 4
                name = f"qft{m}_{type_digest(t, length)}"
            taken.add(name)
            rows.append((name, t, groups[t]))
    return TypePredicateTable(k, tuple(rows))


def qf_type_morleyisation(M: Structure, k: int) -> Structure:
    """M with one added predicate per realized type of arity <= k.

    Original relation, function, and constant tables are carried over
    unchanged; only the signature grows.
    """
    table = realized_types(M, k)
    sig = Signature(
        relations=M.signature.relations + table.symbols(),
        functions=M.signature.functions,
        constants=M.signature.constants)
    rels = {sym: M.rel_tuples(sym) for sym in M.signature.relation_names}
    for name, _, realizers in table.rows:
        rels[name] = realizers
    fns = {sym: dict(M.fn_entries(sym)) for sym in M.signature.function_names}
    return Structure(sig, M.size, rels, fns, dict(M.constant_values()),
                     name=f"{M.name}_mor{k}" if M.name else f"mor{k}")


def isolator(M: Structure, k: int) -> Structure:
    """Purely relational reduct to the type predicates of arity <= k alone."""
    table = realized_types(M, k)
    sig = Signature(relations=table.symbols())
    rels = {name: realizers for name, _, realizers in table.rows}
    return Structure(sig, M.size, rels,
                     name=f"{M.name}_iso{k}" if M.name else f"iso{k}")


def same_qftp_partition(M1: Structure, M2: Structure, k: int) -> bool:
    """Do both structures cut the same type-equality classes, arity <= k?

    Compares the partitions of m-tuples induced by qftp in each structure,
    for every m <= k; the signatures may differ, the domain may not.
    """
    if k < 1:
        raise StructureError("arity bound must be positive")
    if M1.size != M2.size:
        raise StructureError("structures must share one domain")
    return all({frozenset(g) for g in tuples_by_type(M1, m).values()}
               == {frozenset(g) for g in tuples_by_type(M2, m).values()}
               for m in range(1, k + 1))


@dataclass(frozen=True)
class TypeUnionRelation:
    """The binary relation {(a,b) : qftp(a,b) in Phi} on one structure.

    Membership is decided purely by type, so the relation is invariant
    under every automorphism of the carrier.  The order-shaped flags say
    whether it happens to be a strict linear order.
    """

    size: int
    types: tuple[QfType, ...]
    pairs: tuple[tuple[int, int], ...]
    irreflexive: bool
    antisymmetric: bool
    transitive: bool
    total: bool

    def holds(self, a: int, b: int) -> bool:
        return (a, b) in self._pair_set  # type: ignore[attr-defined]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pair_set", frozenset(self.pairs))

    @property
    def is_strict_linear_order(self) -> bool:
        return self.irreflexive and self.antisymmetric and self.transitive and self.total


def define_by_type_union(M: Structure, types) -> TypeUnionRelation:
    """Evaluate a union-of-binary-types definition on M and classify it."""
    phi = set()
    for t in types:
        if not isinstance(t, QfType) or t.kind != "generated":
            raise StructureError("type unions take generated QfTypes")
        if t.arity != 2:
            raise StructureError("type unions are binary: every type must have arity 2")
        if t.signature != M.signature:
            raise SignatureMismatch("type and structure signatures differ")
        phi.add(t)

    n = M.size
    groups = tuples_by_type(M, 2)
    pairs = tuple(sorted(p for t in phi for p in groups.get(t, ())))
    pair_set = set(pairs)
    irreflexive = all((a, a) not in pair_set for a in range(n))
    antisymmetric = all(not ((a, b) in pair_set and (b, a) in pair_set)
                        for a in range(n) for b in range(n) if a != b)
    transitive = all((a, c) in pair_set
                     for a, b in pairs for b2, c in pairs if b == b2)
    total = all((a, b) in pair_set or (b, a) in pair_set
                for a in range(n) for b in range(n) if a != b)
    return TypeUnionRelation(n, tuple(sorted(phi, key=lambda t: t.sort_key())),
                             pairs, irreflexive, antisymmetric, transitive, total)
