"""Generalized indiscernibility at finite scale.

An indexed sequence assigns a width-w tuple of a target structure M to
every element of a finite index structure N.  The sequence is
Δ-indiscernible when index tuples of equal quantifier-free type carry
target tuples of equal Δ-type, for a finite formula set Δ; full-type
comparison over a finite M is automorphism-orbit equality, offered as the
Δ = ALL mode.

Extraction recovers an indiscernible subsequence: color index tuples by
their Δ-type and hunt an N_target-copy inside N on which the color is
constant within each index-type class: the joint arrow under the Δ-type
colouring, every cap 1.  Bounds are everywhere explicit: index-tuple
length caps default to 4, and to |N_target| during extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arrows import _first_good_bcopy
from .embeddings import Embedding, automorphism_group, iter_embeddings
from .formulas import eval_on_tuple, formula_arity, parse_formula, render_formula
from .qftypes import QfType, copies_of_type, qftp, tuples_by_type
from .structures import InputError, Structure

ALL_FORMULAS = "ALL"

DEFAULT_ARITY_CAP = 4


class IndiscernibilityError(InputError):
    """Malformed sequence or formula set, or a violated precondition."""


@dataclass(frozen=True)
class IndexedSequence:
    """A map from index elements to width-w target tuples."""

    index: Structure
    target: Structure
    width: int
    assignment: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise IndiscernibilityError("tuple width must be positive")
        if len(self.assignment) != self.index.size:
            raise IndiscernibilityError("one target tuple per index element required")
        for t in self.assignment:
            if len(t) != self.width:
                raise IndiscernibilityError(f"tuple {t} does not have width {self.width}")
            if any(not 0 <= x < self.target.size for x in t):
                raise IndiscernibilityError(f"tuple {t} leaves the target domain")

    def tuple_at(self, i: int) -> tuple[int, ...]:
        return self.assignment[i]

    def concat(self, indices) -> tuple[int, ...]:
        out = []
        for i in indices:
            out.extend(self.assignment[i])
        return tuple(out)


def indexed_sequence(index: Structure, target: Structure, assignment,
                     width: int | None = None) -> IndexedSequence:
    """Normalize an assignment (bare ints become width-1 tuples)."""
    rows = []
    for entry in assignment:
        if isinstance(entry, int):
            rows.append((entry,))
        else:
            rows.append(tuple(int(x) for x in entry))
    if width is None:
        width = len(rows[0]) if rows else 1
    return IndexedSequence(index, target, width, tuple(rows))


@dataclass(frozen=True)
class FormulaSet:
    """Finitely many formulas, each used at its computed free-variable arity."""

    formulas: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arities",
                           tuple(formula_arity(phi) for phi in self.formulas))

    @property
    def arities(self) -> tuple[int, ...]:
        return self._arities  # type: ignore[attr-defined]

    def labels(self) -> tuple[str, ...]:
        return tuple(render_formula(phi) for phi in self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)


def formula_set(*texts: str) -> FormulaSet:
    return FormulaSet(tuple(parse_formula(t) for t in texts))


def delta_type(M: Structure, delta, values: tuple[int, ...]):
    """Δ-type of a target tuple: truth bits, or the Aut-orbit key in ALL mode.

    A formula of arity a reads the first a coordinates; formulas too wide
    for the tuple are recorded as absent rather than false, so types of
    different lengths never collide.
    """
    if delta == ALL_FORMULAS:
        auts = automorphism_group(M).elements
        return min(g.apply_tuple(values) for g in auts)
    bits = []
    for phi, a in zip(delta.formulas, delta.arities):
        if a > len(values):
            bits.append(None)
        else:
            bits.append(eval_on_tuple(M, phi, values[:a]))
    return tuple(bits)


def least_cap(I: IndexedSequence, delta) -> int:
    """Shortest index-tuple length whose target tuple every formula of Δ
    reads: ceil(a / w) for arity a and width w, 0 in ALL mode.  A check
    capped lower never evaluates some formula (``delta_type`` says absent)."""
    if delta == ALL_FORMULAS:
        return 0
    return max((-(-a // I.width) for a in delta.arities), default=0)


class _DeltaTypes(dict):
    """Target tuple -> Δ-type, one delta_type each on first lookup.  Index
    tuples share target tuples (index points share assigned tuples), so
    an index tuple is coloured by ``types[I.concat(tup)]``."""

    def __init__(self, M: Structure, delta) -> None:
        super().__init__()
        self.M, self.delta = M, delta

    def __missing__(self, values: tuple[int, ...]) -> object:
        got = self[values] = delta_type(self.M, self.delta, values)
        return got


# -- indiscernibility ---------------------------------------------------------


def is_indiscernible(I: IndexedSequence, delta,
                     cap: int = DEFAULT_ARITY_CAP) -> tuple[bool, tuple]:
    """Do equal index types force equal Δ-types, for tuple lengths <= cap?

    Violations pair each offending index tuple with the first tuple of its
    type class, tagged by the first disagreeing formula (or "orbit" in
    ALL mode).
    """
    types = _DeltaTypes(I.target, delta)
    violations = []
    for n in range(1, cap + 1):
        for group in tuples_by_type(I.index, n).values():
            rep = group[0]
            want = types[I.concat(rep)]
            for tup in group[1:]:
                got = types[I.concat(tup)]
                if got != want:
                    violations.append((rep, tup, _first_disagreement(delta, want, got)))
    return not violations, tuple(violations)


def _first_disagreement(delta, want, got) -> str:
    if delta == ALL_FORMULAS:
        return "orbit"
    for phi, w, g in zip(delta.formulas, want, got):
        if w != g:
            return render_formula(phi)
    return "?"


def reindex(I: IndexedSequence, g: Embedding) -> IndexedSequence:
    """Pull the sequence back along an embedding into its index structure."""
    if g.target != I.index:
        raise IndiscernibilityError("the embedding must land in the sequence's index")
    return IndexedSequence(g.source, I.target, I.width,
                           tuple(I.assignment[g.apply(i)] for i in range(g.source.size)))


def check_locally_based(J: IndexedSequence, I: IndexedSequence, delta,
                        cap: int = DEFAULT_ARITY_CAP):
    """Is every J-tuple matched in I by index type and Δ-type?

    The index structures may differ (extraction outputs are indexed by the
    pattern, their source by the big structure) but must share a signature
    so the type comparison is meaningful; target and width must agree.
    Returns (verdict, witness rows (ī, j̄), miss rows ī).
    """
    if J.target != I.target or J.width != I.width:
        raise IndiscernibilityError("sequences must share target and width")
    if J.index.signature != I.index.signature:
        raise IndiscernibilityError("index structures must share a signature")
    types = _DeltaTypes(I.target, delta)
    witnesses = []
    misses = []
    for n in range(1, cap + 1):
        wanted = {ibar: (qftp(J.index, ibar), types[J.concat(ibar)])
                  for ibar in itertools.product(range(J.index.size), repeat=n)}
        # the first I-tuple of each wanted key, in product order; the scan
        # stops once every key is matched
        need = set(wanted.values())
        first: dict = {}
        for jbar in itertools.product(range(I.index.size), repeat=n):
            if not need:
                break
            key = (qftp(I.index, jbar), types[I.concat(jbar)])
            if key in need:
                need.remove(key)
                first[key] = jbar
        for ibar, key in wanted.items():
            hit = first.get(key)
            if hit is None:
                misses.append(ibar)
            else:
                witnesses.append((ibar, hit))
    return not misses, tuple(witnesses), tuple(misses)


# -- the ind(N, L) constraint fragment ----------------------------------------


@dataclass(frozen=True)
class IndConstraint:
    """One implication phi(x_ī) -> phi(x_j̄) for index tuples of equal type."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    formula_index: int

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise IndiscernibilityError("constraint sides must have equal length")


def ind_constraints(N: Structure, delta: FormulaSet,
                    cap: int = DEFAULT_ARITY_CAP) -> tuple[IndConstraint, ...]:
    """Every phi(x_ī) -> phi(x_j̄) with qftp_N(ī) = qftp_N(j̄), lengths <= cap.

    Reflexive pairs are included (they are all that survives when every
    index tuple has its own type); both directions of each pair appear
    since the implication is one-sided.
    """
    if delta == ALL_FORMULAS:
        raise IndiscernibilityError("constraint fragments need an explicit formula set")
    out = []
    for n in range(1, cap + 1):
        for group in tuples_by_type(N, n).values():
            for left in group:
                for right in group:
                    for fi in range(len(delta)):
                        out.append(IndConstraint(left, right, fi))
    return tuple(out)


@dataclass(frozen=True)
class FiniteSatResult:
    found: bool
    b_set: tuple[int, ...]
    f: tuple[tuple[int, int], ...]
    tried: int


def finite_satisfiability_check(constraints, A, I: IndexedSequence,
                                delta: FormulaSet) -> FiniteSatResult:
    """Relocate a finite index set so the relocated tuples satisfy Γ0|A.

    A is enumerated in sorted order; candidates j̄ preserve the index type
    of that enumeration, identity first and then lexicographically.  Only
    constraints with all variables inside A participate.  The relocated
    assignment x_i := ā_{f(i)} must satisfy every implication
    phi(x_left) -> phi(x_right).
    """
    abar = tuple(sorted(set(int(a) for a in A)))
    inside = set(abar)
    relevant = [c for c in constraints
                if set(c.left) <= inside and set(c.right) <= inside]
    base_type = qftp(I.index, abar)
    pos = {a: k for k, a in enumerate(abar)}

    def satisfies(jbar: tuple[int, ...]) -> bool:
        relocate = {a: jbar[pos[a]] for a in abar}
        for c in relevant:
            phi = delta.formulas[c.formula_index]
            a = delta.arities[c.formula_index]
            lvals = I.concat(relocate[i] for i in c.left)
            rvals = I.concat(relocate[i] for i in c.right)
            if a > len(lvals):
                continue
            if eval_on_tuple(I.target, phi, lvals[:a]) and \
                    not eval_on_tuple(I.target, phi, rvals[:a]):
                return False
        return True

    candidates = itertools.chain(
        [abar], (p for p in copies_of_type(I.index, base_type) if p != abar))
    tried = 0
    for jbar in candidates:
        tried += 1
        if satisfies(jbar):
            return FiniteSatResult(True, tuple(sorted(jbar)),
                                   tuple(zip(abar, jbar)), tried)
    return FiniteSatResult(False, (), (), tried)


# -- extraction ----------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionResult:
    embedding: Embedding | None
    candidates_checked: int
    verified: bool


def _first_indiscernible_copy(I: IndexedSequence, N_target: Structure, delta,
                              limit: int | None = None) -> tuple[Embedding | None, int]:
    """The first good copy, or None, and the candidates drawn: B-copies are
    the first ``limit`` embeddings g in ``iter_embeddings`` order, part p
    the p-th qf-type class of pattern tuples of lengths 1..|N_target|, its
    members g∘t keyed by their target tuples in one :class:`_DeltaTypes`,
    and every cap 1."""
    classes = [group for n in range(1, N_target.size + 1)
               for group in tuples_by_type(N_target, n).values()]
    last, drawn = None, 0

    def rows():
        nonlocal last, drawn
        for g in itertools.islice(iter_embeddings(I.index, N_target), limit):
            last, drawn = g, drawn + 1
            yield (map(I.concat, map(g.apply_tuple, group)) for group in classes)

    good = _first_good_bcopy(rows(), [1] * len(classes),
                             [_DeltaTypes(I.target, delta)] * len(classes))
    return (None if good is None else last), drawn


def extract_indiscernible_pattern(I: IndexedSequence, N_target: Structure,
                                  delta) -> ExtractionResult:
    """First N_target-copy in the index on which I is Δ-indiscernible, by
    :func:`_first_indiscernible_copy`.  Survivors are re-verified with the
    public checks, so a non-none result is sound by construction."""
    if N_target.signature != I.index.signature:
        raise IndiscernibilityError("pattern and index signatures differ")
    g, checked = _first_indiscernible_copy(I, N_target, delta)
    if not checked:
        raise IndiscernibilityError("the pattern does not embed in the index")
    if g is None:
        return ExtractionResult(None, checked, False)
    J = reindex(I, g)
    good, violations = is_indiscernible(J, delta, N_target.size)
    assert good, f"extraction survivor fails re-verification: {violations[:2]}"
    based, _, misses = check_locally_based(J, I, delta, N_target.size)
    assert based, f"extraction survivor not based on source: {misses[:2]}"
    return ExtractionResult(g, checked, True)


# -- the Ψ construction --------------------------------------------------------


def induced_type_union_relation(I: IndexedSequence, phi) -> tuple[QfType, ...]:
    """Index types whose tuples make phi true: Ψ with phi(ā_ī) ⟺ qftp(ī) ∈ Ψ.

    Well-defined only when I is {phi}-indiscernible at the needed length,
    which is checked first; the defining equivalence is then re-verified
    tuple by tuple.
    """
    delta = FormulaSet((phi,))
    a = delta.arities[0]
    n = max(1, least_cap(I, delta))
    ok, violations = is_indiscernible(I, delta, cap=n)
    if not ok:
        raise IndiscernibilityError(
            f"sequence is not indiscernible for the formula: {violations[0]}")
    psi = []
    for t, group in tuples_by_type(I.index, n).items():
        truth = {a <= len(vals) and eval_on_tuple(I.target, phi, vals[:a])
                 for vals in map(I.concat, group)}
        assert len(truth) == 1  # phi is constant on each index-type class
        if truth.pop():
            psi.append(t)
    return tuple(sorted(psi, key=lambda t: t.sort_key()))
