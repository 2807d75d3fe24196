"""Line-oriented text files for structures, classes, and indexed sequences.

The grammar is deliberately small enough to write by hand.  ``#`` starts a
comment, blank lines separate nothing.  A file is a series of blocks, each
opened by a ``signature``, ``structure``, ``class`` or ``sequence`` header:

    signature S
    relation < 2
    function s 1
    constant e

    structure LO_3 : S
    domain 3
    < : (0,1) (0,2) (1,2)
    s : 0->1 1->2
    e = 0

    class orders : S
    member LO_3
    generate linear-orders upto 4   # members up to iso; implies `open`

    sequence walk : S
    index LO_3
    target LO_3
    width 1
    map 0 -> (0)
    delta <(x0, x1)

Blocks are built in file order, one function per block kind, so
``member``, ``index`` and ``target`` name an inline structure from earlier in
the file, or a path relative to the file's directory; a reference back to
a file still being read is an error.  Names are unique per kind and hold no
whitespace, ``:`` or ``#``.  ``delta`` formulas use only the target's
symbols.  A row error is reported at its row, an error inside a referenced
file at the referring row, naming the file; a whole-block error (a
structure without ``domain``, a sequence without ``index``, a rejected
signature or sequence, a reused name) at the block's header.  Domain
elements are bare indices; external names live only here, never inside
structures.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from .classes import GENERATORS, FiniteClass, finite_class
from .formulas import formula_symbols, parse_formula, render_formula
from .indiscernibles import ALL_FORMULAS, FormulaSet, IndexedSequence
from .structures import InputError, Signature, Structure, read_natural


class ParseError(InputError):
    """Input rejected, with the 1-based source line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class SerializeError(InputError):
    """A name that the text format could not read back."""


@dataclass
class Document:
    """Everything defined in one file, keyed by declared name."""

    signatures: dict[str, Signature] = field(default_factory=dict)
    structures: dict[str, Structure] = field(default_factory=dict)
    classes: dict[str, FiniteClass] = field(default_factory=dict)
    sequences: dict[str, tuple[IndexedSequence, object]] = field(default_factory=dict)


_TUPLE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")
_FN_ENTRY = re.compile(r"(\d+(?:\s*,\s*\d+)*)\s*->\s*(\d+)")
_MAP = re.compile(r"(\d+)\s*->\s*\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")
# a name ends at whitespace, `:` starts a signature, `#` a comment
_NOT_IN_NAME = re.compile(r"[\s:#]")


def parse_document(text: str, base_dir: str | None = None) -> Document:
    return _document(text, (base_dir, frozenset()))


def _document(text: str, source: tuple) -> Document:
    doc = Document()
    tables = {"signature": doc.signatures, "structure": doc.structures,
              "class": doc.classes, "sequence": doc.sequences}
    for kind, (line, _, _, header), rows in _blocks(text):
        name, value = _at(line, _BUILDERS[kind], doc, header, line, rows, source)
        if name in tables[kind]:
            raise ParseError(f"{kind} name {name!r} is already taken", line)
        tables[kind][name] = value
    return doc


def _blocks(text: str) -> list:
    """Cut ``text`` at its header lines into ``(kind, header, rows)`` blocks;
    a header or row is ``(line number, line, first word, rest)``."""
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        row = (lineno, line, head, rest.strip())
        if head in _BUILDERS:
            blocks.append((head, row, []))
        elif blocks:
            blocks[-1][2].append(row)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    return blocks


# -- one builder per block kind: (doc, header, line, rows, source) -> (name, value);
# `source` is the directory references resolve in and the real paths of the
# files being read, so that a reference loop stops


def _signature(doc, header, line, rows, source):
    name = _one_name(header, line)
    symbols: dict[str, list] = {"relation": [], "function": [], "constant": []}
    for lineno, _, head, rest in rows:
        if head not in symbols:
            raise ParseError(f"unknown directive {head!r}", lineno)
        symbols[head].append(_one_name(rest, lineno) if head == "constant"
                             else _sym_arity(rest, lineno))
    return name, Signature(*(tuple(decls) for decls in symbols.values()))


def _structure(doc, header, line, rows, source):
    name, sig = _name_and_signature(doc, header, line)
    size = None
    rels, fns, consts = {}, {}, {}
    for lineno, text, head, rest in rows:
        if head == "domain":
            size = _at(lineno, read_natural, rest, "domain")
            continue
        sym, sep, tail = _table_line(text)
        if not (sep == ":" and sym in sig.relation_names + sig.function_names
                or sep == "=" and sym in sig.constants):
            raise ParseError(f"unknown symbol or directive {sym!r}", lineno)
        if size is None:
            raise ParseError("domain must come before tables", lineno)
        if sym in sig.relation_names:
            arity, seen = sig.rel_arity(sym), rels.setdefault(sym, set())
            for m in _TUPLE.finditer(tail):
                entries = tuple(_element(x, size, lineno) for x in m.group(1).split(","))
                if len(entries) != arity:
                    raise ParseError(
                        f"{sym} expects arity {arity}, got tuple {entries}", lineno)
                seen.add(entries)
            if re.sub(r"[\s()\d,]", "", tail):
                raise ParseError(f"bad relation row for {sym}: {tail!r}", lineno)
        elif sym in sig.function_names:
            arity, table = sig.fn_arity(sym), fns.setdefault(sym, {})
            matches = list(_FN_ENTRY.finditer(tail))
            if not matches and tail.strip():
                raise ParseError(f"bad function row for {sym}: {tail!r}", lineno)
            for m in matches:
                args = tuple(_element(x, size, lineno) for x in m.group(1).split(","))
                value = _element(m.group(2), size, lineno)
                if len(args) != arity:
                    raise ParseError(
                        f"{sym} expects arity {arity}, got arguments {args}", lineno)
                if args in table:
                    raise ParseError(f"{sym}{args} assigned twice", lineno)
                table[args] = value
        else:
            if not tail.strip().isdecimal():
                raise ParseError(
                    f"constant {sym} needs a domain element, got {tail!r}", lineno)
            if sym in consts:
                raise ParseError(f"constant {sym} assigned twice", lineno)
            consts[sym] = _element(tail.strip(), size, lineno)
    if size is None:
        raise ParseError(f"structure {name!r} has no domain", line)
    return name, Structure(sig, size, {s: frozenset(t) for s, t in rels.items()},
                           fns, consts, name=name)


def _class(doc, header, line, rows, source):
    name, sig = _name_and_signature(doc, header, line)
    members: list[Structure] = []
    open_window = False
    for lineno, _, head, rest in rows:
        if head == "member":
            members.append(_resolve(doc, _one_name(rest, lineno), lineno, source))
        elif head == "generate":
            m = re.fullmatch(r"(\S+)\s+upto\s+(\d+)", rest)
            if not m or m.group(1) not in GENERATORS:
                families = ", ".join(sorted(GENERATORS))
                raise ParseError(f"expected `generate <{families}> upto <n>`", lineno)
            bound = _at(lineno, read_natural, m.group(2), "bound")
            members.extend(_at(lineno, GENERATORS[m.group(1)], bound).members)
            open_window = True
        elif head == "open" and not rest:
            open_window = True
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    for m in members:
        if m.signature != sig:
            raise ParseError(
                f"member {m.name!r} does not match the class signature", line)
    return name, finite_class(members, label=name, open_window=open_window)


def _sequence(doc, header, line, rows, source):
    name = _one_name(header.partition(":")[0].strip() or header, line)
    ends, maps, deltas, width = {}, {}, {}, None  # deltas: line -> formula or ALL
    for lineno, _, head, rest in rows:
        if head in ("index", "target"):
            ends[head] = _resolve(doc, _one_name(rest, lineno), lineno, source)
        elif head == "width":
            width = _at(lineno, read_natural, rest, "width")
        elif head == "map":
            m = _MAP.fullmatch(rest)
            if not m:
                raise ParseError(f"expected `map <i> -> (a, b, ...)`, got {rest!r}", lineno)
            i = _at(lineno, read_natural, m.group(1), "index")
            if i in maps:
                raise ParseError(f"map for index {i} given twice", lineno)
            maps[i] = tuple(_at(lineno, read_natural, x.strip(), "entry")
                            for x in m.group(2).split(","))
        elif head == "delta":
            deltas[lineno] = ALL_FORMULAS if rest == "ALL" else _at(lineno, parse_formula, rest)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if len(ends) != 2:
        raise ParseError(f"sequence {name!r} needs index and target", line)
    index, sig = ends["index"], ends["target"].signature
    declared = ({("relation", *r) for r in sig.relations}
                | {("function", *f) for f in sig.functions}
                | {("constant", c, 0) for c in sig.constants})
    for lineno, phi in deltas.items():
        unknown = set() if phi == ALL_FORMULAS else formula_symbols(phi) - declared
        if unknown:
            kind, sym, arity = min(unknown)
            raise ParseError(f"the target signature has no {kind} {sym!r}"
                             + (f" of arity {arity}" if arity else ""), lineno)
    if width is None:
        width = len(next(iter(maps.values()), (0,)))
    missing = [i for i in range(index.size) if i not in maps]
    if missing:
        raise ParseError(f"sequence {name!r} missing map for index {missing[0]}", line)
    seq = IndexedSequence(index, ends["target"], width,
                          tuple(maps[i] for i in range(index.size)))
    formulas = tuple(deltas.values())
    return name, (seq, ALL_FORMULAS if ALL_FORMULAS in formulas else FormulaSet(formulas))


_BUILDERS = {"signature": _signature, "structure": _structure,
             "class": _class, "sequence": _sequence}


def _at(line: int, read, *args):
    """``read(*args)``, with an :class:`InputError` reported at ``line``."""
    try:
        return read(*args)
    except ParseError:
        raise
    except InputError as exc:
        raise ParseError(str(exc), line) from exc


def _element(text: str, size: int, line: int) -> int:
    value = _at(line, read_natural, text.strip(), "element")
    if not 0 <= value < size:
        raise ParseError(f"element {value} outside domain of size {size}", line)
    return value


def _resolve(doc, ref: str, line: int, source: tuple) -> Structure:
    if ref in doc.structures:
        return doc.structures[ref]
    base_dir, reading = source
    path = ref if os.path.isabs(ref) else os.path.join(base_dir or ".", ref)
    if not os.path.isfile(path):
        raise ParseError(f"no inline structure or file named {ref!r}", line)
    real = os.path.realpath(path)
    if real in reading:
        raise ParseError(f"file {ref!r} is already being read: the references loop", line)
    try:
        inner = _document(read_text(path), (os.path.dirname(path) or ".", reading | {real}))
        return _only(inner.structures, "structure")
    except ParseError as exc:
        raise ParseError(f"{ref}: {exc}", line) from exc


def read_text(path: str) -> str:
    """A UTF-8 file's text; other bytes are a :class:`ParseError` at their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None


def _name_and_signature(doc, header: str, line: int) -> tuple[str, Signature]:
    name, sep, signame = (part.strip() for part in header.partition(":"))
    if not sep or not name or not signame:
        raise ParseError(f"expected `<name> : <signature>`, got {header!r}", line)
    if signame not in doc.signatures:
        raise ParseError(f"unknown signature {signame!r}", line)
    return _one_name(name, line), doc.signatures[signame]


def _one_name(rest: str, line: int) -> str:
    if not rest or _NOT_IN_NAME.search(rest):
        raise ParseError(f"expected a single name, got {rest!r}", line)
    return rest


def _sym_arity(rest: str, line: int) -> tuple[str, int]:
    parts = rest.split()
    if len(parts) != 2:
        raise ParseError(f"expected `<symbol> <arity>`, got {rest!r}", line)
    return parts[0], _at(line, read_natural, parts[1], "arity")


def _table_line(line: str) -> tuple[str, str, str]:
    for sep in (":", "="):
        sym, found, tail = line.partition(sep)
        if found and " " not in sym.strip():
            return sym.strip(), sep, tail
    return line.split()[0], "", ""


# -- single-object conveniences -----------------------------------------------


def _only(table: dict, kind: str):
    if len(table) != 1:
        raise ParseError(f"expected exactly one {kind}, found {len(table)}", 1)
    return next(iter(table.values()))


def parse_structure_file(text: str, base_dir: str | None = None) -> Structure:
    return _only(parse_document(text, base_dir).structures, "structure")


def parse_class_file(text: str, base_dir: str | None = None) -> FiniteClass:
    return _only(parse_document(text, base_dir).classes, "class")


def parse_sequence_file(text: str, base_dir: str | None = None):
    return _only(parse_document(text, base_dir).sequences, "sequence")


# -- serialization --------------------------------------------------------------


def _written(kind: str, name: str) -> str:
    """``name``, which the parser must read back as one name."""
    if not name or _NOT_IN_NAME.search(name):
        raise SerializeError(f"{kind} name {name!r} is empty or holds whitespace, ':' or '#'")
    return name


def serialize_signature(sig: Signature, name: str = "S") -> str:
    lines = [f"signature {_written('signature', name)}"]
    lines += [f"relation {sym} {ar}" for sym, ar in sig.relations]
    lines += [f"function {sym} {ar}" for sym, ar in sig.functions]
    lines += [f"constant {sym}" for sym in sig.constants]
    return "\n".join(lines) + "\n"


def _structure_body(M: Structure, name: str, sig_name: str = "S") -> list[str]:
    lines = [f"structure {_written('structure', name)} : {sig_name}", f"domain {M.size}"]
    for sym in M.signature.relation_names:
        cells = " ".join("(" + ",".join(map(str, t)) + ")"
                         for t in M.rel_tuples(sym))
        lines.append(f"{sym} : {cells}".rstrip())
    for sym in M.signature.function_names:
        cells = " ".join(",".join(map(str, a)) + "->" + str(v)
                         for a, v in M.fn_entries(sym))
        lines.append(f"{sym} : {cells}".rstrip())
    for sym in M.signature.constants:
        lines.append(f"{sym} = {M.const(sym)}")
    return lines


def _distinct(names: list[str]) -> list[str]:
    """``names`` with each repeat renamed ``<name>_<k>`` to a name not yet taken."""
    taken: dict[str, None] = {}
    for name in names:
        fresh, k = name, 2
        while fresh in taken:
            fresh, k = f"{name}_{k}", k + 1
        taken[fresh] = None
    return list(taken)


def serialize_structure(M: Structure, name: str | None = None) -> str:
    out = [serialize_signature(M.signature).rstrip(), ""]
    out.extend(_structure_body(M, name or M.name or "M"))
    return "\n".join(out) + "\n"


def serialize_class(F: FiniteClass, name: str = "C") -> str:
    out = [serialize_signature(F.signature).rstrip(), ""]
    member_names = _distinct([M.name or f"M{k}" for k, M in enumerate(F.members)])
    for M, mname in zip(F.members, member_names):
        out.extend(_structure_body(M, mname))
        out.append("")
    out.append(f"class {_written('class', name)} : S")
    out.extend(f"member {mname}" for mname in member_names)
    if F.open_window:
        # window of a larger class: verdicts needing missing witnesses stay open
        out.append("open")
    return "\n".join(out) + "\n"


def serialize_sequence(I: IndexedSequence, delta, name: str = "I") -> str:
    index_name, target_name = I.index.name or "N", I.target.name or "M"
    out = [serialize_signature(I.index.signature).rstrip(), ""]
    out.extend(_structure_body(I.index, index_name))
    out.append("")
    if I.target != I.index or target_name != index_name:
        # an index equal to its target, name included, is written once
        target_name = _distinct([index_name, target_name])[1]
        tgt_sig = "S"
        if I.target.signature != I.index.signature:
            tgt_sig = "ST"
            out.append(serialize_signature(I.target.signature, tgt_sig).rstrip())
            out.append("")
        out.extend(_structure_body(I.target, target_name, tgt_sig))
        out.append("")
    out += [f"sequence {_written('sequence', name)}", f"index {index_name}",
            f"target {target_name}", f"width {I.width}"]
    out += [f"map {i} -> ({','.join(map(str, row))})"
            for i, row in enumerate(I.assignment)]
    if delta == ALL_FORMULAS:
        out.append("delta ALL")
    else:
        out.extend(f"delta {render_formula(phi)}" for phi in delta.formulas)
    return "\n".join(out) + "\n"
