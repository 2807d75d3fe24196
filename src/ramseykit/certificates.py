"""Plain-text result certificates with search-free replay.

A certificate embeds its inputs, its configuration, the verdict, and the
verdict's supporting data, then closes with a digest line over everything
above it.  ``replay_certificate`` re-validates the verdict from that data
alone: refutations are checked coloring-by-coloring, witnesses are
re-verified, derivations are recomputed and compared, but the bad-coloring
search itself never runs again.  Single and joint arrows alike check
their recorded target-copy count, and one rule checks their verdicts: a
FAILS by its colorings, a HOLDS that needs no search by the rule that
settles it, and an extract FOUND or NONE by its scan, which must end at
the recorded candidate count: the joint arrow under the Δ-type colouring,
caps 1.  A NOT-ORDERABLE is checked by its symmetric pair, or by leaves
whose orientation prefixes tile every choice and each close a 3-cycle.
Other exhaustion verdicts carry no polynomial witness, so replay checks
their instance arithmetic and says so rather than silently re-searching.
A class section may not hold a ``generate`` row, and a verdict that the
certificate's kind never emits is refused before its replay rule runs.

Rendering is deterministic: no timestamps, no absolute paths, fixed
ordering, so equal (input, config, seed) gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field

from . import arrows
from .arrows import Coloring, build_instance
from .classes import GENERATORS, elf_minimize, order_every_member, \
    orientation_classes
from .embeddings import Embedding, EmbeddingError, automorphism_group
from .expansions import isolator, qf_type_morleyisation
from .indiscernibles import (_first_indiscernible_copy, check_locally_based,
                             is_indiscernible, least_cap, reindex)
from .qftypes import qftp
from .fileformat import (parse_class_file, parse_sequence_file,
                         parse_structure_file, serialize_class)
from .structures import InputError, read_natural

_HEADER = "ramseykit certificate v1"
_GENERATE_ROW = re.compile(r"generate\s+\S+\s+upto\s+\d+")


class CertificateError(InputError):
    """Malformed, corrupted, or irreproducible certificate."""


@dataclass(frozen=True)
class Certificate:
    kind: str
    command: str
    config: str
    verdict: str
    stats: tuple[tuple[str, int], ...] = ()
    notes: tuple[str, ...] = ()
    sections: tuple[tuple[str, str], ...] = ()
    payload: tuple[str, ...] = ()

    def section(self, label: str) -> str:
        for name, text in self.sections:
            if name == label:
                return text
        raise CertificateError(f"certificate has no section {label!r}")

    def has_section(self, label: str) -> bool:
        return any(name == label for name, _ in self.sections)

    def payload_values(self, key: str) -> list[str]:
        prefix = key + " "
        return [line[len(prefix):] for line in self.payload
                if line.startswith(prefix)]

    def payload_value(self, key: str) -> str:
        values = self.payload_values(key)
        if len(values) != 1:
            raise CertificateError(f"expected exactly one payload {key!r} line")
        return values[0]

    def payload_int(self, key: str) -> int:
        return read_natural(self.payload_value(key), f"payload {key!r}")


def _body_lines(cert: Certificate) -> list[str]:
    lines = [_HEADER,
             f"kind: {cert.kind}",
             f"command: {cert.command}",
             f"config: {cert.config}",
             f"verdict: {cert.verdict}"]
    lines.extend(f"stat: {name}={value}" for name, value in cert.stats)
    lines.extend(f"note: {note}" for note in cert.notes)
    for label, text in cert.sections:
        lines.append(f"begin {label}")
        lines.extend(("  " + ln).rstrip() for ln in text.rstrip("\n").split("\n"))
        lines.append(f"end {label}")
    lines.append("begin payload")
    lines.extend(("  " + ln).rstrip() for ln in cert.payload)
    lines.append("end payload")
    return lines


def render_certificate(cert: Certificate) -> str:
    body = _body_lines(cert)
    digest = hashlib.sha256(("\n".join(body) + "\n").encode("utf-8")).hexdigest()
    return "\n".join(body) + f"\ndigest: {digest}\n"


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise CertificateError("missing certificate header")
    if not lines[-1].startswith("digest: "):
        raise CertificateError("missing digest line")
    digest = lines[-1][len("digest: "):]
    body = lines[:-1]
    want = hashlib.sha256(("\n".join(body) + "\n").encode("utf-8")).hexdigest()
    if digest != want:
        raise CertificateError("digest mismatch: certificate corrupted")

    fields = {"kind": None, "command": None, "config": None, "verdict": None}
    stats: list[tuple[str, int]] = []
    notes: list[str] = []
    sections: list[tuple[str, str]] = []
    payload: tuple[str, ...] = ()
    i = 1
    while i < len(body):
        line = body[i]
        if line.startswith("begin "):
            label = line[len("begin "):]
            block = []
            i += 1
            while i < len(body) and body[i] != f"end {label}":
                if body[i] and not body[i].startswith("  "):
                    raise CertificateError(f"unindented line inside {label!r}")
                block.append(body[i][2:])
                i += 1
            if i == len(body):
                raise CertificateError(f"unterminated section {label!r}")
            if label == "payload":
                payload = tuple(block)
            else:
                sections.append((label, "\n".join(block) + "\n"))
        elif line.startswith("stat: "):
            name, _, value = line[len("stat: "):].partition("=")
            stats.append((name, read_natural(value, f"stat {name!r}")))
        elif line.startswith("note: "):
            notes.append(line[len("note: "):])
        else:
            key, sep, value = line.partition(": ")
            if not sep or key not in fields:
                raise CertificateError(f"unexpected certificate line {line!r}")
            fields[key] = value
        i += 1
    missing = [k for k, v in fields.items() if v is None]
    if missing:
        raise CertificateError(f"certificate missing {missing[0]!r} line")
    return Certificate(fields["kind"], fields["command"], fields["config"],
                       fields["verdict"], tuple(stats), tuple(notes),
                       tuple(sections), payload)


def write_atomic(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a torn file.

    The temporary file sits next to ``path`` and gets the mode that the
    umask gives any new file.
    """
    directory, base = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{base}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_certificate(cert: Certificate, path: str) -> None:
    write_atomic(path, render_certificate(cert))


# -- payload helpers ------------------------------------------------------------


def encode_key(key: tuple[int, ...]) -> str:
    return ",".join(map(str, key)) if key else "-"


def decode_key(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    return tuple(read_natural(x, "entry") for x in text.split(","))


def coloring_lines(coloring: Coloring, prefix: str = "color") -> list[str]:
    return [f"{prefix} {encode_key(key)} {c}" for key, c in coloring.assignments]


def decode_coloring(r: int, lines: list[str]) -> Coloring:
    rows = []
    for entry in lines:
        key, _, c = entry.rpartition(" ")
        rows.append((decode_key(key), read_natural(c, "colour")))
    return Coloring(r, tuple(rows))


# -- replay ----------------------------------------------------------------------


@dataclass
class ReplayReport:
    ok: bool
    verdict: str
    checks: list[str] = field(default_factory=list)

    def add(self, text: str) -> None:
        self.checks.append(text)

    def fail(self, text: str) -> None:
        self.checks.append("FAILED: " + text)
        self.ok = False


def replay_certificate(cert: Certificate) -> ReplayReport:
    """Reproduce the verdict from embedded data without re-searching.

    Raises on structural problems; returns a report whose ``ok`` means the
    verdict was reproduced (for witness verdicts) or is consistent with
    the recorded run (for exhaustion verdicts, noted explicitly).
    """
    if cert.kind not in _REPLAYERS:
        raise CertificateError(f"no replay rule for kind {cert.kind!r}")
    handler, verdicts = _REPLAYERS[cert.kind]
    if cert.verdict not in verdicts:
        raise CertificateError(f"kind {cert.kind!r} never emits verdict "
                               f"{cert.verdict!r}")
    report = ReplayReport(True, cert.verdict)
    handler(cert, report)
    return report


def _replay_arrow(cert: Certificate, report: ReplayReport) -> None:
    C = parse_structure_file(cert.section("ground"))
    B = parse_structure_file(cert.section("target"))
    A = parse_structure_file(cert.section("pattern"))
    r = cert.payload_int("r")
    d = cert.payload_int("d")
    if d < 1:
        raise CertificateError("the degree cap d must be positive")
    instance = build_instance(cert.payload_value("copies"), C, B, A, r)
    report.add(f"instance rebuilt: {len(instance.copy_keys)} copies, "
               f"{len(instance.bcopy_keys)} target copies")
    if cert.payload_int("acopies") != len(instance.copy_keys):
        report.fail("recorded copy counts do not match the inputs")
        return
    _check_arrow(cert, report, len(instance.bcopy_keys), (instance.copy_keys,),
                 (instance.members,), (r,), (d,), ("color",))


def _replay_joint(cert: Certificate, report: ReplayReport) -> None:
    C = parse_structure_file(cert.section("ground"))
    B = parse_structure_file(cert.section("target"))
    patterns = []
    k = 0
    while cert.has_section(f"pattern{k}"):
        patterns.append(parse_structure_file(cert.section(f"pattern{k}")))
        k += 1
    rs = decode_key(cert.payload_value("rs"))
    ds = decode_key(cert.payload_value("ds"))
    instance = arrows.joint_instance(C, B, patterns, rs, ds)
    report.add(f"joint instance rebuilt: {len(instance.bcopy_keys)} target copies")
    _check_arrow(cert, report, len(instance.bcopy_keys), instance.pattern_copies,
                 instance.pattern_members, rs, ds,
                 [f"color{p}" for p in range(k)])


def _check_arrow(cert: Certificate, report: ReplayReport, nb: int, keys,
                 members, rs, ds, prefixes) -> None:
    """The one check of an ``arrow`` or ``joint-arrow`` verdict, over the
    parts :func:`arrows._run` searched: part p has the copy keys
    ``keys[p]``, the member lists ``members[p]`` and its colour lines under
    ``prefixes[p]``.  FAILS holds if every part colours exactly its copies
    and no target copy stays within every cap; HOLDS by
    :func:`arrows._settled`, or by one live part's exhaustive search; an
    INCONCLUSIVE records a budgeted run."""
    if cert.payload_int("bcopies") != nb:
        report.fail("recorded copy counts do not match the inputs")
        return
    if cert.verdict == arrows.FAILS:
        colors = []
        for p, (part, r, prefix) in enumerate(zip(keys, rs, prefixes)):
            coloring = decode_coloring(r, cert.payload_values(prefix))
            if set(coloring.keys()) != set(part):
                report.fail(f"coloring {p} is not defined on exactly the "
                            f"copies of pattern {p}")
                return
            colors.append([coloring.color_of(key) for key in part])
        rows = arrows._bcopy_rows(nb, members)
        good = arrows._first_good_bcopy(rows, ds, colors)
        if good is None:
            report.add("refuting coloring re-verified: no target copy stays "
                       "within every cap")
        else:
            report.fail(f"target copy {good} stays within every cap")
        return
    live, settled = arrows._settled(nb, members, rs, ds)
    if cert.verdict != arrows.HOLDS:
        report.add(f"{cert.verdict} records a budgeted search or sample; replay "
                   "checks instance arithmetic only")
    elif settled == arrows.HOLDS:
        report.add("HOLDS re-verified: some target copy can never show more "
                   "colors than its cap")
    elif settled is None and len(live) == 1:
        report.add(f"HOLDS records pattern {live[0]}'s exhaustive search; "
                   "replay checks instance arithmetic only")
    else:
        report.fail(f"with {nb} target copies and {len(live)} live patterns "
                    "the arrow holds by no rule and no single search")


def _replay_degree(cert: Certificate, report: ReplayReport) -> None:
    A = parse_structure_file(cert.section("pattern"))
    lower = len(automorphism_group(A))
    if lower != cert.payload_int("lower"):
        report.fail("recorded automorphism count is wrong")
        return
    report.add(f"lower bound re-derived: |Aut| = {lower}")
    d = cert.payload_int("d")
    if cert.verdict == "IMPOSSIBLE":
        if lower > d:
            report.add(f"d = {d} < {lower} reproduced as impossible")
        else:
            report.fail(f"d = {d} is not below the automorphism count")
    elif cert.verdict == "WITNESS":
        parse_structure_file(cert.section("witness"))
        report.add("witness parses; its HOLDS claims are exhaustion records")
    else:
        report.add("probe exhausted its candidate supply; consistency only")


def _recorded_class(cert: Certificate):
    """The class section, parsed, once it has no ``generate`` row: a
    certificate lists the members, and a row would name unbounded work."""
    text = cert.section("class")
    if any(_GENERATE_ROW.fullmatch(line.partition("#")[0].strip())
           for line in text.splitlines()):
        raise CertificateError("a certificate's class has no `generate` row")
    return parse_class_file(text)


def _member_points(F, row: str, what: str, count: int):
    """The member and ``count`` distinct points a ``<position> <a,b,...>`` row names."""
    mi, _, points = row.partition(" ")
    mi, points = read_natural(mi, f"{what} member"), decode_key(points)
    if mi >= len(F.members) or len(set(points)) != count or len(points) != count \
            or max(points) >= F.members[mi].size:
        raise CertificateError(f"{what} row {row!r} names no {count} distinct "
                               "points of a class member")
    return F.members[mi], points


def _replay_orderable(cert: Certificate, report: ReplayReport) -> None:
    F = _recorded_class(cert)
    if cert.verdict == "ORDERABLE":
        types = [qftp(*_member_points(F, row, "phi", 2))
                 for row in cert.payload_values("phi")]
        relations = order_every_member(F, frozenset(types))
        bad = [i for i, rel in enumerate(relations)
               if not rel.is_strict_linear_order]
        if bad:
            report.fail(f"type union is not a linear order on member {bad[0]}")
        else:
            report.add(f"type union re-verified as a strict linear order on "
                       f"all {len(F.members)} members")
        return
    leaves = cert.payload_values("leaf")
    if cert.payload_int("tried") != len(leaves):
        report.fail(f"tried does not count the {len(leaves)} leaves")
        return
    if cert.payload_values("symmetric"):
        M, (a, b) = _member_points(F, cert.payload_value("symmetric"), "symmetric", 2)
        if qftp(M, (a, b)) == qftp(M, (b, a)):
            report.add("symmetric pair re-verified: its type is its own transpose")
        else:
            report.fail("the symmetric pair's type differs from its transpose")
        return
    _, classes, orient = orientation_classes(F)
    k, at = len(classes), 0
    for row in leaves:
        bits, _, rest = row.partition(" ")
        if not re.fullmatch("[01]+", bits):
            raise CertificateError(f"leaf row {row!r} has no orientation prefix")
        M, cycle = _member_points(F, rest, "leaf", 3)
        if len(bits) > k or int(bits, 2) << (k - len(bits)) != at:
            report.fail(f"leaf {bits} breaks the tiling of the {k} orientation classes")
            return
        at += 1 << (k - len(bits))
        if any(bits[i:i + 1] != str(o) for i, o in
               (orient[qftp(M, p)] for p in zip(cycle, cycle[1:] + cycle[:1]))):
            report.fail(f"leaf {row!r} names no 3-cycle under its prefix")
            return
    if at != 1 << k:
        report.fail(f"the leaves cover {at} of the 2^{k} orientation choices")
    else:
        report.add(f"refutation re-verified: {len(leaves)} leaves tile the {k} "
                   "orientation classes, each closing a 3-cycle")


def _replay_class_check(cert: Certificate, report: ReplayReport) -> None:
    F = _recorded_class(cert)
    report.add(f"class parses: {len(F.members)} members, "
               f"{'open' if F.open_window else 'closed'} window")
    for row in cert.payload_values("property"):
        report.add("recorded: " + row)


def _replay_expand(cert: Certificate, report: ReplayReport) -> None:
    M = parse_structure_file(cert.section("input"))
    k = cert.payload_int("k")
    out = parse_structure_file(cert.section("output"))
    # every m-tuple realizes one type, so the type predicates of arity
    # m <= k hold n + n^2 + ... + n^k tuples; checking that first bounds
    # the recomputation by the rows the certificate itself holds
    if out.size != M.size:
        raise CertificateError("the recorded output is not on the input's domain")
    rows = sum(len(out.rel_tuples(sym)) for sym in out.signature.relation_names
               if sym not in M.signature.relation_names)
    total, power, m = 0, 1, 0
    while M.size and m < k and total <= rows:
        m, power = m + 1, power * M.size
        total += power
    if total != rows:
        raise CertificateError(f"the type predicates hold {rows} tuples, not one "
                               f"per tuple of arity 1..{k}")
    fresh = (qf_type_morleyisation(M, k) if cert.kind == "expand"
             else isolator(M, k))
    if fresh == out:
        report.add("expansion recomputed and identical to the recorded output")
    else:
        report.fail("recomputed expansion differs from the recorded output")


def _replay_indiscernible(cert: Certificate, report: ReplayReport) -> None:
    I, delta = parse_sequence_file(cert.section("sequence"))
    cap = cert.payload_int("cap")
    least = max(1, least_cap(I, delta))
    if cap < least:
        report.fail(f"cap {cap} is below {least}: some delta formula is never evaluated")
        return
    ok, violations = is_indiscernible(I, delta, cap)
    verdict = "INDISCERNIBLE" if ok else "NOT-INDISCERNIBLE"
    if verdict == cert.verdict:
        report.add(f"re-evaluated: {verdict} with {len(violations)} violations")
    else:
        report.fail(f"re-evaluation gives {verdict}, certificate says {cert.verdict}")


def _replay_extract(cert: Certificate, report: ReplayReport) -> None:
    I, delta = parse_sequence_file(cert.section("sequence"))
    N_target = parse_structure_file(cert.section("pattern"))
    if N_target.size < least_cap(I, delta):
        report.fail(f"a pattern of {N_target.size} elements misses some delta formula")
        return
    # the scan stops at the recorded count, one candidate past it for a
    # NONE, so a forged count bounds the work instead of the index size
    recorded = cert.payload_int("candidates")
    first, drawn = _first_indiscernible_copy(I, N_target, delta,
                                             recorded + (cert.verdict == "NONE"))
    if cert.verdict == "FOUND":
        g = Embedding(N_target, I.index, decode_key(cert.payload_value("embedding")))
        try:
            g.validate()
        except EmbeddingError as exc:
            report.fail(f"recorded mapping is not an embedding: {exc}")
            return
        J = reindex(I, g)
        ok, _ = is_indiscernible(J, delta, N_target.size)
        based, _, _ = check_locally_based(J, I, delta, N_target.size)
        if first is None or drawn != recorded or first.mapping != g.mapping:
            report.fail(f"the scan does not end on the recorded embedding at "
                        f"candidate {recorded}")
        elif ok and based:
            report.add("extraction re-verified: the scan's first survivor, "
                       "indiscernible and locally based")
        else:
            report.fail("recorded embedding fails re-verification")
    elif first is not None:
        report.fail(f"candidate {drawn} stays within every cap")
    elif drawn != recorded:
        report.fail(f"recorded candidate count {recorded} does not match the scan")
    else:
        report.add(f"NONE re-verified: none of the {drawn} candidates stays "
                   "within every cap")


def _replay_elf(cert: Certificate, report: ReplayReport) -> None:
    B = parse_structure_file(cert.section("host"))
    abar = decode_key(cert.payload_value("tuple"))
    fresh = elf_minimize(B, abar)
    if fresh == decode_key(cert.payload_value("ground")):
        report.add(f"minimal ground recomputed: {len(fresh)} elements")
    else:
        report.fail("recomputed minimal ground differs")


def _replay_generate(cert: Certificate, report: ReplayReport) -> None:
    family = cert.payload_value("family")
    if family not in GENERATORS:
        raise CertificateError(f"no class family {family!r}")
    bound = cert.payload_int("upto")
    # every family has members of each size 1..upto and none larger; the
    # recorded text, which the regenerated one must equal, is checked for
    # that before generating, so the work stays bounded by its own lines
    recorded = cert.section("class")
    sizes = {read_natural(line[len("domain "):], "domain")
             for line in recorded.splitlines() if line.startswith("domain ")}
    if min(sizes, default=0) != 1 or max(sizes) != bound or len(sizes) != bound:
        raise CertificateError(f"the recorded class has no member sizes "
                               f"1..{bound}")
    fresh = serialize_class(GENERATORS[family](bound), name=family)
    if fresh == recorded:
        report.add(f"{family} regenerated up to {bound}: identical bytes")
    else:
        report.fail("regenerated class differs from the recorded one")


_ARROW_VERDICTS = (arrows.HOLDS, arrows.FAILS, arrows.INCONCLUSIVE)

# each kind's replay rule and the verdicts its subcommand emits
_REPLAYERS = {
    "arrow": (_replay_arrow, _ARROW_VERDICTS),
    "joint-arrow": (_replay_joint, _ARROW_VERDICTS),
    "degree": (_replay_degree, ("WITNESS", "IMPOSSIBLE", arrows.INCONCLUSIVE)),
    "orderable": (_replay_orderable, ("ORDERABLE", "NOT-ORDERABLE")),
    "class-check": (_replay_class_check, ("PASS", "FAIL", arrows.INCONCLUSIVE)),
    "expand": (_replay_expand, ("DONE",)),
    "isolate": (_replay_expand, ("DONE",)),
    "indiscernible": (_replay_indiscernible,
                      ("INDISCERNIBLE", "NOT-INDISCERNIBLE")),
    "extract": (_replay_extract, ("FOUND", "NONE")),
    "elf": (_replay_elf, ("DONE",)),
    "generate": (_replay_generate, ("DONE",)),
}
