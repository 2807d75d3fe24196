"""Command-line front end: file parsing, dispatch, and replayable artifacts.

Every run (except ``verify``) writes a plain-text certificate embedding its
inputs, configuration and verdict data; ``verify`` replays one with no
further search.  Exit codes: 0 the property holds or a witness was found,
1 refuted with certificate, 2 inconclusive within budget, 3 input error.
Every rejection of input, a malformed certificate included, is an
``InputError``; that and ``OSError`` alone exit 3, and any other exception
is a fault in ramseykit and keeps its traceback.  One helper, ``_certify``,
writes every certificate, prints its echo lines and maps the verdict to the
exit code.  A subcommand declares ``--budget`` only if it searches and
``--seed`` only if it makes random choices (sample mode's draws, refute
mode's local search); ``config:`` records the ``--budget``, ``--seed`` and
``--mode`` it has.  The parser is built once per process, on the first
``main`` call.  The budget defaults to 10^7, or ``RAMSEYKIT_BUDGET``, which
``main`` reads on each call and only for subcommands that declare
``--budget``; it checks that the budget is positive, and that the command
line the certificate records is UTF-8 text, first.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .arrows import (DEFAULT_BUDGET, DEFAULT_SAMPLES, ArrowError, HOLDS, FAILS,
                     INCONCLUSIVE, build_instance, check_instance,
                     joint_arrow_check, ramsey_degree_upper_probe, render_cnf)
from .certificates import (Certificate, coloring_lines, encode_key,
                           decode_key, parse_certificate, replay_certificate,
                           write_atomic, write_certificate)
from .classes import (GENERATORS, ap_check, elf_minimize, erp_check,
                      f_erp_check, hp_check, jep_check, orderability_search,
                      rigidity_scan)
from .expansions import isolator, qf_type_morleyisation
from .fileformat import (parse_class_file, parse_sequence_file,
                         parse_structure_file, read_text, serialize_class,
                         serialize_sequence, serialize_structure)
from .indiscernibles import (DEFAULT_ARITY_CAP, IndiscernibilityError,
                             extract_indiscernible_pattern, is_indiscernible,
                             least_cap)
from .structures import InputError

_EXIT = {
    HOLDS: 0, "PASS": 0, "WITNESS": 0, "ORDERABLE": 0, "FOUND": 0,
    "INDISCERNIBLE": 0, "DONE": 0,
    FAILS: 1, "FAIL": 1, "NOT-ORDERABLE": 1, "NONE": 1,
    "NOT-INDISCERNIBLE": 1, "IMPOSSIBLE": 1,
    INCONCLUSIVE: 2,
}

_INPUT_ERRORS = (InputError, OSError)


def _parse(path: str, parser):
    """Parse one input file; references inside resolve next to it."""
    return parser(read_text(path), base_dir=os.path.dirname(path) or ".")


def _certify(args, command: str, kind: str, verdict: str, echo, *,
             stats=(), notes=(), sections=(), payload=()) -> int:
    """Write the run's certificate, print the echo lines, give the exit code."""
    config = " ".join(f"{name}={getattr(args, name)}"
                      for name in ("budget", "seed", "mode") if name in args)
    cert = Certificate(kind=kind, command=command, config=config,
                       verdict=verdict, stats=stats, notes=notes,
                       sections=tuple(sections), payload=tuple(payload))
    out = args.out or f"{kind}.cert"
    write_certificate(cert, out)
    for line in echo:
        print(line)
    print(f"certificate: {out}")
    return _EXIT[verdict]


def _stat_line(stats) -> str:
    return " ".join(f"{name}={value}" for name, value in stats)


# -- subcommand handlers -------------------------------------------------------


def _cmd_arrow(args, command: str) -> int:
    if args.format == "cnf" and args.degree != 1:
        raise ArrowError("--format cnf encodes --degree 1 only")
    C, B, A = (_parse(p, parse_structure_file)
               for p in (args.ground, args.target, args.pattern))
    instance = build_instance(args.copies, C, B, A, args.colors)
    if args.format == "cnf":
        text = render_cnf(instance)
        if args.out:
            write_atomic(args.out, text)
            print(f"cnf: {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    result = check_instance(instance, args.mode, d=args.degree,
                            seed=args.seed, budget=args.budget,
                            samples=args.samples)
    payload = [f"copies {args.copies}", f"r {args.colors}", f"d {args.degree}",
               f"acopies {len(instance.copy_keys)}",
               f"bcopies {len(instance.bcopy_keys)}"]
    if result.coloring is not None:
        payload.extend(coloring_lines(result.coloring))
    return _certify(
        args, command, "arrow", result.verdict,
        [f"verdict: {result.verdict}", f"stats: {_stat_line(result.stats)}"],
        stats=result.stats,
        sections=(("ground", serialize_structure(C)),
                  ("target", serialize_structure(B)),
                  ("pattern", serialize_structure(A))),
        payload=payload)


def _cmd_joint_arrow(args, command: str) -> int:
    rs = decode_key(args.colors)
    ds = decode_key(args.degrees) if args.degrees else (1,) * len(args.patterns)
    C = _parse(args.ground, parse_structure_file)
    B = _parse(args.target, parse_structure_file)
    patterns = [_parse(p, parse_structure_file) for p in args.patterns]
    result = joint_arrow_check(C, B, patterns, rs, ds, args.mode,
                               seed=args.seed, samples=args.samples,
                               budget=args.budget)
    payload = [f"rs {','.join(map(str, rs))}", f"ds {','.join(map(str, ds))}",
               f"bcopies {len(result.instance.bcopy_keys)}"]
    if result.colorings is not None:
        for p, coloring in enumerate(result.colorings):
            payload.extend(coloring_lines(coloring, prefix=f"color{p}"))
    sections = [("ground", serialize_structure(C)),
                ("target", serialize_structure(B))]
    sections.extend((f"pattern{p}", serialize_structure(A))
                    for p, A in enumerate(patterns))
    return _certify(
        args, command, "joint-arrow", result.verdict,
        [f"verdict: {result.verdict}", f"stats: {_stat_line(result.stats)}"],
        stats=result.stats, sections=sections, payload=payload)


def _cmd_degree(args, command: str) -> int:
    A = _parse(args.pattern, parse_structure_file)
    B = _parse(args.target, parse_structure_file)
    candidates = GENERATORS[args.candidates](args.upto).members
    result = ramsey_degree_upper_probe(A, B, candidates, args.degree,
                                       r_cap=args.max_colors,
                                       budget=args.budget)
    payload = [f"lower {result.lower}", f"d {result.d}",
               f"r_cap {result.r_cap}"]
    for name, size, per_r in result.checked:
        cells = " ".join(f"r={r}:{v}" for r, v in per_r)
        payload.append(f"probe {name} size={size} {cells}".rstrip())
    sections = [("pattern", serialize_structure(A)),
                ("target", serialize_structure(B))]
    echo = [f"verdict: {result.verdict}",
            f"lower bound (automorphisms): {result.lower}"]
    if result.witness is not None:
        sections.append(("witness", serialize_structure(result.witness)))
        echo.append(f"witness: {result.witness.name or result.witness.size}")
    return _certify(args, command, "degree", result.verdict, echo,
                    sections=sections, payload=payload)


def _cmd_class_check(args, command: str) -> int:
    F = _parse(args.classfile, parse_class_file)
    witness_bound = args.witness_bound if args.witness_bound else F.bound
    reports = [
        hp_check(F),
        jep_check(F),
        ap_check(F, args.ap_bound),
        erp_check(F, args.pair_bound, witness_bound, budget=args.budget),
        f_erp_check(F, args.pair_bound, witness_bound, budget=args.budget),
    ]
    nonrigid = rigidity_scan(F)
    payload = [f"property {rep.property} {rep.verdict}" for rep in reports]
    payload.append(f"nonrigid {len(nonrigid)}")
    verdicts = [rep.verdict for rep in reports]
    overall = ("FAIL" if "FAIL" in verdicts
               else INCONCLUSIVE if INCONCLUSIVE in verdicts else "PASS")
    echo = [f"{rep.property}: {rep.verdict}" for rep in reports]
    echo.append(f"members with extra automorphisms: {len(nonrigid)}")
    echo.append(f"overall: {overall}")
    return _certify(args, command, "class-check", overall, echo,
                    notes=tuple(note for rep in reports for note in rep.notes),
                    sections=(("class", serialize_class(F)),), payload=payload)


def _cmd_orderable(args, command: str) -> int:
    F = _parse(args.classfile, parse_class_file)
    result = orderability_search(F)
    found = result.verdict == "ORDERABLE"
    payload = [f"tried {len(result.tried)}"]
    payload.extend(f"{'phi' if found else 'symmetric'} {mi} {encode_key(pair)}"
                   for mi, pair in result.realizers)
    payload.extend(f"leaf {bits} {mi} {encode_key(cycle)}"
                   for bits, mi, cycle in result.tried if not found)
    echo = [f"verdict: {result.verdict}", f"dead ends: {len(result.tried)}",
            f"defining types: {len(result.types)}"]
    return _certify(args, command, "orderable", result.verdict, echo,
                    sections=(("class", serialize_class(F)),), payload=payload)


def _cmd_expansion(args, command: str) -> int:
    kind = args.subcommand
    M = _parse(args.structfile, parse_structure_file)
    k = args.k if args.k is not None else M.size
    out = qf_type_morleyisation(M, k) if kind == "expand" else isolator(M, k)
    out_text = serialize_structure(out, name=(M.name or "M") + f"_{kind}")
    echo = [f"k: {k}", f"output relations: {len(out.signature.relations)}"]
    if args.out_structure:
        write_atomic(args.out_structure, out_text)
        echo.append(f"structure: {args.out_structure}")
    return _certify(args, command, kind, "DONE", echo,
                    sections=(("input", serialize_structure(M)),
                              ("output", out_text)),
                    payload=(f"k {k}",
                             f"relations {len(out.signature.relations)}"))


def _cmd_indiscernible(args, command: str) -> int:
    I, delta = _parse(args.seqfile, parse_sequence_file)
    least = max(1, least_cap(I, delta))
    if args.cap < least:
        raise IndiscernibilityError(
            f"--cap must be at least {least}, or some delta formula is never evaluated")
    ok, violations = is_indiscernible(I, delta, args.cap)
    verdict = "INDISCERNIBLE" if ok else "NOT-INDISCERNIBLE"
    payload = [f"cap {args.cap}"]
    payload.extend(
        f"violation {encode_key(rep)} {encode_key(tup)} {label}"
        for rep, tup, label in violations)
    return _certify(args, command, "indiscernible", verdict,
                    [f"verdict: {verdict}", f"violations: {len(violations)}"],
                    sections=(("sequence", serialize_sequence(I, delta)),),
                    payload=payload)


def _cmd_extract(args, command: str) -> int:
    I, delta = _parse(args.seqfile, parse_sequence_file)
    N_target = _parse(args.patternfile, parse_structure_file)
    least = least_cap(I, delta)
    if N_target.size < least:
        raise IndiscernibilityError(f"the pattern needs at least {least} elements, "
                                    "or some delta formula is never evaluated")
    result = extract_indiscernible_pattern(I, N_target, delta)
    verdict = "FOUND" if result.embedding is not None else "NONE"
    payload = [f"candidates {result.candidates_checked}"]
    echo = [f"verdict: {verdict}",
            f"candidates checked: {result.candidates_checked}"]
    if result.embedding is not None:
        payload.append(f"embedding {encode_key(result.embedding.mapping)}")
        echo.append(f"index copy: {encode_key(result.embedding.mapping)}")
    return _certify(args, command, "extract", verdict, echo,
                    sections=(("sequence", serialize_sequence(I, delta)),
                              ("pattern", serialize_structure(N_target))),
                    payload=payload)


def _cmd_elf(args, command: str) -> int:
    B = _parse(args.structfile, parse_structure_file)
    abar = decode_key(args.tuple)
    ground = elf_minimize(B, abar)
    return _certify(
        args, command, "elf", "DONE",
        [f"minimal ground: {encode_key(ground)} ({len(ground)} elements)"],
        sections=(("host", serialize_structure(B)),),
        payload=(f"tuple {encode_key(abar)}", f"ground {encode_key(ground)}"))


def _cmd_generate(args, command: str) -> int:
    F = GENERATORS[args.family](args.upto)
    text = serialize_class(F, name=args.family)
    echo = [f"members: {len(F.members)}"]
    if args.out_class:
        write_atomic(args.out_class, text)
        echo.append(f"class file: {args.out_class}")
    return _certify(args, command, "generate", "DONE", echo,
                    sections=(("class", text),),
                    payload=(f"family {args.family}", f"upto {args.upto}",
                             f"members {len(F.members)}"))


def _cmd_verify(args, command: str) -> int:
    cert = parse_certificate(read_text(args.certfile))
    report = replay_certificate(cert)
    print(f"kind: {cert.kind}")
    print(f"recorded verdict: {cert.verdict}")
    for line in report.checks:
        print(f"  {line}")
    print("replay: ok" if report.ok else "replay: FAILED")
    return 0 if report.ok else 1


# -- argument parsing ----------------------------------------------------------


def _common(sub, *, budget=False, seed=False, modes=()) -> None:
    """``--out``, and ``--budget``, ``--seed`` and ``--mode`` where read."""
    if budget:
        sub.add_argument("--budget", type=int, default=None,
                         help="search nodes, plus local-search steps in refute "
                              "mode (env RAMSEYKIT_BUDGET)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--out", default="", help="certificate path")
    if modes:
        sub.add_argument("--mode", choices=modes, default=modes[0])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseykit",
        description="Partition arrows, Ramsey expansions, and generalized "
                    "indiscernibles over finite structures.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("arrow", help="decide or refute C -> (B)^A_r")
    p.add_argument("ground")
    p.add_argument("target")
    p.add_argument("pattern")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--degree", type=int, default=1,
                   help="color count allowed per target copy")
    p.add_argument("--copies", choices=("embedding", "subset"),
                   default="embedding")
    p.add_argument("--format", choices=("text", "cnf"), default="text",
                   help="cnf: export the instance instead of solving")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="random colorings to draw in sample mode")
    _common(p, budget=True, seed=True, modes=("decide", "refute", "sample"))

    p = subs.add_parser("joint-arrow", help="simultaneous arrows, one ground")
    p.add_argument("ground")
    p.add_argument("target")
    p.add_argument("patterns", nargs="+")
    p.add_argument("--colors", required=True,
                   help="comma-separated color counts, one per pattern")
    p.add_argument("--degrees", default="",
                   help="comma-separated caps, one per pattern")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="random colorings to draw in sample mode")
    _common(p, budget=True, seed=True, modes=("sample", "refute"))

    p = subs.add_parser("degree", help="probe Ramsey degree witnesses")
    p.add_argument("pattern")
    p.add_argument("target")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-colors", type=int, default=3)
    p.add_argument("--candidates", choices=sorted(GENERATORS), required=True)
    p.add_argument("--upto", type=int, required=True)
    _common(p, budget=True)

    p = subs.add_parser("class-check", help="HP / JEP / AP / Ramsey properties")
    p.add_argument("classfile")
    p.add_argument("--pair-bound", type=int, default=3)
    p.add_argument("--witness-bound", type=int, default=0,
                   help="0 means the largest member size")
    p.add_argument("--ap-bound", type=int, default=None)
    _common(p, budget=True)

    p = subs.add_parser("orderable", help="search for an ordering type union")
    p.add_argument("classfile")
    _common(p)

    for kind in ("expand", "isolate"):
        p = subs.add_parser(
            kind, help=("adjoin type predicates" if kind == "expand"
                        else "replace the signature by type predicates"))
        p.add_argument("structfile")
        p.add_argument("--k", type=int, default=None,
                       help="max tuple arity (default: domain size)")
        p.add_argument("--out-structure", default="")
        _common(p)

    p = subs.add_parser("indiscernible", help="check an indexed sequence")
    p.add_argument("seqfile")
    p.add_argument("--cap", type=int, default=DEFAULT_ARITY_CAP)
    _common(p)

    p = subs.add_parser("extract", help="find an indiscernible index copy")
    p.add_argument("seqfile")
    p.add_argument("patternfile")
    _common(p)

    p = subs.add_parser("elf", help="minimal ground set for a tuple's copies")
    p.add_argument("structfile")
    p.add_argument("--tuple", required=True, help="comma-separated elements")
    _common(p)

    p = subs.add_parser("generate", help="write a built-in class window")
    p.add_argument("family", choices=sorted(GENERATORS))
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--out-class", default="")
    _common(p)

    p = subs.add_parser("verify", help="replay a certificate without search")
    p.add_argument("certfile")

    return parser


_HANDLERS = {
    "arrow": _cmd_arrow,
    "joint-arrow": _cmd_joint_arrow,
    "degree": _cmd_degree,
    "class-check": _cmd_class_check,
    "orderable": _cmd_orderable,
    "indiscernible": _cmd_indiscernible,
    "extract": _cmd_extract,
    "elf": _cmd_elf,
    "generate": _cmd_generate,
    "expand": _cmd_expansion,
    "isolate": _cmd_expansion,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    command = "ramseykit " + " ".join(argv)
    try:
        try:
            command.encode("utf-8")
        except UnicodeEncodeError:
            # certificates are UTF-8 text and record the command line
            raise InputError("arguments must be UTF-8 text") from None
        if "budget" in args:
            if args.budget is None:
                # read here, not into the shared parser, so that each call
                # sees the environment as it is
                value = os.environ.get("RAMSEYKIT_BUDGET") or DEFAULT_BUDGET
                try:
                    args.budget = int(value)
                except ValueError:
                    raise InputError("RAMSEYKIT_BUDGET: invalid int value: "
                                     f"{value!r}") from None
            if args.budget <= 0:
                raise ArrowError("budget must be positive")
        return _HANDLERS[args.subcommand](args, command)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
