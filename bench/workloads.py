"""The four workloads: seeded job lists, reference verdicts and re-checks.

A workload is built once per set-up from ``(seed, workdir)``; it is the
list of jobs of one pass.
Every job builds fresh ``Structure`` objects inside its timed call, so the
per-structure caches start cold; the one exception is the LO_20 index of
``types-extract``, which set-up builds and warms once.

Each job carries its reference verdict and the fact it rests on.  A job
that runs at a node budget (or samples) also accepts INCONCLUSIVE; any
other verdict, an exception, or a failed re-check counts as failed.

Every pass has 15 jobs, some repeated.  Sorted by latency, the pooled
median falls in the middle of the 8th job's samples and the 90th
percentile in the middle of the 14th job's; the mix keeps jobs of about
the same cost at and next to those ranks, so that neither percentile sits
on the edge between two jobs of different cost and jumps with the pass
count.

All calls into the package go through the ``rk`` module attributes, so
the traced run's rebinding sees the top-level calls too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

import ramseykit as rk
import ramseykit.cli

INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Outcome:
    """What one job returned: its verdict and a deterministic summary."""

    verdict: str
    key: tuple = ()           # compared across passes; must repeat exactly
    detail: object = None     # what the re-check needs


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Outcome]
    truth: str                # reference verdict
    source: str               # what the reference rests on
    budgeted: bool = False    # INCONCLUSIVE is acceptable too
    recheck: Callable[[Outcome], str | None] | None = None

    def judge(self, out: Outcome) -> str | None:
        """None when the verdict agrees with the reference, else why not."""
        if out.verdict == self.truth:
            return None
        if self.budgeted and out.verdict == INCONCLUSIVE:
            return None
        return f"verdict {out.verdict}, reference {self.truth} ({self.source})"


# -- arrow-search ----------------------------------------------------------------


def _arrow_outcome(res) -> Outcome:
    coloring = res.coloring.assignments if res.coloring is not None else ()
    return Outcome(res.verdict, (res.verdict, res.stats, coloring), res)


def _recheck_arrow(out: Outcome) -> str | None:
    res = out.detail
    if res.verdict == "FAILS" and not rk.coloring_refutes(res.instance, res.coloring, res.d):
        return "FAILS coloring does not re-verify with coloring_refutes"
    return None


def _recheck_joint(out: Outcome) -> str | None:
    # coloring_refutes judges one pattern; a joint refutation needs every
    # B-copy to break the cap of at least one pattern, checked here directly.
    res = out.detail
    if res.verdict != "FAILS":
        return None
    inst = res.instance
    keys = [dict(c.assignments) for c in res.colorings]
    for bi in range(len(inst.bcopy_keys)):
        if not any(len({keys[p][inst.pattern_copies[p][ci]]
                        for ci in inst.pattern_members[p][bi]}) > inst.ds[p]
                   for p in range(len(inst.rs))):
            return f"joint coloring leaves B-copy {bi} within every cap"
    return None


def _arrow_job(c, b, a, r, mode, budget, truth, source, family="LO", seed=0):
    make = rk.linear_order if family == "LO" else rk.pure_set

    def run():
        inst = rk.arrow_instance(make(c), make(b), make(a), r)
        return _arrow_outcome(rk.check_instance(inst, mode, seed=seed, budget=budget))

    name = f"{family}{c}->({family}{b})^{family}{a}_{r} {mode} budget={budget}"
    return Job(name, run, truth, source, budgeted=True, recheck=_recheck_arrow)


def arrow_search(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    r33, r333 = "R(3,3)=6", "R(3,3,3)=17"
    pigeon = "pigeonhole: 13 points in 3 colours put 5 in one"
    aut = "|Aut(P2)|=2: colouring a pair by its orientation splits every P3"
    jobs = [
        _arrow_job(6, 3, 2, 2, "decide", 100_000, "HOLDS", r33),
        _arrow_job(5, 3, 2, 2, "decide", 100_000, "FAILS", r33),
        _arrow_job(6, 3, 2, 2, "refute", 100_000, "HOLDS", r33, seed=rng.randrange(2**31)),
        _arrow_job(8, 3, 2, 3, "decide", 100_000, "FAILS", r333),
        _arrow_job(10, 3, 2, 3, "decide", 10_000, "FAILS", r333),
        _arrow_job(10, 3, 2, 3, "refute", 10_000, "FAILS", r333, seed=rng.randrange(2**31)),
        _arrow_job(16, 3, 2, 3, "decide", 5_000, "FAILS", r333),
        _arrow_job(16, 3, 2, 3, "refute", 10_000, "FAILS", r333, seed=rng.randrange(2**31)),
        _arrow_job(12, 4, 3, 2, "decide", 10_000, "FAILS", "R^(3)(4,4)=13"),
        _arrow_job(12, 4, 3, 2, "refute", 10_000, "FAILS", "R^(3)(4,4)=13",
                   seed=rng.randrange(2**31)),
        _arrow_job(13, 5, 1, 3, "decide", 300, "HOLDS", pigeon),
    ]
    jobs += [_arrow_job(n, 3, 2, 2, "decide", 100_000, "FAILS", aut, family="P")
             for n in (6, 7)]

    joint_seed = rng.randrange(2**31)

    def joint():
        lo = rk.linear_order
        res = rk.joint_arrow_check(lo(8), lo(3), [lo(1), lo(2)], rs=[3, 3],
                                   mode="refute", seed=joint_seed, budget=50_000)
        colorings = tuple(c.assignments for c in res.colorings or ())
        return Outcome(res.verdict, (res.verdict, res.stats, colorings), res)

    jobs.append(Job("joint LO8->(LO3)^{LO1,LO2}_{3,3} refute budget=50000", joint,
                    "FAILS", "pattern LO2 alone: " + r333, budgeted=True,
                    recheck=_recheck_joint))

    def degree():
        lo = rk.linear_order
        res = rk.ramsey_degree_upper_probe(lo(2), lo(3), rk.linear_orders(6).members,
                                           1, r_cap=2, budget=100_000)
        name = res.witness.name if res.witness is not None else ""
        return Outcome(res.verdict, (res.verdict, name, res.checked), res)

    jobs.append(Job("degree LO2 in LO3 d=1 r<=2 over LO1..LO6", degree, "WITNESS",
                    "LO6 -> (LO3)^LO2_2 by " + r33, budgeted=True))
    rng.shuffle(jobs)
    return jobs


# -- types-extract -----------------------------------------------------------------

GRAPH_SIG = rk.Signature(relations=(("E", 2),))
PAIR_SIG = rk.Signature(relations=(("R0", 2), ("R1", 2)))
CHAIN_SIG = rk.Signature(relations=(("E", 2),), functions=(("s", 1),))
INDEX_SIZE = 20


def warm_index(index) -> None:
    """Type every index tuple that extraction and its checks will ask about."""
    for n in range(1, 4):
        for t in itertools.product(range(index.size), repeat=n):
            rk.qftp(index, t)


def _random_graph_edges(rng, size):
    edges = set()
    for a, b in itertools.combinations(range(size), 2):
        if rng.random() < 0.5:
            edges |= {(a, b), (b, a)}
    return edges


def _extract_job(index, size, edges, assignment):
    delta_text = ("E(x0, x1)", "x0 = x1")

    def run():
        G = rk.Structure(GRAPH_SIG, size, {"E": edges})
        delta = rk.formula_set(*delta_text)
        I = rk.indexed_sequence(index, G, assignment)
        res = rk.extract_indiscernible_pattern(I, rk.linear_order(3), delta)
        if res.embedding is None:
            return Outcome("NONE", ("NONE", res.candidates_checked))
        return Outcome("FOUND", ("FOUND", res.embedding.mapping, res.candidates_checked),
                       (I, delta, res.embedding))

    def recheck(out: Outcome) -> str | None:
        I, delta, emb = out.detail
        J = rk.reindex(I, emb)
        if not rk.is_indiscernible(J, delta, 3)[0]:
            return "extracted sequence is not indiscernible"
        if not rk.check_locally_based(J, I, delta, 3)[0]:
            return "extracted sequence is not locally based on its source"
        return None

    return Job(f"extract LO3 from LO20 into graph{size}", run, "FOUND",
               "R(3,3,3)=17 <= 20: pairs take one of three delta-colours",
               recheck=recheck)


def _invariants(M, k) -> bool:
    """Criterion 3: Morleyisation and isolator keep types, copies agree."""
    ok = rk.same_qftp_partition(M, rk.qf_type_morleyisation(M, k), k)
    R = rk.isolator(M, k)
    ok = ok and rk.same_qftp_partition(M, R, k)
    for arity in range(1, k + 1):
        for abar in itertools.permutations(range(M.size), arity):
            ok = ok and rk.enumerate_qf_copies(M, abar) == rk.enumerate_qf_copies(R, abar)
    return ok


def _invariant_job(name, build, k):
    def run():
        verdict = "INVARIANT" if _invariants(build(), k) else "BROKEN"
        return Outcome(verdict, (verdict,))

    return Job(name, run, "INVARIANT",
               "type predicates name exactly the qf-types of arity <= k")


def types_extract(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    index = rk.linear_order(INDEX_SIZE)
    warm_index(index)
    jobs = []
    for _ in range(3):
        size = rng.randint(1, 8)
        edges = _random_graph_edges(rng, size)
        assignment = [rng.randrange(size) for _ in range(INDEX_SIZE)]
        jobs.append(_extract_job(index, size, edges, assignment))
    for size, count in ((3, 6), (4, 3)):
        for i in range(count):
            rels = {sym: {(a, b) for a in range(size) for b in range(size)
                          if rng.random() < 0.4}
                    for sym, _ in PAIR_SIG.relations}
            jobs.append(_invariant_job(
                f"criterion-3 invariants, binary structure #{i} of size {size}, k=3",
                lambda rels=rels, size=size: rk.Structure(PAIR_SIG, size, rels), 3))

    def chain():
        # a partial successor function sends qftp down the closure path
        return rk.Structure(CHAIN_SIG, 6, {"E": {(0, 1), (2, 3)}},
                            {"s": {(i,): i + 1 for i in range(5)}})

    jobs += [_invariant_job("criterion-3 invariants, successor chain of size 6, k=2",
                            chain, 2) for _ in range(3)]
    rng.shuffle(jobs)
    return jobs


# -- class-scan ----------------------------------------------------------------------


def _class_job(name, run_report, truth, source):
    def run():
        rep = run_report()
        return Outcome(rep.verdict, (rep.verdict, rep.rows, rep.notes))

    return Job(name, run, truth, source)


def class_scan(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    window = "the witness may need 5 points, beyond the window bound 4"
    jobs = [
        _class_job("erp linear_orders(5) pairs<=2 witnesses<=5",
                   lambda: rk.erp_check(rk.linear_orders(5), 2, 5), "PASS",
                   "finite Ramsey theorem: LO3 -> (LO2)^LO1_2"),
        _class_job("f_erp linear_orders(5) pairs<=2 witnesses<=5",
                   lambda: rk.f_erp_check(rk.linear_orders(5), 2, 5), "PASS",
                   "f-ERP agrees with ERP (criterion 6e)"),
        _class_job("erp pure_sets(3) pairs<=2 witnesses<=3",
                   lambda: rk.erp_check(rk.pure_sets(3), 2, 3), "FAIL",
                   "|Aut(P2)|=2 obstructs two-colourings"),
        _class_job("f_erp pure_sets(3) pairs<=2 witnesses<=3",
                   lambda: rk.f_erp_check(rk.pure_sets(3), 2, 3), "FAIL",
                   "f-ERP agrees with ERP (criterion 6e)"),
    ]
    for _ in range(3):
        jobs.append(_class_job("hp graphs(4)", lambda: rk.hp_check(rk.graphs(4)),
                               "PASS", "induced subgraphs of graphs are graphs"))
    jobs.append(_class_job("jep graphs(4)", lambda: rk.jep_check(rk.graphs(4)),
                           INCONCLUSIVE, "two 4-vertex graphs: " + window))
    jobs.append(_class_job("ap graphs(4) config_bound=3",
                           lambda: rk.ap_check(rk.graphs(4), config_bound=3),
                           INCONCLUSIVE, "two 3-vertex graphs over a point: " + window))

    def orderable(make, truth, source):
        def run():
            res = make()
            found = rk.orderability_search(res)
            return Outcome(found.verdict, (found.verdict, found.witness, len(found.tried)))
        return Job(f"orderability {truth.lower()}", run, truth, source)

    jobs += [orderable(lambda: rk.graphs(4), "NOT-ORDERABLE",
                       "the non-edge pair type is its own transpose") for _ in range(2)]
    jobs += [orderable(lambda: rk.ordered_graphs(4), "ORDERABLE",
                       "the order's pair type orders every member") for _ in range(3)]

    def generate():
        n = len(rk.graphs(5).members)
        return Outcome(f"members={n}", (n,))

    jobs.append(Job("generate graphs(5)", generate, "members=52",
                    "graphs on <=5 vertices up to iso: 1+2+4+11+34"))
    rng.shuffle(jobs)
    return jobs


# -- cli-roundtrip -------------------------------------------------------------------

EXIT_VERDICT = {0: "EXIT0", 1: "EXIT1", 2: INCONCLUSIVE, 3: "EXIT3"}


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rk.cli.main(list(argv))


def _cli_job(argv, truth_exit, source, budgeted=False):
    out = argv[argv.index("--out") + 1]

    def run():
        if os.path.exists(out):
            os.remove(out)
        code = _cli(argv)
        if not os.path.exists(out):
            return Outcome("NO-CERTIFICATE", (code,))
        with open(out, "rb") as fh:
            data = fh.read()
        replay = _cli(["verify", out])
        verdict = EXIT_VERDICT[code] if replay == 0 else "REPLAY-FAILED"
        return Outcome(verdict, (code, replay, data))

    return Job(" ".join(argv[:argv.index("--out")]), run, EXIT_VERDICT[truth_exit],
               source, budgeted=budgeted)


def _cnf_job(source):
    argv = ["arrow", "lo6.txt", "lo3.txt", "lo2.txt", "--colors", "2",
            "--format", "cnf", "--out", "lo6.cnf"]
    # 15 pair copies x 2 colours; exactly-one per copy gives 15 x 2
    # clauses, and the 20 triples x 2 colours give 40 more
    want = "p cnf 30 70"

    def run():
        if os.path.exists("lo6.cnf"):
            os.remove("lo6.cnf")
        code = _cli(argv)
        with open("lo6.cnf", encoding="utf-8") as fh:
            header = next((ln.strip() for ln in fh if ln.startswith("p cnf")), "")
        verdict = EXIT_VERDICT[code] if header == want else "BAD-CNF"
        return Outcome(verdict, (code, header))

    return Job(" ".join(argv[:-2]), run, "EXIT0", source)


def _write(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cli_roundtrip(seed: int, workdir: str) -> list[Job]:
    """Jobs run with ``workdir`` as the current directory (relative paths
    keep the certificate bytes independent of where the checkout lives)."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 5, 6, 8):
        _write(os.path.join(workdir, f"lo{n}.txt"),
               rk.serialize_structure(rk.linear_order(n)))
    _write(os.path.join(workdir, "lo4.cls"),
           rk.serialize_class(rk.linear_orders(4), name="lo"))
    _write(os.path.join(workdir, "ps3.cls"),
           rk.serialize_class(rk.pure_sets(3), name="ps"))
    # 7 index points over 3 target vertices: three share a vertex, and any
    # such triple is indiscernible, so extraction always finds a copy
    target = rk.Structure(GRAPH_SIG, 3, {"E": _random_graph_edges(rng, 3)}, name="G")
    index = rk.linear_order(7)
    seq = rk.indexed_sequence(index, target, [rng.randrange(3) for _ in range(7)])
    _write(os.path.join(workdir, "seq.txt"),
           rk.serialize_sequence(seq, rk.formula_set("E(x0, x1)", "x0 = x1")))

    seed_arg = str(rng.randrange(1000))
    r33, r333 = "R(3,3)=6", "R(3,3,3)=17"
    jobs = [
        _cli_job(["arrow", "lo6.txt", "lo3.txt", "lo2.txt", "--colors", "2",
                  "--budget", "100000", "--out", "arrow-holds.cert"], 0, r33, True),
        _cli_job(["arrow", "lo5.txt", "lo3.txt", "lo2.txt", "--colors", "2",
                  "--budget", "100000", "--out", "arrow-fails.cert"], 1, r33, True),
        _cli_job(["arrow", "lo8.txt", "lo3.txt", "lo2.txt", "--colors", "3",
                  "--budget", "100000", "--out", "arrow-lo8.cert"], 1, r333, True),
        _cnf_job("DIMACS clause count of the LO6 instance"),
        _cli_job(["joint-arrow", "lo5.txt", "lo3.txt", "lo1.txt", "lo2.txt",
                  "--colors", "2,2", "--mode", "refute", "--budget", "100000",
                  "--out", "joint-refute.cert"], 1, "pattern LO2 alone: " + r33, True),
        _cli_job(["joint-arrow", "lo6.txt", "lo3.txt", "lo2.txt", "--colors", "2",
                  "--seed", seed_arg, "--out", "joint-sample.cert"], 2,
                 "sampling never proves HOLDS; no bad colouring exists by " + r33),
        _cli_job(["degree", "lo2.txt", "lo3.txt", "--degree", "1", "--max-colors", "2",
                  "--candidates", "linear-orders", "--upto", "6", "--budget", "100000",
                  "--out", "degree.cert"], 0, "LO6 -> (LO3)^LO2_2 by " + r33, True),
        _cli_job(["generate", "pure-sets", "--upto", "4", "--out-class", "ps4.cls",
                  "--out", "generate-ps.cert"], 0, "generation always completes"),
        _cli_job(["generate", "graphs", "--upto", "4", "--out-class", "g4.cls",
                  "--out", "generate-g.cert"], 0, "generation always completes"),
        _cli_job(["orderable", "lo4.cls", "--out", "orderable-lo.cert"], 0,
                 "the order's pair type orders every chain"),
        _cli_job(["orderable", "ps3.cls", "--out", "orderable-ps.cert"], 1,
                 "pure sets have one symmetric pair type"),
        _cli_job(["class-check", "ps3.cls", "--pair-bound", "2", "--ap-bound", "3",
                  "--out", "class-ps.cert"], 1, "ERP fails: |Aut(P2)|=2"),
        _cli_job(["class-check", "lo4.cls", "--pair-bound", "2", "--ap-bound", "3",
                  "--out", "class-lo.cert"], 2,
                 "AP window: two 3-chains over a point may need 5 points"),
        _cli_job(["expand", "lo3.txt", "--k", "2", "--out", "expand.cert"], 0,
                 "expansion always completes"),
        _cli_job(["extract", "seq.txt", "lo3.txt", "--out", "extract.cert"], 0,
                 "pigeonhole: 7 index points over 3 vertices"),
    ]
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "arrow-search": arrow_search,
    "types-extract": types_extract,
    "class-scan": class_scan,
    "cli-roundtrip": cli_roundtrip,
}
