"""End-to-end command-line runs, exit codes, and certificate artifacts."""

import argparse
import dataclasses
import os

import pytest

from ramseykit import (Coloring, FormulaSet, Structure, coloring_lines,
                       finite_class, indexed_sequence, linear_order,
                       linear_orders, parse_certificate, parse_formula,
                       parse_structure_file, pure_set, serialize_class,
                       serialize_sequence, serialize_structure,
                       write_certificate)
from ramseykit import classes, indiscernibles
from ramseykit.cli import build_parser, main

from conftest import GRAPH_SIG, graph


def write_orders(tmp_path, *sizes):
    paths = []
    for n in sizes:
        p = tmp_path / f"lo{n}.struct"
        p.write_text(serialize_structure(linear_order(n)))
        paths.append(str(p))
    return paths


def resign(path, old=None, new=None, **fields):
    """Replace one payload line of a certificate, or any of its header
    ``fields``, and re-sign it."""
    cert = parse_certificate(path.read_text())
    if old is not None:
        assert old in cert.payload
        fields["payload"] = tuple(new if line == old else line
                                  for line in cert.payload)
    write_certificate(dataclasses.replace(cert, **fields), str(path))


def write_parity_sequence(tmp_path):
    I = indexed_sequence(linear_order(6), graph(2, [(0, 1)], name="K2"),
                         [i % 2 for i in range(6)])
    delta = FormulaSet((parse_formula("E(x0, x1)"),))
    p = tmp_path / "parity.seq"
    p.write_text(serialize_sequence(I, delta))
    return str(p)


def write_pentagon_sequence(tmp_path):
    """c5.seq, on which no copy of k2.struct is indiscernible: an edge of
    the pentagon is a pair of indices read both ways by ``<``."""
    pentagon = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name="C5")
    I = indexed_sequence(pentagon, linear_order(5), list(range(5)))
    delta = FormulaSet((parse_formula("<(x0, x1)"),))
    (tmp_path / "c5.seq").write_text(serialize_sequence(I, delta))
    (tmp_path / "k2.struct").write_text(
        serialize_structure(graph(2, [(0, 1)], name="K2")))


def write_three_cycle_class(tmp_path):
    """c3.cls, the one-member class of the directed 3-cycle: its one
    orientation class closes a 3-cycle either way, so two leaves refute it."""
    C3 = Structure(GRAPH_SIG, 3, {"E": {(0, 1), (1, 2), (2, 0)}}, {}, {},
                   name="C3")
    (tmp_path / "c3.cls").write_text(serialize_class(finite_class([C3])))


def subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# the run settings each subcommand reads; every other one has none
RUN_SETTINGS = {"arrow": ("budget", "seed", "mode"),
                "joint-arrow": ("budget", "seed", "mode"),
                "degree": ("budget",), "class-check": ("budget",)}


def example_argv(tmp_path, subcommand):
    """A small run of ``subcommand`` that finishes in well under a second."""
    lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
    (tmp_path / "lo.cls").write_text(serialize_class(linear_orders(3)))
    seq = write_parity_sequence(tmp_path)
    return {
        "arrow": ["arrow", lo5, lo3, lo2, "--colors", "2"],
        "joint-arrow": ["joint-arrow", lo5, lo3, lo2, "--colors", "2"],
        "degree": ["degree", lo2, lo3, "--degree", "1", "--max-colors", "2",
                   "--candidates", "linear-orders", "--upto", "3"],
        "class-check": ["class-check", "lo.cls", "--pair-bound", "2"],
        "orderable": ["orderable", "lo.cls"],
        "expand": ["expand", lo3, "--k", "2"],
        "isolate": ["isolate", lo3, "--k", "1"],
        "indiscernible": ["indiscernible", seq],
        "extract": ["extract", seq, lo3],
        "elf": ["elf", lo5, "--tuple", "1,3"],
        "generate": ["generate", "linear-orders", "--upto", "3"],
    }[subcommand]


class TestArrow:
    def test_holds_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lo6, lo3, lo2 = write_orders(tmp_path, 6, 3, 2)
        code = main(["arrow", lo6, lo3, lo2, "--colors", "2",
                     "--out", "a.cert"])
        assert code == 0
        cert = parse_certificate((tmp_path / "a.cert").read_text())
        assert cert.kind == "arrow" and cert.verdict == "HOLDS"
        assert "seed=0" in cert.config
        assert "verdict: HOLDS" in capsys.readouterr().out

    def test_refuted_exits_one_and_verifies(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2",
                     "--out", "a.cert"]) == 1
        assert parse_certificate((tmp_path / "a.cert").read_text()).verdict \
            == "FAILS"
        assert main(["verify", "a.cert"]) == 0

    def test_refute_mode_records_its_steps_and_verifies(self, tmp_path,
                                                       monkeypatch):
        # decide leaves LO_8 -> (LO_4)^LO_3_2 open at 10,000 nodes
        monkeypatch.chdir(tmp_path)
        lo8, lo4, lo3 = write_orders(tmp_path, 8, 4, 3)
        argv = ["arrow", lo8, lo4, lo3, "--colors", "2", "--budget", "10000",
                "--seed", "1", "--out", "a.cert"]
        assert main(argv) == 2
        assert main(argv + ["--mode", "refute"]) == 1
        cert = parse_certificate((tmp_path / "a.cert").read_text())
        stats = dict(cert.stats)
        assert stats["nodes"] == 5001 and 0 < stats["steps"] <= 5000
        assert "samples" not in stats and "mode=refute" in cert.config
        assert main(["verify", "a.cert"]) == 0

    @pytest.mark.parametrize("argv,checked", [
        # LO_3's 3 pairs can never show more than 3 colors
        ((4, 3, 2, "--colors", "3", "--degree", "3"), "HOLDS re-verified"),
        # each copy of LO_3 holds one copy of LO_3
        ((4, 3, 3, "--colors", "2"), "HOLDS re-verified"),
        ((6, 3, 2, "--colors", "2"), "instance arithmetic only"),
    ])
    def test_holds_replay_re_verifies_what_needs_no_search(
            self, tmp_path, monkeypatch, capsys, argv, checked):
        monkeypatch.chdir(tmp_path)
        orders = write_orders(tmp_path, *argv[:3])
        assert main(["arrow", *orders, *argv[3:], "--out", "a.cert"]) == 0
        stats = parse_certificate((tmp_path / "a.cert").read_text()).stats
        assert bool(stats) == (checked == "instance arithmetic only")
        capsys.readouterr()
        assert main(["verify", "a.cert"]) == 0
        assert checked in capsys.readouterr().out

    def test_budget_starvation_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo6, lo3, lo2 = write_orders(tmp_path, 6, 3, 2)
        assert main(["arrow", lo6, lo3, lo2, "--colors", "2",
                     "--budget", "10", "--out", "a.cert"]) == 2

    def test_environment_presets_the_budget(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "10")
        lo6, lo3, lo2 = write_orders(tmp_path, 6, 3, 2)
        assert main(["arrow", lo6, lo3, lo2, "--colors", "2",
                     "--out", "a.cert"]) == 2
        assert "budget=10" in \
            parse_certificate((tmp_path / "a.cert").read_text()).config

    def test_bad_environment_budget_exits_three(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "abc")
        lo6, lo3, lo2 = write_orders(tmp_path, 6, 3, 2)
        assert main(["arrow", lo6, lo3, lo2, "--colors", "2"]) == 3
        assert "invalid int value" in capsys.readouterr().err
        assert not (tmp_path / "arrow.cert").exists()

    def test_nonpositive_budget_exits_three_before_any_work(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2",
                     "--format", "cnf", "--budget", "0", "--out", "a.cnf"]) == 3
        assert not (tmp_path / "a.cnf").exists()

    def test_cnf_export_skips_the_search(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2",
                     "--format", "cnf"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c arrow instance")
        assert "p cnf 20 " in out

    def test_cnf_export_refuses_a_degree_cap(self, tmp_path, monkeypatch,
                                              capsys):
        # the DIMACS encoding has no degree cap yet
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "3", "--degree", "2",
                     "--format", "cnf", "--out", "a.cnf"]) == 3
        assert "--degree 1 only" in capsys.readouterr().err
        assert not (tmp_path / "a.cnf").exists()
        assert main(["arrow", lo5, lo3, lo2, "--colors", "3", "--degree", "1",
                     "--format", "cnf", "--out", "a.cnf"]) == 0
        assert "p cnf 30 70" in (tmp_path / "a.cnf").read_text()

    def test_negative_samples_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2", "--mode",
                     "sample", "--samples", "-3", "--out", "a.cert"]) == 3
        assert main(["joint-arrow", lo5, lo3, lo2, "--colors", "2",
                     "--samples", "-3", "--out", "a.cert"]) == 3
        assert not (tmp_path / "a.cert").exists()
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2", "--mode",
                     "sample", "--samples", "0", "--out", "a.cert"]) == 2
        cert = parse_certificate((tmp_path / "a.cert").read_text())
        assert cert.stats == (("samples", 0), ("witnessed", 0))

    def test_same_invocation_gives_identical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        argv = ["arrow", lo5, lo3, lo2, "--colors", "2", "--seed", "11",
                "--out", "a.cert"]
        main(argv)
        first = (tmp_path / "a.cert").read_bytes()
        main(argv)
        assert (tmp_path / "a.cert").read_bytes() == first


class TestJointAndDegree:
    def test_single_pattern_joint_refute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo3, lo2, lo1 = write_orders(tmp_path, 3, 2, 1)
        assert main(["joint-arrow", lo3, lo2, lo1, "--colors", "2",
                     "--mode", "refute", "--out", "j.cert"]) == 0
        cert = parse_certificate((tmp_path / "j.cert").read_text())
        assert cert.kind == "joint-arrow" and cert.verdict == "HOLDS"
        assert main(["verify", "j.cert"]) == 0

    def test_a_dead_pattern_leaves_the_single_arrow(self, tmp_path,
                                                    monkeypatch):
        # LO_3 can never leave cap 1 inside a copy of itself, so the run is
        # LO_8 -> (LO_3)^LO_2_2, which holds (R(3,3) = 6)
        monkeypatch.chdir(tmp_path)
        lo8, lo3, lo2 = write_orders(tmp_path, 8, 3, 2)
        assert main(["joint-arrow", lo8, lo3, lo2, lo3, "--colors", "2,2",
                     "--mode", "refute", "--budget", "1000000", "--seed", "4",
                     "--out", "j.cert"]) == 0
        cert = parse_certificate((tmp_path / "j.cert").read_text())
        assert cert.verdict == "HOLDS" and cert.stats == (("nodes_0", 6007),)
        assert main(["verify", "j.cert"]) == 0

    def test_joint_holds_with_no_live_pattern_is_re_verified(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lo4, lo3 = write_orders(tmp_path, 4, 3)
        assert main(["joint-arrow", lo4, lo3, lo3, lo3, "--colors", "2,2",
                     "--mode", "refute", "--out", "j.cert"]) == 0
        capsys.readouterr()
        assert main(["verify", "j.cert"]) == 0
        assert "HOLDS re-verified" in capsys.readouterr().out

    @pytest.mark.parametrize("ground", [5, 2])
    def test_joint_holds_resigned_over_a_refutation_fails_replay(
            self, tmp_path, monkeypatch, ground):
        # two live patterns; and with LO_2 as ground no target copy at all
        monkeypatch.chdir(tmp_path)
        lon, lo3, lo1, lo2 = write_orders(tmp_path, ground, 3, 1, 2)
        assert main(["joint-arrow", lon, lo3, lo1, lo2, "--colors", "2,2",
                     "--mode", "refute", "--out", "j.cert"]) == 1
        cert = parse_certificate((tmp_path / "j.cert").read_text())
        write_certificate(dataclasses.replace(cert, verdict="HOLDS"), "j.cert")
        assert main(["verify", "j.cert"]) == 1

    def test_degree_witness_scan(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo3, lo2 = write_orders(tmp_path, 3, 2)
        assert main(["degree", lo2, lo3, "--degree", "1", "--max-colors", "2",
                     "--candidates", "linear-orders", "--upto", "6",
                     "--out", "d.cert"]) == 0
        cert = parse_certificate((tmp_path / "d.cert").read_text())
        assert cert.verdict == "WITNESS"
        assert cert.has_section("witness")
        assert main(["verify", "d.cert"]) == 0

    @pytest.mark.parametrize("max_colors", ["1", "0"])
    def test_degree_with_no_colour_count_to_probe_exits_three(
            self, tmp_path, monkeypatch, max_colors):
        monkeypatch.chdir(tmp_path)
        lo2, lo3 = write_orders(tmp_path, 2, 3)
        assert main(["degree", lo2, lo3, "--degree", "1", "--max-colors",
                     max_colors, "--candidates", "linear-orders",
                     "--upto", "3"]) == 3
        assert not (tmp_path / "degree.cert").exists()

    def test_samples_is_only_an_arrow_option(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        lo3, lo2 = write_orders(tmp_path, 3, 2)
        assert main(["degree", lo2, lo3, "--degree", "1", "--candidates",
                     "linear-orders", "--upto", "3", "--samples", "5"]) == 3
        assert main(["joint-arrow", lo3, lo2, lo2, "--colors", "2",
                     "--samples", "5", "--out", "j.cert"]) == 2
        assert "stats: samples=5 witnessed=5" in capsys.readouterr().out

    @pytest.mark.parametrize("subcommand", sorted(
        name for name in subparsers() if name != "verify"))
    def test_seed_and_budget_exist_only_where_read(self, tmp_path, monkeypatch,
                                                   subcommand):
        monkeypatch.chdir(tmp_path)
        argv = example_argv(tmp_path, subcommand)
        reads = RUN_SETTINGS.get(subcommand, ())
        declared = {action.dest for action in subparsers()[subcommand]._actions}
        assert tuple(name for name in ("budget", "seed", "mode")
                     if name in declared) == reads
        for name in ("seed", "budget"):
            if name not in reads:
                assert main(argv + [f"--{name}", "5", "--out", "x.cert"]) == 3
        assert not (tmp_path / "x.cert").exists()
        assert main(argv + ["--out", "c.cert"]) in (0, 1, 2)
        config = parse_certificate((tmp_path / "c.cert").read_text()).config
        assert tuple(item.partition("=")[0] for item in config.split()) == reads

    def test_settable_value_count(self):
        # --seed on 9 subcommands and --budget on 7 that never read them
        # made 77; orderable's --max-assignments made 61
        assert sum(not isinstance(action, argparse._HelpAction)
                   for sub in subparsers().values()
                   for action in sub._actions) == 60

    def test_environment_budget_is_read_only_where_declared(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "abc")
        assert main(["generate", "linear-orders", "--upto", "3",
                     "--out", "g.cert"]) == 0


class TestSharedParser:
    """``main`` builds its parser once per process; every call still reads
    its own arguments and the environment as they are."""

    def test_two_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(parser, **kwargs):
            built.append(parser)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        build_parser.cache_clear()
        for out in ("g1.cert", "g2.cert"):
            assert main(["generate", "linear-orders", "--upto", "3",
                         "--out", out]) == 0
        assert len(built) == 1
        assert build_parser() is build_parser()

    def test_the_environment_budget_is_read_on_each_call(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo6, lo3, lo2 = write_orders(tmp_path, 6, 3, 2)
        argv = ["arrow", lo6, lo3, lo2, "--colors", "2", "--out"]
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "10")
        assert main(argv + ["a.cert"]) == 2
        monkeypatch.delenv("RAMSEYKIT_BUDGET")
        assert main(argv + ["b.cert"]) == 0
        configs = [parse_certificate((tmp_path / name).read_text()).config
                   for name in ("a.cert", "b.cert")]
        assert configs == ["budget=10 seed=0 mode=decide",
                           "budget=10000000 seed=0 mode=decide"]

    def test_a_bad_environment_budget_after_a_good_call(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        argv = ["arrow", lo5, lo3, lo2, "--colors", "2"]
        assert main(argv + ["--out", "good.cert"]) == 1
        capsys.readouterr()
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "abc")
        assert main(argv) == 3
        assert "invalid int value" in capsys.readouterr().err
        assert not (tmp_path / "arrow.cert").exists()
        assert main(["generate", "linear-orders", "--upto", "3",
                     "--out", "g.cert"]) == 0

    def test_nothing_carries_over_between_calls(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        argv = ["arrow", lo5, lo3, lo2, "--colors", "2"]
        assert main(argv + ["--mode", "refute", "--out", "x.cert"]) == 1
        assert main(argv) == 1
        config = parse_certificate((tmp_path / "arrow.cert").read_text()).config
        assert "mode=decide" in config.split()
        assert "mode=refute" in \
            parse_certificate((tmp_path / "x.cert").read_text()).config.split()


class TestClassCommands:
    def test_generate_writes_class_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "linear-orders", "--upto", "4",
                     "--out-class", "lo.cls", "--out", "g.cert"]) == 0
        assert main(["verify", "g.cert"]) == 0
        assert "class linear-orders" in (tmp_path / "lo.cls").read_text()

    def test_generate_refuses_graphs_past_eight_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("generation started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(classes, "canonical_form", no_work)
        assert main(["generate", "graphs", "--upto", "9"]) == 3
        assert "1..8" in capsys.readouterr().err
        assert not (tmp_path / "generate.cert").exists()

    def test_generate_large_pure_sets(self, tmp_path, monkeypatch):
        # pure sets are the most symmetric input of canonical labeling
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "pure-sets", "--upto", "12",
                     "--out-class", "ps.cls", "--out", "g.cert"]) == 0
        assert main(["verify", "g.cert"]) == 0
        assert "class pure-sets" in (tmp_path / "ps.cls").read_text()

    def test_orderable_verdicts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "4",
              "--out-class", "lo.cls"])
        main(["generate", "pure-sets", "--upto", "4", "--out-class", "ps.cls"])
        assert main(["orderable", "lo.cls", "--out", "o1.cert"]) == 0
        assert main(["verify", "o1.cert"]) == 0
        assert main(["orderable", "ps.cls", "--out", "o2.cert"]) == 1
        cert = parse_certificate((tmp_path / "o2.cert").read_text())
        assert cert.verdict == "NOT-ORDERABLE"
        assert cert.payload == ("tried 0", "symmetric 1 0,1")
        assert main(["verify", "o2.cert"]) == 0

    def test_orderable_refutation_by_leaves(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_three_cycle_class(tmp_path)
        assert main(["orderable", "c3.cls", "--out", "o.cert"]) == 1
        assert parse_certificate((tmp_path / "o.cert").read_text()).payload == (
            "tried 2", "leaf 0 0 0,1,2", "leaf 1 0 0,2,1")
        capsys.readouterr()
        assert main(["verify", "o.cert"]) == 0
        assert "2 leaves tile the 1 orientation classes" in capsys.readouterr().out

    @pytest.mark.parametrize("forge,payload,code", [
        ("no 3-cycle", ("tried 2", "leaf 0 0 0,2,1", "leaf 1 0 0,2,1"), 1),
        ("dropped leaf", ("tried 1", "leaf 0 0 0,1,2"), 1),
        ("duplicated leaf", ("tried 3", "leaf 0 0 0,1,2", "leaf 0 0 0,1,2",
                             "leaf 1 0 0,2,1"), 1),
        ("tried off by one", ("tried 3", "leaf 0 0 0,1,2", "leaf 1 0 0,2,1"), 1),
        ("asymmetric pair", ("tried 0", "symmetric 0 0,1"), 1),
        ("point outside", ("tried 2", "leaf 0 0 0,1,3", "leaf 1 0 0,2,1"), 3),
        ("repeated point", ("tried 2", "leaf 0 0 0,1,1", "leaf 1 0 0,2,1"), 3),
    ])
    def test_forged_orderable_refutation_fails_replay(
            self, tmp_path, monkeypatch, capsys, forge, payload, code):
        monkeypatch.chdir(tmp_path)
        write_three_cycle_class(tmp_path)
        assert main(["orderable", "c3.cls", "--out", "o.cert"]) == 1
        cert = parse_certificate((tmp_path / "o.cert").read_text())
        write_certificate(dataclasses.replace(cert, payload=payload), "o.cert")
        assert main(["verify", "o.cert"]) == code
        assert "replay: ok" not in capsys.readouterr().out

    def test_orderable_resigned_as_inconclusive_exits_three(self, tmp_path,
                                                            monkeypatch):
        # no orderable run stops early, so none emits INCONCLUSIVE
        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "4", "--out-class", "lo.cls"])
        assert main(["orderable", "lo.cls", "--out", "o.cert"]) == 0
        resign(tmp_path / "o.cert", verdict="INCONCLUSIVE")
        assert main(["verify", "o.cert"]) == 3

    def test_orderable_resigned_as_not_orderable_fails(self, tmp_path,
                                                       monkeypatch, capsys):
        # once replayed ok: NOT-ORDERABLE was echoed, not checked
        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "4", "--out-class", "lo.cls"])
        assert main(["orderable", "lo.cls", "--out", "o.cert"]) == 0
        cert = parse_certificate((tmp_path / "o.cert").read_text())
        payload = tuple(line for line in cert.payload if not line.startswith("phi "))
        write_certificate(dataclasses.replace(cert, verdict="NOT-ORDERABLE",
                                              payload=payload), "o.cert")
        capsys.readouterr()
        assert main(["verify", "o.cert"]) == 1
        assert "cover 0 of the 2^1 orientation choices" in capsys.readouterr().out

    def test_class_check_fails_on_a_small_window(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "3",
              "--out-class", "lo.cls"])
        assert main(["class-check", "lo.cls", "--pair-bound", "3",
                     "--out", "c.cert"]) == 1
        cert = parse_certificate((tmp_path / "c.cert").read_text())
        assert "property ERP FAIL" in cert.payload
        assert main(["verify", "c.cert"]) == 0

    def test_ap_bound_below_every_member_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["generate", "graphs", "--upto", "3", "--out-class", "g3.cls"])
        for bound in ("0", "-2"):
            assert main(["class-check", "g3.cls", "--ap-bound", bound,
                         "--out", "c.cert"]) == 3
        assert not (tmp_path / "c.cert").exists()


class TestExpansionCommands:
    def test_expand_and_isolate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (lo3,) = write_orders(tmp_path, 3)
        assert main(["expand", lo3, "--k", "2", "--out", "e.cert",
                     "--out-structure", "e.struct"]) == 0
        expanded = parse_structure_file((tmp_path / "e.struct").read_text())
        assert len(expanded.signature.relations) == 5
        assert main(["verify", "e.cert"]) == 0
        assert main(["isolate", lo3, "--k", "1", "--out", "i.cert"]) == 0
        assert main(["verify", "i.cert"]) == 0

    def test_elf(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (lo5,) = write_orders(tmp_path, 5)
        assert main(["elf", lo5, "--tuple", "1,3", "--out", "m.cert"]) == 0
        cert = parse_certificate((tmp_path / "m.cert").read_text())
        assert cert.payload_value("ground") == "0,1,2,3,4"
        assert main(["verify", "m.cert"]) == 0


class TestSequenceCommands:
    def test_indiscernible_verdicts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seq = write_parity_sequence(tmp_path)
        assert main(["indiscernible", seq, "--out", "n.cert"]) == 1
        cert = parse_certificate((tmp_path / "n.cert").read_text())
        assert cert.verdict == "NOT-INDISCERNIBLE"
        assert main(["verify", "n.cert"]) == 0
        constant = indexed_sequence(linear_order(3),
                                    graph(2, [(0, 1)], name="K2"), [0, 0, 0])
        delta = FormulaSet((parse_formula("E(x0, x1)"),))
        (tmp_path / "c.seq").write_text(serialize_sequence(constant, delta))
        assert main(["indiscernible", "c.seq", "--out", "y.cert"]) == 0

    def test_indiscernible_cap_below_one(self, tmp_path, monkeypatch):
        # at cap 0 no tuple length is checked, so any sequence would pass
        monkeypatch.chdir(tmp_path)
        I = indexed_sequence(linear_order(4), linear_order(2), [0, 1, 0, 1])
        delta = FormulaSet((parse_formula("<(x0, x1)"),))
        (tmp_path / "s.seq").write_text(serialize_sequence(I, delta))
        for cap in ("0", "-1"):
            assert main(["indiscernible", "s.seq", "--cap", cap,
                         "--out", "n.cert"]) == 3
        assert not (tmp_path / "n.cert").exists()
        assert main(["indiscernible", "s.seq", "--out", "n.cert"]) == 1
        cert = parse_certificate((tmp_path / "n.cert").read_text())
        forged = dataclasses.replace(cert, verdict="INDISCERNIBLE",
                                     payload=("cap 0",))
        write_certificate(forged, str(tmp_path / "n.cert"))
        assert main(["verify", "n.cert"]) == 1

    def test_sequence_certificates_replay_from_another_directory(
            self, tmp_path, monkeypatch):
        # the sequence file names its index and target files by relative path
        work = tmp_path / "work"
        work.mkdir()
        write_orders(work, 4, 2)
        (work / "s.seq").write_text(
            "sequence s\nindex lo4.struct\ntarget lo2.struct\nwidth 1\n"
            "map 0 -> (0)\nmap 1 -> (1)\nmap 2 -> (0)\nmap 3 -> (1)\n"
            "delta <(x0, x1)\n")
        monkeypatch.chdir(work)
        assert main(["indiscernible", "s.seq", "--out", "n.cert"]) == 1
        assert main(["extract", "s.seq", "lo2.struct", "--out", "x.cert"]) == 0
        # where verify runs, lo2.struct is a different structure, on which
        # the sequence would be indiscernible
        write_orders(tmp_path, 4)
        lo2 = linear_order(2)
        full = Structure(lo2.signature, 2,
                         {"<": {(a, b) for a in range(2) for b in range(2)}})
        (tmp_path / "lo2.struct").write_text(serialize_structure(full))
        monkeypatch.chdir(tmp_path)
        assert main(["verify", os.path.join("work", "n.cert")]) == 0
        assert main(["verify", os.path.join("work", "x.cert")]) == 0

    @pytest.mark.parametrize("deltas,code", [
        # `;` is no token: the first line must not be cut to `x0 = x0`
        (["x0 = x0 ; <(x0, x1)"], 3),
        (["x0 = x0", "<(x0, x1)"], 1),
        # never evaluated at cap 2, so it once certified INDISCERNIBLE
        (["R(x0, x1, x2, x3, x4, x5)"], 3),
    ])
    def test_delta_lines_are_read_whole(self, tmp_path, monkeypatch, capsys,
                                        deltas, code):
        monkeypatch.chdir(tmp_path)
        write_orders(tmp_path, 4, 2)
        (tmp_path / "s.seq").write_text(
            "sequence s\nindex lo4.struct\ntarget lo2.struct\nwidth 1\n"
            "map 0 -> (0)\nmap 1 -> (1)\nmap 2 -> (0)\nmap 3 -> (1)\n"
            + "".join(f"delta {d}\n" for d in deltas))
        assert main(["indiscernible", "s.seq", "--cap", "2",
                     "--out", "n.cert"]) == code
        if code == 3:
            assert "line 9" in capsys.readouterr().err
        else:
            assert main(["verify", "n.cert"]) == 0

    def test_extract_found(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seq = write_parity_sequence(tmp_path)
        (lo3,) = write_orders(tmp_path, 3)
        assert main(["extract", seq, lo3, "--out", "x.cert"]) == 0
        cert = parse_certificate((tmp_path / "x.cert").read_text())
        assert cert.verdict == "FOUND"
        assert cert.payload_value("embedding") == "0,2,4"
        assert main(["verify", "x.cert"]) == 0

    @pytest.mark.parametrize("line", ["candidates 999", "candidates 0",
                                      "embedding 1,3,5"])
    def test_extract_found_must_end_the_scan(self, tmp_path, monkeypatch,
                                             capsys, line):
        # (1, 3, 5) is indiscernible too, but not the first survivor; a
        # forged count once replayed ok
        monkeypatch.chdir(tmp_path)
        seq = write_parity_sequence(tmp_path)
        (lo3,) = write_orders(tmp_path, 3)
        assert main(["extract", seq, lo3, "--out", "x.cert"]) == 0
        cert = parse_certificate((tmp_path / "x.cert").read_text())
        old = next(ln for ln in cert.payload if ln.split()[0] == line.split()[0])
        resign(tmp_path / "x.cert", old, line)
        capsys.readouterr()
        assert main(["verify", "x.cert"]) == 1
        assert "does not end on the recorded embedding" in capsys.readouterr().out

    @pytest.mark.parametrize("forged", ["4,2,0", "0,0,0", "0,2,99"])
    def test_extract_replay_rejects_a_non_embedding(self, tmp_path, monkeypatch,
                                                    forged):
        # order-reversing, not injective, outside the index
        monkeypatch.chdir(tmp_path)
        seq = write_parity_sequence(tmp_path)
        (lo3,) = write_orders(tmp_path, 3)
        assert main(["extract", seq, lo3, "--out", "x.cert"]) == 0
        resign(tmp_path / "x.cert", "embedding 0,2,4", f"embedding {forged}")
        assert main(["verify", "x.cert"]) == 1

    def test_extract_none(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pentagon = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                         name="C5")
        I = indexed_sequence(pentagon, linear_order(5), list(range(5)))
        delta = FormulaSet((parse_formula("<(x0, x1)"),))
        (tmp_path / "p.seq").write_text(serialize_sequence(I, delta))
        k2 = tmp_path / "k2.struct"
        k2.write_text(serialize_structure(graph(2, [(0, 1)], name="K2")))
        assert main(["extract", "p.seq", str(k2), "--out", "x.cert"]) == 1
        cert = parse_certificate((tmp_path / "x.cert").read_text())
        assert cert.verdict == "NONE"
        assert cert.payload_value("candidates") == "10"
        assert main(["verify", "x.cert"]) == 0

    def test_extract_found_resigned_as_none_fails(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        seq = write_parity_sequence(tmp_path)
        (lo3,) = write_orders(tmp_path, 3)
        assert main(["extract", seq, lo3, "--out", "x.cert"]) == 0
        cert = parse_certificate((tmp_path / "x.cert").read_text())
        payload = tuple(line for line in cert.payload
                        if not line.startswith("embedding "))
        write_certificate(dataclasses.replace(cert, verdict="NONE",
                                              payload=payload), "x.cert")
        capsys.readouterr()
        assert main(["verify", "x.cert"]) == 1
        assert "stays within every cap" in capsys.readouterr().out

    @pytest.mark.parametrize("forged", ["0", "9", "11"])
    def test_extract_none_with_another_count_fails(self, tmp_path, monkeypatch,
                                                   forged):
        monkeypatch.chdir(tmp_path)
        write_pentagon_sequence(tmp_path)
        assert main(["extract", "c5.seq", "k2.struct", "--out", "x.cert"]) == 1
        resign(tmp_path / "x.cert", "candidates 10", f"candidates {forged}")
        assert main(["verify", "x.cert"]) == 1

    def test_extract_none_replay_stops_past_the_recorded_count(
            self, tmp_path, monkeypatch):
        # 1000 points, two to a target point: the first copy of the
        # 3-element pure set whose pairs are all distinct or all equal in
        # the target is (0, 2, 4), the 1001st candidate
        monkeypatch.chdir(tmp_path)
        write_pentagon_sequence(tmp_path)
        assert main(["extract", "c5.seq", "k2.struct", "--out", "x.cert"]) == 1
        cert = parse_certificate((tmp_path / "x.cert").read_text())
        I = indexed_sequence(pure_set(1000), pure_set(500),
                             [i // 2 for i in range(1000)])
        texts = {"sequence": serialize_sequence(
                     I, FormulaSet((parse_formula("x0 = x1"),))),
                 "pattern": serialize_structure(pure_set(3))}
        sections = tuple((label, texts[label]) for label, _ in cert.sections)
        payload = tuple("candidates 3" if line.startswith("candidates ")
                        else line for line in cert.payload)
        write_certificate(dataclasses.replace(cert, sections=sections,
                                              payload=payload), "x.cert")
        drawn = []
        real = indiscernibles.iter_embeddings

        def counting(host, pattern):
            for g in real(host, pattern):
                drawn.append(g)
                yield g

        monkeypatch.setattr(indiscernibles, "iter_embeddings", counting)
        assert main(["verify", "x.cert"]) == 1
        assert len(drawn) == 4


class TestAtomicOutputs:
    @pytest.mark.parametrize("output", ["cnf", "structure", "class"])
    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch,
                                              output):
        monkeypatch.chdir(tmp_path)
        lo3, lo2 = write_orders(tmp_path, 3, 2)
        argv = {
            "cnf": ["arrow", lo3, lo3, lo2, "--colors", "2", "--format", "cnf",
                    "--out", "old.txt"],
            "structure": ["expand", lo3, "--k", "2", "--out-structure",
                          "old.txt"],
            "class": ["generate", "linear-orders", "--upto", "3",
                      "--out-class", "old.txt"],
        }[output]
        (tmp_path / "old.txt").write_text("old\n")
        before = sorted(os.listdir(tmp_path))

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(argv) == 3
        assert (tmp_path / "old.txt").read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == before


class TestErrorsAndVerify:
    def test_missing_file_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["arrow", "ghost.struct", "g2", "g3",
                     "--colors", "2"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.struct"
        bad.write_text("structure M : S\n")
        assert main(["elf", str(bad), "--tuple", "0"]) == 3
        assert "line 1" in capsys.readouterr().err

    def test_file_naming_itself_exits_three(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        self_ref = tmp_path / "self.struct"
        self_ref.write_text(serialize_structure(linear_order(2))
                            + "\nclass c : S\nmember self.struct\n")
        assert main(["elf", str(self_ref), "--tuple", "0"]) == 3
        assert "references loop" in capsys.readouterr().err

    def test_bad_argv_exits_three(self):
        assert main(["arrow"]) == 3
        assert main(["no-such-command"]) == 3

    def test_tampered_certificate_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        main(["arrow", lo5, lo3, lo2, "--colors", "2", "--out", "a.cert"])
        text = (tmp_path / "a.cert").read_text()
        (tmp_path / "a.cert").write_text(
            text.replace("verdict: FAILS", "verdict: HOLDS"))
        assert main(["verify", "a.cert"]) == 3

    def test_orderable_phi_outside_the_class_exits_three(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "3",
              "--out-class", "lo.cls"])
        assert main(["orderable", "lo.cls", "--out", "o.cert"]) == 0
        row = parse_certificate((tmp_path / "o.cert").read_text()
                                ).payload_values("phi")[0]
        resign(tmp_path / "o.cert", f"phi {row}", "phi 9 0,1")
        assert main(["verify", "o.cert"]) == 3

    def test_unknown_copy_kind_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        main(["arrow", lo5, lo3, lo2, "--colors", "2", "--copies", "subset",
              "--out", "a.cert"])
        resign(tmp_path / "a.cert", "copies subset", "copies bogus")
        assert main(["verify", "a.cert"]) == 3

    def test_joint_counts_must_match_the_patterns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["joint-arrow", lo5, lo3, lo2, "--colors", "2",
                     "--mode", "refute", "--out", "j.cert"]) == 1
        resign(tmp_path / "j.cert", "rs 2", "rs 2,2")
        resign(tmp_path / "j.cert", "ds 1", "ds 1,1")
        assert main(["verify", "j.cert"]) == 3

    @pytest.mark.parametrize("forge", ["extra-key", "missing-key"])
    def test_joint_coloring_must_cover_exactly_the_pattern_copies(
            self, tmp_path, monkeypatch, capsys, forge):
        # as for a single arrow, whose replay compares key sets: an extra
        # key once passed replay, and a missing one ended in exit 3
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["joint-arrow", lo5, lo3, lo2, "--colors", "2",
                     "--mode", "refute", "--out", "j.cert"]) == 1
        cert = parse_certificate((tmp_path / "j.cert").read_text())
        payload = list(cert.payload)
        if forge == "extra-key":
            payload.append("color0 0,9 1")
        else:
            payload.remove("color0 0,1 0")
        write_certificate(dataclasses.replace(cert, payload=tuple(payload)),
                          "j.cert")
        capsys.readouterr()
        assert main(["verify", "j.cert"]) == 1
        assert "coloring 0 is not defined on exactly" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("arrow", 5, 3, 2, "--colors", "2"),
        ("joint-arrow", 5, 3, 2, 1, "--colors", "2,2", "--mode", "refute"),
    ], ids=["arrow", "joint-arrow"])
    @pytest.mark.parametrize("forge,reason", [
        ("bcopies", "recorded copy counts do not match"),
        ("good-target-copy", "stays within every cap"),
        ("no-copy-key", "is not defined on exactly the copies"),
    ])
    def test_forged_refutation_fails_replay_for_both_kinds(
            self, tmp_path, monkeypatch, capsys, argv, forge, reason):
        # one checker reads the colour lines of both kinds; a joint
        # certificate re-signed with `bcopies 999` once replayed ok
        monkeypatch.chdir(tmp_path)
        orders = write_orders(tmp_path, *(a for a in argv if isinstance(a, int)))
        options = [a for a in argv[1:] if not isinstance(a, int)]
        assert main([argv[0], *orders, *options, "--out", "f.cert"]) == 1
        assert main(["verify", "f.cert"]) == 0
        cert = parse_certificate((tmp_path / "f.cert").read_text())
        payload = []
        for line in cert.payload:
            word, *rest = line.split()
            if forge == "bcopies" and word == "bcopies":
                line = "bcopies 999"
            elif forge == "good-target-copy" and word.startswith("color") \
                    and max(map(int, rest[0].split(","))) < 3:
                # every copy inside the target copy on points 0, 1, 2
                line = f"{word} {rest[0]} 0"
            elif forge == "no-copy-key" and word.startswith("color") \
                    and not any(ln.startswith("color") for ln in payload):
                line = f"{word} 9,9 {rest[1]}"
            payload.append(line)
        assert payload != list(cert.payload)
        write_certificate(dataclasses.replace(cert, payload=tuple(payload)),
                          "f.cert")
        capsys.readouterr()
        assert main(["verify", "f.cert"]) == 1
        assert reason in capsys.readouterr().out

    def test_failed_replay_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from test_certificates import arrow_cert
        flat = Coloring(2, tuple(((a, b), 0) for a in range(5)
                                 for b in range(a + 1, 5)))
        cert = arrow_cert("FAILS", payload_extra=tuple(coloring_lines(flat)))
        write_certificate(cert, str(tmp_path / "bad.cert"))
        assert main(["verify", "bad.cert"]) == 1
