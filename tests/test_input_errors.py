"""Bad input raises InputError and exits 3; anything else is a fault.

Certificates are outside input to ``verify``: a certificate whose lines
were edited and whose digest was recomputed must replay, fail replay or be
rejected as input, never end in another exception.  The same holds for
option values and for files that are not UTF-8 text.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import os
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ramseykit
from ramseykit import (Certificate, FormulaSet, InputError, ParseError,
                       indexed_sequence, linear_order, parse_certificate,
                       parse_document, parse_formula, pure_sets,
                       replay_certificate, serialize_class, serialize_sequence,
                       serialize_structure, write_certificate)
from ramseykit import certificates, cli, fileformat
from ramseykit.cli import main

from conftest import graph
from test_cli import (resign, write_orders, write_pentagon_sequence,
                      write_three_cycle_class)


def run(argv) -> int:
    """``main(argv)`` with its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_every_package_error_is_an_input_error():
    errors = set()
    for info in pkgutil.iter_modules(ramseykit.__path__):
        module = importlib.import_module(f"ramseykit.{info.name}")
        errors.update(obj for obj in vars(module).values()
                      if isinstance(obj, type) and issubclass(obj, Exception)
                      and obj.__module__ == module.__name__)
    assert len(errors) >= 13  # InputError and the 12 classes built on it
    assert all(issubclass(err, InputError) for err in errors)
    assert issubclass(InputError, ValueError)
    assert ValueError not in cli._INPUT_ERRORS


def test_a_fault_keeps_its_traceback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (lo3,) = write_orders(tmp_path, 3)

    def fault(*args):
        raise ValueError("a fault, not bad input")

    monkeypatch.setattr(cli, "elf_minimize", fault)
    with pytest.raises(ValueError, match="a fault"):
        main(["elf", lo3, "--tuple", "0"])


class TestCertificateInput:
    def test_unknown_family_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "pure-sets", "--upto", "3",
                     "--out", "g.cert"]) == 0
        resign(tmp_path / "g.cert", "family pure-sets", "family nope")
        assert main(["verify", "g.cert"]) == 3
        assert "no class family 'nope'" in capsys.readouterr().err

    def test_a_verdict_its_kind_never_emits_exits_three(self, tmp_path,
                                                        monkeypatch, capsys):
        # MAYBE once replayed as a budgeted run, and FOUNDX as an extract NONE
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        write_pentagon_sequence(tmp_path)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2",
                     "--out", "a.cert"]) == 1
        assert main(["extract", "c5.seq", "k2.struct", "--out", "x.cert"]) == 1
        capsys.readouterr()
        for path, verdict in (("a.cert", "MAYBE"), ("x.cert", "FOUNDX")):
            resign(tmp_path / path, verdict=verdict)
            assert main(["verify", path]) == 3
            err = capsys.readouterr().err
            assert f"never emits verdict '{verdict}'" in err
            assert "Traceback" not in err

    def test_every_exit_code_verdict_is_some_kind_s_verdict(self):
        emitted = {verdict for _, verdicts in certificates._REPLAYERS.values()
                   for verdict in verdicts}
        assert emitted == set(cli._EXIT)

    @pytest.fixture
    def no_recomputation(self, monkeypatch):
        """Replay that reaches a recomputation raises instead of running it,
        so a size check that is missing fails the test, not the memory."""
        def boom(*args):
            raise AssertionError("replay recomputed before checking sizes")
        monkeypatch.setattr(certificates, "qf_type_morleyisation", boom)
        monkeypatch.setattr(certificates, "isolator", boom)
        monkeypatch.setattr(certificates, "GENERATORS",
                            dict.fromkeys(certificates.GENERATORS, boom))

    @pytest.mark.parametrize("kind", ["expand", "isolate"])
    @pytest.mark.parametrize("forged", ["input", "output", "both"])
    def test_forged_expansion_domain_exits_three(self, tmp_path, monkeypatch,
                                                 no_recomputation, kind, forged):
        monkeypatch.chdir(tmp_path)
        (lo3,) = write_orders(tmp_path, 3)
        assert main([kind, lo3, "--k", "2", "--out", "e.cert"]) == 0
        cert = parse_certificate((tmp_path / "e.cert").read_text())
        sections = tuple(
            (label, text.replace("domain 3\n", "domain 1000000\n")
             if forged in (label, "both") else text)
            for label, text in cert.sections)
        assert sections != cert.sections
        write_certificate(dataclasses.replace(cert, sections=sections), "e.cert")
        assert main(["verify", "e.cert"]) == 3

    @pytest.mark.parametrize("kind", ["expand", "isolate"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_true_expansions_pass_the_size_check(self, tmp_path, monkeypatch,
                                                 kind, k):
        # one type predicate row per tuple: 4, 20 and 84 rows on LO_4
        monkeypatch.chdir(tmp_path)
        (lo4,) = write_orders(tmp_path, 4)
        (tmp_path / "g.struct").write_text(serialize_structure(
            graph(4, [(0, 1), (1, 2)], name="P3")))
        for path in (lo4, "g.struct"):
            assert main([kind, path, "--k", str(k), "--out", "e.cert"]) == 0
            assert main(["verify", "e.cert"]) == 0

    @pytest.mark.parametrize("family", ["linear-orders", "pure-sets", "graphs",
                                        "ordered-graphs"])
    def test_forged_generator_bound_exits_three(self, tmp_path, monkeypatch,
                                                no_recomputation, family):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", family, "--upto", "3", "--out", "g.cert"]) == 0
        resign(tmp_path / "g.cert", "upto 3", "upto 1000000000")
        assert main(["verify", "g.cert"]) == 3

    @pytest.mark.parametrize("kind", ["orderable", "class-check"])
    def test_a_generate_row_in_a_class_section_exits_three(
            self, tmp_path, monkeypatch, kind):
        # parsing the row would generate graphs(7): seconds of work in one line
        def boom(*args):
            raise AssertionError("replay generated a class")

        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "3", "--out-class", "lo.cls"])
        assert main([kind, "lo.cls", "--out", "c.cert"]) in (0, 1, 2)
        cert = parse_certificate((tmp_path / "c.cert").read_text())
        forged = "signature S\nrelation E 2\n\nclass g : S\ngenerate graphs upto 7\n"
        write_certificate(dataclasses.replace(cert, sections=(("class", forged),)),
                          "c.cert")
        monkeypatch.setattr(fileformat, "GENERATORS",
                            dict.fromkeys(fileformat.GENERATORS, boom))
        assert main(["verify", "c.cert"]) == 3

    def test_a_degree_cap_below_one_exits_three(self, tmp_path, monkeypatch):
        # every B-copy shows more than 0 colors, so any coloring passed
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        assert main(["arrow", lo5, lo3, lo2, "--colors", "2", "--out", "a.cert"]) == 1
        resign(tmp_path / "a.cert", "d 1", "d 0")
        assert main(["verify", "a.cert"]) == 3

    @pytest.mark.parametrize("line", ["stat: nodes=x", "stat: nodes",
                                      "stat: nodes=-1"])
    def test_stat_lines_hold_counts(self, line):
        body = ["ramseykit certificate v1", "kind: arrow", "command: c",
                "config: ", "verdict: HOLDS", line,
                "begin payload", "end payload"]
        text = "\n".join(body) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with pytest.raises(InputError, match="stat 'nodes'"):
            parse_certificate(text + f"digest: {digest}\n")

    @pytest.mark.parametrize("row", ["phi 0", "phi x 0,1", "phi 0 0,1 2",
                                     "phi 0 0,y"])
    def test_malformed_phi_rows_exit_three(self, tmp_path, monkeypatch, row):
        monkeypatch.chdir(tmp_path)
        main(["generate", "linear-orders", "--upto", "3",
              "--out-class", "lo.cls"])
        assert main(["orderable", "lo.cls", "--out", "o.cert"]) == 0
        first = parse_certificate((tmp_path / "o.cert").read_text()
                                  ).payload_values("phi")[0]
        resign(tmp_path / "o.cert", f"phi {first}", row)
        assert main(["verify", "o.cert"]) == 3

    @pytest.mark.parametrize("value", ["two", "", "-1", "1" * 19])
    def test_payload_integers_are_read_as_counts(self, tmp_path, monkeypatch,
                                                 value):
        monkeypatch.chdir(tmp_path)
        lo5, lo3, lo2 = write_orders(tmp_path, 5, 3, 2)
        main(["arrow", lo5, lo3, lo2, "--colors", "2", "--out", "a.cert"])
        resign(tmp_path / "a.cert", "r 2", f"r {value}")
        with pytest.raises(InputError, match="payload 'r'"):
            replay_certificate(parse_certificate(
                (tmp_path / "a.cert").read_text()))
        assert main(["verify", "a.cert"]) == 3


def test_an_overlong_number_is_rejected_at_its_row():
    text = ("signature S\nrelation E 2\n\nstructure M : S\n"
            f"domain {'9' * 5000}\n")
    with pytest.raises(ParseError, match="domain") as err:
        parse_document(text)
    assert err.value.line == 5


class TestDeltaCap:
    """A formula of arity a is evaluated only on index tuples of length
    ceil(a / w); a cap below that certifies without looking at it."""

    SEQ = ("sequence s\nindex lo4.struct\ntarget lo2.struct\nwidth 1\n"
           "map 0 -> (0)\nmap 1 -> (1)\nmap 2 -> (0)\nmap 3 -> (1)\n"
           "delta x2 = x2 & <(x0, x1)\n")

    def test_indiscernible_cap_must_reach_every_formula(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_orders(tmp_path, 4, 2)
        (tmp_path / "s.seq").write_text(self.SEQ)
        assert main(["indiscernible", "s.seq", "--cap", "2",
                     "--out", "n.cert"]) == 3
        assert "--cap must be at least 3" in capsys.readouterr().err
        assert not (tmp_path / "n.cert").exists()
        assert main(["indiscernible", "s.seq", "--out", "n.cert"]) == 1
        assert main(["verify", "n.cert"]) == 0

    def test_extract_pattern_must_reach_every_formula(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_orders(tmp_path, 4, 2)
        (tmp_path / "s.seq").write_text(self.SEQ)
        assert main(["extract", "s.seq", "lo2.struct", "--out", "x.cert"]) == 3
        assert not (tmp_path / "x.cert").exists()

    def test_replay_fails_a_cap_that_misses_a_formula(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_orders(tmp_path, 4, 2)
        (tmp_path / "s.seq").write_text(self.SEQ)
        assert main(["indiscernible", "s.seq", "--out", "n.cert"]) == 1
        cert = parse_certificate((tmp_path / "n.cert").read_text())
        forged = dataclasses.replace(cert, verdict="INDISCERNIBLE",
                                     payload=("cap 2",))
        write_certificate(forged, str(tmp_path / "n.cert"))
        assert main(["verify", "n.cert"]) == 1

    def test_replay_fails_a_pattern_that_misses_a_formula(self, tmp_path):
        I = indexed_sequence(linear_order(4), linear_order(2), [0, 1, 0, 1])
        delta = FormulaSet((parse_formula("x2 = x2 & <(x0, x1)"),))
        cert = Certificate(
            kind="extract", command="ramseykit extract s.seq lo2.struct",
            config="", verdict="FOUND",
            sections=(("sequence", serialize_sequence(I, delta)),
                      ("pattern", serialize_structure(linear_order(2)))),
            payload=("candidates 1", "embedding 0,1"))
        write_certificate(cert, str(tmp_path / "x.cert"))
        assert main(["verify", str(tmp_path / "x.cert")]) == 1


class TestDeepFormula:
    """A formula nested past the parser's bound is bad input, whether it
    comes from a sequence file or from a certificate."""

    DEEP = "delta " + "~" * 3000 + "x0 = x0"

    def test_indiscernible_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_orders(tmp_path, 4, 2)
        (tmp_path / "s.seq").write_text(
            TestDeltaCap.SEQ.replace("delta x2 = x2 & <(x0, x1)", self.DEEP))
        assert main(["indiscernible", "s.seq", "--out", "n.cert"]) == 3
        assert "nests deeper than" in capsys.readouterr().err
        assert not (tmp_path / "n.cert").exists()

    def test_verify_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_orders(tmp_path, 4, 2)
        (tmp_path / "s.seq").write_text(TestDeltaCap.SEQ)
        assert main(["indiscernible", "s.seq", "--out", "n.cert"]) == 1
        cert = parse_certificate((tmp_path / "n.cert").read_text())
        deep = "\n".join(self.DEEP if line.startswith("delta ") else line
                         for line in cert.section("sequence").splitlines())
        sections = tuple((name, deep if name == "sequence" else text)
                         for name, text in cert.sections)
        write_certificate(dataclasses.replace(cert, sections=sections),
                          str(tmp_path / "n.cert"))
        capsys.readouterr()
        assert main(["verify", "n.cert"]) == 3
        assert "nests deeper than" in capsys.readouterr().err


def test_an_argument_that_is_not_utf8_exits_three(tmp_path, monkeypatch,
                                                   capsys):
    # the command line goes into the certificate, which is UTF-8 text; a
    # file name holding the byte 0xff reaches argv as a lone surrogate
    monkeypatch.chdir(tmp_path)
    (lo2,) = write_orders(tmp_path, 2)
    name = "lo\udcff.struct"
    os.rename(lo2, name)
    assert main(["elf", name, "--tuple", "0", "--out", "e.cert"]) == 3
    assert "arguments must be UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "e.cert").exists()
    os.rename(name, lo2)
    assert main(["elf", lo2, "--tuple", "0", "--out", "e.cert"]) == 0


def test_an_error_in_a_referenced_file_names_it(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.txt").write_text("structure B : S\ndomain 1\n")
    (tmp_path / "c.txt").write_text(
        "signature S\nrelation < 2\n\nstructure pt : S\ndomain 1\n\n"
        "class c : S\nmember b.txt\n")
    assert main(["elf", "c.txt", "--tuple", "0"]) == 3
    assert "line 8: b.txt: line 1: unknown signature 'S'" \
        in capsys.readouterr().err


# -- fuzzing ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """One small certificate of every kind ``verify`` replays, by path."""
    work = tmp_path_factory.mktemp("emitted")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        lo5, lo3, lo2 = write_orders(work, 5, 3, 2)
        parity = indexed_sequence(linear_order(3), graph(2, [(0, 1)], name="K2"),
                                  [0, 1, 0])
        (work / "p.seq").write_text(serialize_sequence(
            parity, FormulaSet((parse_formula("E(x0, x1)"),))))
        write_pentagon_sequence(work)
        (work / "ps.cls").write_text(serialize_class(pure_sets(3)))
        write_three_cycle_class(work)
        runs = [
            ["arrow", lo5, lo3, lo2, "--colors", "2", "--budget", "1000"],
            ["joint-arrow", lo5, lo3, lo2, "--colors", "2", "--mode",
             "refute", "--budget", "1000"],
            ["degree", lo2, lo3, "--degree", "1", "--max-colors", "2",
             "--candidates", "linear-orders", "--upto", "3",
             "--budget", "1000"],
            ["generate", "linear-orders", "--upto", "3",
             "--out-class", "lo.cls"],
            ["orderable", "lo.cls"],
            ["class-check", "lo.cls", "--pair-bound", "2", "--budget", "1000"],
            ["expand", lo3, "--k", "2"],
            ["isolate", lo3, "--k", "2"],
            ["indiscernible", "p.seq"],
            ["extract", "p.seq", lo2],
            ["elf", lo5, "--tuple", "1,3"],
            ["extract", "c5.seq", "k2.struct"],
            ["orderable", "ps.cls"],  # symmetric pair
            ["orderable", "c3.cls"],  # two leaves
        ]
        paths = []
        for argv in runs:
            out = str(work / f"{argv[0]}{len(paths)}.cert")
            assert run(argv + ["--out", out]) in (0, 1, 2), argv
            paths.append(out)
    return work, paths


# numbers stay small, so that no forged count makes a replay run long
TOKENS = ["0", "1", "2", "3", "", "-", "-1", "x", "nope", ",", "0,1", "1,0",
          "1,", "ALL", "(", ")", "(0,1)", "->", ":", "=", "#", "S", "M0", "<",
          "E", "x0", "x9", "é", "٣", "1.5", "1" * 19, "begin", "end",
          "graphs", "r=2:HOLDS", "nodes="]


def edited_lines(path):
    """The lines of a certificate, and the indices of its header and
    payload lines; the sections are structure text, which the fuzz test
    of parse_document covers."""
    lines = open(path, encoding="utf-8").read().splitlines()
    first_section = next(i for i, line in enumerate(lines)
                         if line.startswith("begin "))
    payload = lines.index("begin payload")
    return lines, list(range(1, first_section)) + list(range(payload, len(lines) - 1))


def replays_or_rejects(work, lines) -> None:
    """Re-sign ``lines`` and require replay to return or raise InputError,
    and ``verify`` to exit 0, 1 or 3."""
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    text = body + f"digest: {digest}\n"
    try:
        replay_certificate(parse_certificate(text))
    except InputError:
        pass
    mutated = work / "mutated.cert"
    mutated.write_text(text, encoding="utf-8")
    assert run(["verify", str(mutated)]) in (0, 1, 3)


@pytest.mark.parametrize("kind", range(14))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_resigned_one_line_edit_is_replayed_or_rejected(emitted, kind, data):
    work, paths = emitted
    lines, editable = edited_lines(paths[kind])
    i = data.draw(st.sampled_from(editable))
    words = lines[i].split(" ")
    j = data.draw(st.integers(0, len(words) - 1))
    edit = data.draw(st.sampled_from(["replace", "drop", "insert"]))
    token = data.draw(st.sampled_from(TOKENS))
    if edit == "replace":
        words[j] = token
    elif edit == "drop":
        del words[j]
    else:
        words.insert(j, token)
    lines[i] = " ".join(words)
    replays_or_rejects(work, lines)


def test_every_word_replaced_by_an_unknown_name(emitted):
    # the sweep behind the fuzz: each word of each header and payload line
    work, paths = emitted
    for path in paths:
        lines, editable = edited_lines(path)
        for i in editable:
            words = lines[i].split(" ")
            for j in range(len(words)):
                edited = list(lines)
                edited[i] = " ".join(words[:j] + ["nope"] + words[j + 1:])
                replays_or_rejects(work, edited)


def malformed(text: str) -> bool:
    """Not a comma-separated list of non-negative integers."""
    return text not in ("", "-") \
        and not all(part.isdecimal() for part in text.split(","))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option=st.sampled_from(["--colors", "--degrees", "--tuple"]),
       value=st.text(max_size=6).filter(malformed))
def test_a_malformed_integer_list_exits_three(emitted, option, value):
    work, _ = emitted
    ground, target, pattern = (str(work / f"lo{n}.struct") for n in (5, 3, 2))
    argv = {"--colors": ["joint-arrow", ground, target, pattern,
                         f"--colors={value}"],
            "--degrees": ["joint-arrow", ground, target, pattern,
                          "--colors=2", f"--degrees={value}"],
            "--tuple": ["elf", ground, f"--tuple={value}"]}[option]
    assert run(argv + ["--out", str(work / "never.cert")]) == 3
    assert not (work / "never.cert").exists()


def not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(junk=st.binary(min_size=1, max_size=8).filter(not_utf8),
       how=st.sampled_from(["structure", "certificate", "referenced"]))
def test_a_file_that_is_not_utf8_exits_three(emitted, junk, how):
    work, paths = emitted
    bad = work / "bad.txt"
    out = str(work / "never.cert")
    if how == "certificate":
        bad.write_bytes(open(paths[0], "rb").read() + junk)
        argv = ["verify", str(bad)]
    else:
        bad.write_bytes(serialize_structure(linear_order(2)).encode() + junk)
        argv = ["elf", str(bad), "--tuple", "0", "--out", out]
        if how == "referenced":
            host = work / "host.txt"
            host.write_text("signature S\nrelation < 2\n\nclass c : S\n"
                            "member bad.txt\n")
            argv = ["elf", str(host), "--tuple", "0", "--out", out]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(argv) == 3
    assert "not UTF-8" in err.getvalue()
    assert not (work / "never.cert").exists()
