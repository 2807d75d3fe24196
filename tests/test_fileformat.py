"""Text-format parsing and serialization round-trips."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (ALL_FORMULAS, FormulaSet, ParseError, SerializeError,
                       Signature, Structure, finite_class, indexed_sequence,
                       is_indiscernible, linear_order, parse_class_file,
                       parse_document,
                       parse_formula, parse_sequence_file,
                       parse_structure_file, serialize_class,
                       serialize_sequence, serialize_signature,
                       serialize_structure)

from conftest import binary_structures, functional_structures, graph

DOC = """\
# a small worked example
signature S
relation E 2

structure path : S
domain 3
E : (0,1) (1,0) (1,2) (2,1)

structure edge : S
domain 2
E : (0,1) (1,0)

class tiny : S
member path
member edge

sequence walk
index path
target edge
width 1
map 0 -> (0)
map 1 -> (1)
map 2 -> (0)
delta E(x0, x1)
"""


class TestDocuments:
    def test_worked_example(self):
        doc = parse_document(DOC)
        assert set(doc.signatures) == {"S"}
        assert set(doc.structures) == {"path", "edge"}
        path = doc.structures["path"]
        assert path.size == 3 and path.holds("E", (1, 2))
        assert len(doc.classes["tiny"].members) == 2
        I, delta = doc.sequences["walk"]
        assert I.width == 1
        assert I.assignment == ((0,), (1,), (0,))
        assert isinstance(delta, FormulaSet)
        assert delta.labels() == ("E(x0, x1)",)

    def test_comments_and_blanks_are_invisible(self):
        doc = parse_document("signature S\n# nothing\n\nrelation E 2  # arity\n")
        assert doc.signatures["S"].relations == (("E", 2),)

    def test_generate_directive_opens_the_window(self):
        doc = parse_document("class orders : LO\nsignature LO\nrelation < 2\n"
                             .replace("class orders : LO\n", "")
                             + "class orders : LO\ngenerate linear-orders upto 4\n")
        F = doc.classes["orders"]
        assert len(F.members) == 4
        assert F.open_window

    def test_open_directive(self):
        text = ("signature S\nrelation E 2\n\nstructure M : S\ndomain 1\n\n"
                "class c : S\nmember M\nopen\n")
        assert parse_document(text).classes["c"].open_window

    def test_member_by_relative_path(self, tmp_path):
        (tmp_path / "pt.struct").write_text(
            "signature S\nrelation E 2\n\nstructure pt : S\ndomain 1\n")
        text = ("signature S\nrelation E 2\n\nclass c : S\nmember pt.struct\n")
        F = parse_class_file(text, base_dir=str(tmp_path))
        assert F.members[0].size == 1

    def test_delta_all(self):
        text = ("signature S\nrelation E 2\n\nstructure M : S\ndomain 2\n\n"
                "sequence q\nindex M\ntarget M\nwidth 1\n"
                "map 0 -> (0)\nmap 1 -> (1)\ndelta ALL\n")
        _, delta = parse_sequence_file(text)
        assert delta == ALL_FORMULAS


class TestParseErrors:
    @pytest.mark.parametrize("text,line", [
        ("what now\n", 1),
        ("signature S\nrelation E two\n", 2),
        ("signature S\n\nstructure M : T\n", 3),
        ("signature S\nrelation E 2\n\nstructure M : S\ndomain x\n", 5),
        ("signature S\nrelation E 2\n\nstructure M : S\nE : (0,1)\n", 5),
        ("signature S\nrelation E 2\n\nstructure M : S\ndomain 2\nE : (0,5)\n", 6),
        ("signature S\nrelation E 2\n\nstructure M : S\ndomain 2\nF : (0,1)\n", 6),
        ("signature S\nrelation E 2\n\nclass c : S\nmember ghost\n", 5),
        ("signature S\nrelation E 2\n\nstructure M : S\ndomain 1\n\n"
         "sequence q\nindex M\ntarget M\nwidth 1\nmap 0 -> (0)\n"
         "map 0 -> (0)\n", 12),
        ("signature S\nrelation E 2\n\nstructure M : S\ndomain 1\n\n"
         "sequence q\nindex M\ntarget M\nwidth 1\nmap 0 -> (0)\n"
         "delta E(x0\n", 12),
    ])
    def test_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == line

    def test_function_rows(self):
        text = ("signature S\nfunction s 1\n\nstructure M : S\ndomain 2\n"
                "s : 0->1 0->0\n")
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("text,line", [
        # a rejected signature, followed by another block
        ("signature S\nrelation E 0\n\nsignature T\n", 1),
        # a class without members, followed by another block
        ("signature S\nrelation E 2\n\nclass c : S\n\nsignature T\n", 4),
        # a sequence whose maps are narrower than its width, at the end
        ("signature S\nrelation E 2\n\nstructure M : S\ndomain 1\n\n"
         "sequence q\nindex M\ntarget M\nwidth 2\nmap 0 -> (0)\n", 7),
    ])
    def test_whole_block_errors_point_at_the_header(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == line

    def test_bad_generate_bound_is_a_parse_error(self):
        text = ("signature S\nrelation < 2\n\nclass c : S\n"
                "generate linear-orders upto 0\n")
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("blocks,line", [
        ("signature S\nrelation E 2\n", 4),
        ("structure G : S\ndomain 2\n\nstructure G : S\ndomain 3\n", 7),
        ("structure M : S\ndomain 1\n\nclass c : S\nmember M\n\n"
         "class c : S\nmember M\n", 10),
        ("structure M : S\ndomain 1\n\nsequence q\nindex M\ntarget M\n"
         "map 0 -> (0)\n\nsequence q\nindex M\ntarget M\nmap 0 -> (0)\n", 12),
    ])
    def test_repeated_names_are_rejected_at_the_second_header(self, blocks,
                                                              line):
        with pytest.raises(ParseError, match="already taken") as err:
            parse_document("signature S\nrelation E 2\n\n" + blocks)
        assert err.value.line == line

    def test_one_object_files(self):
        with pytest.raises(ParseError):
            parse_structure_file("signature S\nrelation E 2\n")
        with pytest.raises(ParseError):
            parse_class_file("signature S\nrelation E 2\n")
        two = DOC + "\nsequence more\nindex path\ntarget edge\nwidth 1\n" \
            + "map 0 -> (0)\nmap 1 -> (0)\nmap 2 -> (0)\ndelta ALL\n"
        with pytest.raises(ParseError):
            parse_sequence_file(two)


class TestFileReferences:
    def test_a_file_naming_itself_is_a_parse_error(self, tmp_path):
        text = ("signature S\nrelation E 2\n\nstructure pt : S\ndomain 1\n\n"
                "class c : S\nmember self.struct\n")
        (tmp_path / "self.struct").write_text(text)
        with pytest.raises(ParseError, match="references loop") as err:
            parse_structure_file(text, base_dir=str(tmp_path))
        assert err.value.line == 8

    def test_two_files_naming_each_other(self, tmp_path):
        head = "signature S\nrelation E 2\n\nstructure pt : S\ndomain 1\n\n"
        (tmp_path / "a.struct").write_text(head + "class c : S\nmember b.struct\n")
        (tmp_path / "b.struct").write_text(head + "class c : S\nmember a.struct\n")
        with pytest.raises(ParseError, match="references loop"):
            parse_structure_file((tmp_path / "a.struct").read_text(),
                                 base_dir=str(tmp_path))

    def test_a_file_named_twice_is_no_loop(self, tmp_path):
        (tmp_path / "pt.struct").write_text(
            "signature S\nrelation E 2\n\nstructure pt : S\ndomain 1\n")
        text = ("signature S\nrelation E 2\n\nclass c : S\n"
                "member pt.struct\nmember pt.struct\n")
        F = parse_class_file(text, base_dir=str(tmp_path))
        assert len(F.members) == 1


SEQ_HEAD = ("signature S\nrelation < 2\n\nstructure LO_2 : S\ndomain 2\n"
            "< : (0,1)\n\nsequence q\nindex LO_2\ntarget LO_2\nwidth 1\n"
            "map 0 -> (0)\nmap 1 -> (1)\n")


class TestDeltaSymbols:
    @pytest.mark.parametrize("delta,message", [
        ("R(x0, x1)", "no relation 'R' of arity 2"),
        ("R(x0, x1, x2, x3, x4, x5)", "no relation 'R' of arity 6"),
        ("<(x0)", "no relation '<' of arity 1"),
        ("s(x0) = x1", "no function 's' of arity 1"),
        ("<(x0, x1) & e = x0", "no constant 'e'"),
        ("x0 = forall", "no constant 'forall'"),
    ])
    def test_symbols_outside_the_target_signature(self, delta, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_sequence_file(SEQ_HEAD + f"delta x0 = x0\ndelta {delta}\n")
        assert err.value.line == 15

    def test_target_after_the_delta_lines(self):
        text = SEQ_HEAD.replace("target LO_2\n", "") + "delta R(x0)\ntarget LO_2\n"
        with pytest.raises(ParseError, match="no relation 'R'") as err:
            parse_sequence_file(text)
        assert err.value.line == 13

    def test_symbols_of_the_target_are_accepted(self):
        _, delta = parse_sequence_file(
            SEQ_HEAD + "delta forall x1. (<(x0, x1) | x0 = x1)\n")
        assert len(delta) == 1


class TestNames:
    @pytest.mark.parametrize("name", ["my order", "my\torder", "a:b", "a#b"])
    def test_serializers_refuse_names_they_cannot_read_back(self, name):
        named = re.escape(f"structure name {name!r}")
        with pytest.raises(SerializeError, match=named):
            serialize_structure(linear_order(2, name=name))
        with pytest.raises(SerializeError, match=named):
            serialize_class(finite_class([linear_order(2, name=name)]))
        I = indexed_sequence(linear_order(3), linear_order(2, name=name),
                             [0, 1, 0])
        with pytest.raises(SerializeError, match=named):
            serialize_sequence(I, ALL_FORMULAS)

    @pytest.mark.parametrize("kind", ["class", "sequence"])
    def test_block_names_follow_the_same_rule(self, kind):
        I = indexed_sequence(linear_order(3), linear_order(2), [0, 1, 0])
        with pytest.raises(SerializeError, match=f"{kind} name"):
            if kind == "class":
                serialize_class(finite_class([linear_order(2)]), name="a b")
            else:
                serialize_sequence(I, ALL_FORMULAS, name="a:b")

    def test_a_header_name_with_a_space_is_rejected(self):
        with pytest.raises(ParseError, match="single name") as err:
            parse_document("signature S\nrelation E 2\n\n"
                           "structure my order : S\ndomain 1\n")
        assert err.value.line == 4


class TestRoundTrips:
    def test_structure_with_everything(self):
        sig = Signature(relations=(("E", 2),), functions=(("s", 1),),
                        constants=("e",))
        M = Structure(sig, 3, {"E": {(0, 1), (1, 0)}}, {"s": {(0,): 1}},
                      {"e": 2}, name="mixed")
        back = parse_structure_file(serialize_structure(M))
        assert back == M
        assert back.fn_value("s", (0,)) == 1
        assert back.const("e") == 2

    @settings(max_examples=50, deadline=None)
    @given(binary_structures(max_size=5))
    def test_binary_structures(self, M):
        assert parse_structure_file(serialize_structure(M)) == M

    @settings(max_examples=50, deadline=None)
    @given(functional_structures(constants=True))
    def test_functional_structures(self, M):
        assert parse_structure_file(serialize_structure(M)) == M

    def test_class_round_trip_keeps_the_window_flag(self):
        for flag in (False, True):
            F = finite_class([graph(2, [(0, 1)], name="K2"),
                              graph(1, [], name="K1")], open_window=flag)
            back = parse_class_file(serialize_class(F))
            assert back.members == F.members
            assert back.open_window == flag

    def test_sequence_round_trip_same_signature(self):
        I = indexed_sequence(linear_order(3), linear_order(5), [0, 2, 4])
        delta = FormulaSet((parse_formula("<(x0, x1)"),))
        J, back = parse_sequence_file(serialize_sequence(I, delta))
        assert J == I
        assert back.labels() == delta.labels()

    def test_sequence_round_trip_split_signatures(self):
        I = indexed_sequence(linear_order(3), graph(2, [(0, 1)]), [0, 1, 0])
        text = serialize_sequence(I, ALL_FORMULAS)
        assert "signature ST" in text
        J, back = parse_sequence_file(text)
        assert J == I and back == ALL_FORMULAS

    def test_class_members_sharing_a_name(self):
        F = finite_class([linear_order(2, name="G"), linear_order(3, name="G")])
        back = parse_class_file(serialize_class(F))
        assert back.members == F.members
        assert [M.name for M in back.members] == ["G", "G_2"]

    def test_sequence_target_sharing_the_index_name(self):
        I = indexed_sequence(linear_order(4), linear_order(2, name="LO_4"),
                             [0, 1, 0, 1])
        delta = FormulaSet((parse_formula("<(x0, x1)"),))
        J, back = parse_sequence_file(serialize_sequence(I, delta))
        assert J == I
        assert not is_indiscernible(I, delta)[0]
        assert not is_indiscernible(J, back)[0]

    def test_index_equal_to_its_target_is_written_once(self):
        I = indexed_sequence(linear_order(4), linear_order(4), [3, 2, 1, 0])
        text = serialize_sequence(I, ALL_FORMULAS)
        assert text.count("structure ") == 1
        J, _ = parse_sequence_file(text)
        assert J == I

    def test_signature_block_alone(self):
        sig = Signature(relations=(("E", 2), ("<", 2)), functions=(("f", 2),),
                        constants=("c", "d"))
        doc = parse_document(serialize_signature(sig, "X"))
        assert doc.signatures["X"] == sig


# valid and malformed directive lines; no file named by them exists
HEADER_LINES = [
    "signature S", "signature T", "signature", "signature S T",
    "structure A : S", "structure B : S", "structure A : T", "structure A",
    "structure : S", "class c : S", "class c : T", "class c", "sequence q",
    "sequence q : S", "sequence",
]
ROW_LINES = [
    "relation E 2", "relation < 2", "relation E 0", "relation E two",
    "relation E \u00b2", "function s 1", "function s", "constant e",
    "constant", "domain 0", "domain 2", "domain 3", "domain x",
    "domain \u00b2", "domain \u0663", "E : (0,1) (1,0)", "E : (0,5)",
    "E : (0)", "E : junk", "< : (0,1)", "s : 0->1", "s : 0->1 0->0",
    "s : 1,1->0", "e = 0", "e = 9", "e = x", "e = \u00b2", "member A",
    "member B", "member ghost", "member", "generate linear-orders upto 3",
    "generate pure-sets upto 2", "generate graphs upto 3",
    "generate graphs upto 9", "generate pure-sets upto 0",
    "generate nothing upto 2", "open", "open now", "index A", "index B",
    "target A", "target B", "index ghost", "width 1", "width 2", "width 0",
    "width x", "width \u00b2", "map 0 -> (0)", "map 1 -> (1)",
    "map 0 -> (5)", "map 0 -> (0,1)", "map x", "delta E(x0, x1)",
    "delta <(x0, x1)", "delta ALL", "delta E(x0", "delta Q(x0)",
    "# comment", "", "what now",
]
blocks = st.lists(st.tuples(st.sampled_from(HEADER_LINES),
                            st.lists(st.sampled_from(ROW_LINES), max_size=6)),
                  max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ROW_LINES), max_size=1), blocks)
def test_directive_text_parses_or_raises_parse_error(lead, blocks):
    lines = lead + ["signature S", "relation E 2", "relation < 2"]
    for header, rows in blocks:
        lines += [header] + rows
    try:
        parse_document("\n".join(lines))
    except ParseError:
        pass
