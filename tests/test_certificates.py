"""Certificate rendering, parsing, tampering, and search-free replay."""

import os

import pytest

from ramseykit import (Certificate, CertificateError, Coloring, arrow_check,
                       coloring_lines, decode_coloring, decode_key,
                       encode_key, linear_order, parse_certificate,
                       render_certificate, replay_certificate,
                       serialize_structure, write_certificate)
from ramseykit.certificates import write_atomic


def arrow_cert(verdict, payload_extra=(), acopies=10, bcopies=10):
    payload = ("r 2", "d 1", "copies embedding",
               f"acopies {acopies}", f"bcopies {bcopies}") + tuple(payload_extra)
    return Certificate(
        kind="arrow",
        command="ramseykit arrow C.struct B.struct A.struct -r 2",
        config="budget=10000000 seed=0 samples=500 mode=decide",
        verdict=verdict,
        stats=(("nodes", 42),),
        notes=("unit fixture",),
        sections=(("ground", serialize_structure(linear_order(5))),
                  ("target", serialize_structure(linear_order(3))),
                  ("pattern", serialize_structure(linear_order(2)))),
        payload=payload)


class TestRoundTrip:
    def test_full_certificate(self):
        cert = arrow_cert("HOLDS")
        assert parse_certificate(render_certificate(cert)) == cert

    def test_rendering_is_deterministic(self):
        cert = arrow_cert("HOLDS")
        assert render_certificate(cert) == render_certificate(cert)

    def test_sections_allow_blank_lines(self):
        cert = Certificate("arrow", "c", "cfg", "V",
                           sections=(("x", "a\n\nb\n"),))
        back = parse_certificate(render_certificate(cert))
        assert back.section("x") == "a\n\nb\n"

    def test_accessors(self):
        cert = arrow_cert("HOLDS", payload_extra=("color 0,1 0", "color 0,2 1"))
        assert cert.has_section("target")
        assert not cert.has_section("nope")
        with pytest.raises(CertificateError):
            cert.section("nope")
        assert cert.payload_value("r") == "2"
        assert cert.payload_values("color") == ["0,1 0", "0,2 1"]
        with pytest.raises(CertificateError):
            cert.payload_value("color")


class TestTampering:
    def test_digest_protects_the_verdict(self):
        text = render_certificate(arrow_cert("HOLDS"))
        with pytest.raises(CertificateError, match="corrupted"):
            parse_certificate(text.replace("verdict: HOLDS", "verdict: FAILS"))

    def test_missing_header(self):
        with pytest.raises(CertificateError, match="header"):
            parse_certificate("nonsense\n")

    def test_missing_digest(self):
        text = render_certificate(arrow_cert("HOLDS"))
        body = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(CertificateError, match="digest"):
            parse_certificate(body)

    def test_missing_required_field(self):
        lines = render_certificate(arrow_cert("HOLDS")).splitlines()
        body = [ln for ln in lines[:-1] if not ln.startswith("config: ")]
        import hashlib
        digest = hashlib.sha256(("\n".join(body) + "\n").encode()).hexdigest()
        with pytest.raises(CertificateError, match="config"):
            parse_certificate("\n".join(body) + f"\ndigest: {digest}\n")


class TestPayloadHelpers:
    def test_key_codec(self):
        assert encode_key(()) == "-" and decode_key("-") == ()
        assert encode_key((3,)) == "3" and decode_key("3") == (3,)
        assert decode_key(encode_key((0, 2, 5))) == (0, 2, 5)

    def test_coloring_codec(self):
        col = Coloring(3, (((0, 1), 2), ((), 0)))
        lines = coloring_lines(col)
        assert lines == ["color 0,1 2", "color - 0"]
        back = decode_coloring(3, [ln[len("color "):] for ln in lines])
        assert back == col


class TestWrite:
    def test_atomic_write_leaves_one_clean_file(self, tmp_path):
        path = tmp_path / "out.cert"
        write_certificate(arrow_cert("HOLDS"), str(path))
        assert parse_certificate(path.read_text()) == arrow_cert("HOLDS")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.cert"]

    def test_failed_rename_leaves_the_old_file_and_no_temporary(
            self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_atomic(str(path), "new\n")
        with pytest.raises(OSError):
            write_certificate(arrow_cert("HOLDS"), str(path))
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        monkeypatch.undo()
        write_atomic(str(path), "new\n")
        assert path.read_text() == "new\n"

    def test_overwrite(self, tmp_path):
        path = tmp_path / "out.cert"
        write_certificate(arrow_cert("HOLDS"), str(path))
        write_certificate(arrow_cert("INCONCLUSIVE"), str(path))
        assert parse_certificate(path.read_text()).verdict == "INCONCLUSIVE"


class TestReplay:
    def test_refutation_is_reverified(self):
        res = arrow_check(linear_order(5), linear_order(3), linear_order(2), 2)
        cert = arrow_cert("FAILS",
                          payload_extra=tuple(coloring_lines(res.coloring)))
        report = replay_certificate(cert)
        assert report.ok
        assert any("re-verified" in c for c in report.checks)

    def test_corrupted_coloring_fails_replay(self):
        inst_keys = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        flat = Coloring(2, tuple((k, 0) for k in inst_keys))
        cert = arrow_cert("FAILS", payload_extra=tuple(coloring_lines(flat)))
        report = replay_certificate(cert)
        assert not report.ok
        assert any(c.startswith("FAILED") for c in report.checks)

    def test_exhaustion_verdicts_get_consistency_checks_only(self):
        report = replay_certificate(arrow_cert("HOLDS"))
        assert report.ok
        assert any("instance arithmetic" in c for c in report.checks)

    def test_copy_count_mismatch_detected(self):
        report = replay_certificate(arrow_cert("HOLDS", acopies=99))
        assert not report.ok

    def test_unknown_kind_rejected(self):
        cert = Certificate("mystery", "c", "cfg", "V")
        with pytest.raises(CertificateError):
            replay_certificate(cert)
