"""End-to-end CLI behaviour: output, exit codes, determinism."""

from __future__ import annotations

from pathlib import Path

import pytest

import trisurf as ts
from trisurf.cli import main


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.tri"
    path.write_text("0 1 2\n", encoding="utf-8")
    return path


@pytest.fixture()
def quotient_file(tmp_path, proj_plane):
    path = tmp_path / "projective_plane_6.tri"
    path.write_text(ts.dumps(proj_plane), encoding="utf-8")
    return path


class TestValidate:
    def test_triangle(self, triangle_file, capsys):
        assert main(["validate", str(triangle_file)]) == 0
        out = capsys.readouterr().out
        assert "chi=1 orientable boundary=1" in out
        assert "surface: disk" in out

    def test_projective_plane(self, quotient_file, capsys):
        assert main(["validate", str(quotient_file)]) == 0
        out = capsys.readouterr().out
        assert "chi=1 non-orientable boundary=0" in out

    def test_duplicate_face_exit_code_and_line(self, tmp_path, capsys):
        path = tmp_path / "dup.tri"
        path.write_text("0 1 2\n1 2 3\n2 1 0\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "DuplicateFace" in err
        assert "line 3" in err

    def test_bad_tokens_are_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.tri"
        path.write_text("0 1 x\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.tri")]) == 2

    def test_directory_is_a_one_line_usage_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    def test_unreadable_file_is_a_one_line_usage_error(
        self, triangle_file, monkeypatch, capsys
    ):
        # File modes do not stop a root user, so the refusal is simulated.
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["validate", str(triangle_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Permission denied" in err

    def test_non_utf8_file_is_a_one_line_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.tri"
        path.write_bytes(b"0 1 2 # caf\xe9\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "can't decode" in err


class TestClassify:
    def test_quotient_classification(self, quotient_file, capsys):
        assert main(["classify", str(quotient_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = lines[1:]
        assert len(rows) == 15
        assert all("rod nonfacial-triangle" in row for row in rows)

    def test_split_member_has_a_cable_row(self, tmp_path, proj_plane, capsys):
        child = ts.split_corner(proj_plane, ts.corners(proj_plane)[0])
        path = tmp_path / "split.tri"
        path.write_text(ts.dumps(child), encoding="utf-8")
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert any("cable" in line for line in out.splitlines())


class TestCanon:
    def test_code_matches_library(self, quotient_file, proj_plane, capsys):
        assert main(["canon", str(quotient_file)]) == 0
        out = capsys.readouterr().out
        assert ts.canonical_code(proj_plane).hex() in out


class TestApply:
    def test_split_then_shrink_round_trips(self, quotient_file, proj_plane, capsys):
        assert main(["apply", str(quotient_file), "sp 0 1 2 a", "sh 0 6"]) == 0
        out = capsys.readouterr().out
        assert ts.loads(out).faces == proj_plane.faces

    def test_shrinking_a_rod_fails(self, quotient_file, capsys):
        assert main(["apply", str(quotient_file), "sh 0 1"]) == 1
        assert "RodEdge" in capsys.readouterr().err

    def test_bad_descriptor_is_usage_error(self, quotient_file, capsys):
        assert main(["apply", str(quotient_file), "flip 0 1"]) == 2


class TestEnumerate:
    def test_compare_sphere_is_empty_and_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        argv = ["enumerate", "--surface", "sphere", "--min-order", "4",
                "--max-order", "5", "--engine", "compare"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2), "--jobs", "2"]) == 0
        capsys.readouterr()
        for name in ("sphere_exhaustive.catalog", "sphere_splitting.catalog",
                     "sphere_diff.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert "result: EMPTY" in (out1 / "sphere_diff.txt").read_text()

    def test_exhaustive_stdout_catalog_parses(self, capsys):
        assert main(["enumerate", "--surface", "moebius", "--min-order", "5",
                     "--max-order", "5", "--engine", "exhaustive"]) == 0
        catalog = ts.parse_catalog(capsys.readouterr().out)
        assert len(catalog) == 1
        assert catalog.kind == ts.MOEBIUS_BAND

    def test_ceiling_violation(self, capsys):
        assert main(["enumerate", "--surface", "sphere", "--min-order", "4",
                     "--max-order", "12", "--engine", "exhaustive"]) == 2
        assert "CeilingExceeded" in capsys.readouterr().err

    def test_order_beyond_the_search_limit_is_a_usage_error(self, capsys):
        assert main(["enumerate", "--surface", "sphere", "--min-order", "16",
                     "--max-order", "16", "--engine", "exhaustive",
                     "--ceiling", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CeilingExceeded" in captured.err
        assert "limit 15" in captured.err

    def test_splitting_below_the_basis_is_an_empty_catalog(self, tmp_path, capsys):
        argv = ["enumerate", "--surface", "sphere", "--min-order", "3",
                "--max-order", "3"]
        assert main(argv + ["--engine", "splitting"]) == 0
        catalog = ts.parse_catalog(capsys.readouterr().out)
        assert (catalog.engine, len(catalog)) == ("splitting", 0)
        out = tmp_path / "cmp"
        assert main(argv + ["--engine", "compare", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "result: EMPTY" in (out / "sphere_diff.txt").read_text()

    def test_splitting_has_no_ceiling(self, no_search, capsys):
        # Sphere counts 1/1/2/5/14/50/233 at orders 4..10 (OEIS A000109),
        # past the exhaustive engine's default ceiling of 9.
        assert main(["enumerate", "--surface", "sphere", "--min-order", "4",
                     "--max-order", "10", "--engine", "splitting"]) == 0
        catalog = ts.parse_catalog(capsys.readouterr().out)
        counts = [len(catalog.of_order(n)) for n in range(4, 11)]
        assert counts == [1, 1, 2, 5, 14, 50, 233]

    def test_bad_order_range(self, capsys):
        assert main(["enumerate", "--surface", "sphere", "--min-order", "6",
                     "--max-order", "4"]) == 2


class TestVerifyMoebius:
    def test_certificate_files_written(self, tmp_path, capsys):
        out = tmp_path / "cert"
        assert main(["verify-moebius", "--max-order", "7",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        certificate = (out / "moebius_certificate.txt").read_text()
        members = (out / "moebius_members.txt").read_text()
        assert "result: PASS" in certificate
        assert members.count("member M") == 6

    def test_face_list_round_trip_of_written_members(self, tmp_path, capsys):
        # Face lists embedded in the members report rebuild to the same codes.
        out = tmp_path / "cert"
        assert main(["verify-moebius", "--max-order", "7",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        members = (out / "moebius_members.txt").read_text()
        face_lines = [
            line.split(":", 1)[1].strip()
            for line in members.splitlines()
            if line.strip().startswith("faces:")
        ]
        assert len(face_lines) == 6
        for text in face_lines:
            faces = [tuple(int(v) for v in f.split(",")) for f in text.split()]
            ts.build(faces)
