"""End-to-end CLI behaviour: output, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

import trisurf as ts
from trisurf import cli
from trisurf.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

# Pinned `trisurf classify` output: the rows, verdicts and impediment
# order are part of the command's byte-identical contract.
CLASSIFY_OUTPUT = {
    "k5_moebius": (
        "edge verdict impediments\n"
        "0-1 rod nonfacial-triangle\n"
        "0-2 rod chord,nonfacial-triangle\n"
        "0-3 rod chord,nonfacial-triangle\n"
        "0-4 rod nonfacial-triangle\n"
        "1-2 rod nonfacial-triangle\n"
        "1-3 rod chord,nonfacial-triangle\n"
        "1-4 rod chord,nonfacial-triangle\n"
        "2-3 rod nonfacial-triangle\n"
        "2-4 rod chord,nonfacial-triangle\n"
        "3-4 rod nonfacial-triangle\n"
    ),
    "proj_plane": (
        "edge verdict impediments\n"
        "0-1 rod nonfacial-triangle\n"
        "0-2 rod nonfacial-triangle\n"
        "0-3 rod nonfacial-triangle\n"
        "0-4 rod nonfacial-triangle\n"
        "0-5 rod nonfacial-triangle\n"
        "1-2 rod nonfacial-triangle\n"
        "1-3 rod nonfacial-triangle\n"
        "1-4 rod nonfacial-triangle\n"
        "1-5 rod nonfacial-triangle\n"
        "2-3 rod nonfacial-triangle\n"
        "2-4 rod nonfacial-triangle\n"
        "2-5 rod nonfacial-triangle\n"
        "3-4 rod nonfacial-triangle\n"
        "3-5 rod nonfacial-triangle\n"
        "4-5 rod nonfacial-triangle\n"
    ),
    "annulus": (
        "edge verdict impediments\n"
        "0-1 rod boundary-triangle,nonfacial-triangle\n"
        "0-2 rod boundary-triangle,nonfacial-triangle\n"
        "0-3 rod chord\n"
        "0-5 rod chord\n"
        "1-2 rod boundary-triangle,nonfacial-triangle\n"
        "1-3 rod chord\n"
        "1-4 rod chord\n"
        "2-4 rod chord\n"
        "2-5 rod chord\n"
        "3-4 rod boundary-triangle,nonfacial-triangle\n"
        "3-5 rod boundary-triangle,nonfacial-triangle\n"
        "4-5 rod boundary-triangle,nonfacial-triangle\n"
    ),
    "tetrahedron": (
        "edge verdict impediments\n"
        "0-1 rod minimal\n"
        "0-2 rod minimal\n"
        "0-3 rod minimal\n"
        "1-2 rod minimal\n"
        "1-3 rod minimal\n"
        "2-3 rod minimal\n"
    ),
}


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

    @pytest.mark.parametrize("text, message", [
        ("0 1 2\n1 1 2\n", "InvalidFace: line 2: face must have 3 distinct vertices\n"),
        ("# no faces\n\n# at all\n", "EmptyComplex: no faces in input\n"),
    ])
    def test_invalid_complex_is_a_one_line_failure(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.tri"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == message

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


    @pytest.mark.parametrize("name", sorted(CLASSIFY_OUTPUT))
    def test_output_is_pinned(self, name, request, tmp_path, capsys):
        path = tmp_path / f"{name}.tri"
        path.write_text(ts.dumps(request.getfixturevalue(name)), encoding="utf-8")
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out == CLASSIFY_OUTPUT[name]


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

    def test_shrinking_the_4_vertex_sphere_is_not_a_surface(
        self, tmp_path, tetrahedron, capsys
    ):
        path = tmp_path / "tetrahedron.tri"
        path.write_text(ts.dumps(tetrahedron), encoding="utf-8")
        assert main(["apply", str(path), "sh 0 1"]) == 1
        assert capsys.readouterr().err == "RodEdge: edge 0-1 is a rod (minimal)\n"

    @pytest.mark.parametrize("descriptor, message", [
        ("spt 0 9", "UnknownEdge: 0-9 is not an edge\n"),
        ("sp 9 0 1 a", "NotACorner: vertex 9 does not exist\n"),
    ])
    def test_descriptor_off_the_complex_is_a_one_line_failure(
        self, capsys, descriptor, message
    ):
        assert main(["apply", str(DATA / "moebius_band_5.tri"), descriptor]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_bad_descriptor_is_usage_error(self, quotient_file, capsys):
        assert main(["apply", str(quotient_file), "flip 0 1"]) == 2

    def test_empty_descriptor_is_usage_error(self, quotient_file, capsys):
        assert main(["apply", str(quotient_file), ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1


class TestEnumerate:
    def test_compare_sphere_is_empty_and_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        argv = ["enumerate", "--surface", "sphere", "--min-order", "4",
                "--max-order", "5", "--engine", "compare"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
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

    def test_ceiling_violation(self, no_search, capsys):
        # Refused before any order below the ceiling is searched.
        assert main(["enumerate", "--surface", "sphere", "--min-order", "4",
                     "--max-order", "12", "--engine", "exhaustive"]) == 2
        assert "CeilingExceeded" in capsys.readouterr().err

    def test_moebius_ceiling_violation_searches_nothing(self, no_search, capsys):
        assert main(["enumerate", "--surface", "moebius", "--min-order", "5",
                     "--max-order", "10", "--engine", "compare"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CeilingExceeded: order 10 above ceiling 9" in captured.err

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

    @pytest.mark.parametrize(
        "surface, min_order, max_order, extra, counts, digest",
        [
            # OEIS A000109.
            pytest.param(
                "sphere", 4, 10, ["--ceiling", "10"], [1, 1, 2, 5, 14, 50, 233],
                "a062acf46e44309b309139a2d68a6481d04331dacbe37f305fb13979140698b6",
                id="sphere",
            ),
            pytest.param(
                "disk", 3, 8, [], [1, 2, 4, 16, 63, 328],
                "1dd04295026c3c735dc4b4d6430c651688b0b8548f3762abf100f94cf389cf29",
                id="disk",
            ),
        ],
    )
    def test_engines_agree_and_the_exhaustive_catalog_is_pinned(
        self, tmp_path, capsys, surface, min_order, max_order, extra, counts, digest
    ):
        out = tmp_path / surface
        argv = ["enumerate", "--surface", surface, "--min-order", str(min_order),
                "--max-order", str(max_order), "--engine", "compare",
                "--out", str(out), *extra]
        assert main(argv) == 0
        capsys.readouterr()
        assert "result: EMPTY" in (out / f"{surface}_diff.txt").read_text()
        exhaustive = (out / f"{surface}_exhaustive.catalog").read_bytes()
        assert hashlib.sha256(exhaustive).hexdigest() == digest
        # The digest fixes every record, so the counts need no parse.
        records = exhaustive.decode().split("---\n", 1)[1].splitlines()
        orders = [int(record.split()[1]) for record in records]
        assert [orders.count(n) for n in range(min_order, max_order + 1)] == counts

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

    def test_failed_certificate_names_each_clause_and_writes_both_reports(
        self, monkeypatch, projective_catalog, tmp_path, capsys
    ):
        # A census catalog without its order-6 member fails six clauses.
        damaged = dataclasses.replace(projective_catalog, entries=tuple(
            e for e in projective_catalog.entries if e.order != 6
        ))
        real = cli.build_certificate
        built = []

        def with_damaged_catalog(**kwargs):
            built.append(real(projective_catalog=damaged, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_certificate", with_damaged_catalog)
        out = tmp_path / "cert"
        assert main(["verify-moebius", "--max-order", "7", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        (certificate,) = built
        assert {c.ident for c in certificate.failures} == {
            "census-counts", "irreducible-basis", "engine-agreement",
            "orbit-structure", "derivation", "exhaustive-cross-check",
        }
        assert err == "".join(
            f"FAILED clause [{c.ident}]: {c.evidence}\n" for c in certificate.failures
        )
        assert err.count("\n") == len(certificate.failures)
        assert "result: FAIL" in (out / "moebius_certificate.txt").read_text()
        assert (out / "moebius_members.txt").read_text() == (
            ts.render_members_report(certificate)
        )

    def test_ceiling_violation_runs_no_step(self, no_search, tmp_path, capsys):
        out = tmp_path / "cert"
        assert main(["verify-moebius", "--max-order", "10",
                     "--out", str(out)]) == 2
        assert "CeilingExceeded: order 10 above ceiling 9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_order", [4, 5, 6])
    def test_max_order_below_the_members_is_a_usage_error(
        self, no_search, tmp_path, capsys, max_order
    ):
        # The six members reach order 7; a lower cross-check is a usage
        # error, refused before any step, not a failed clause.
        out = tmp_path / "cert"
        assert main(["verify-moebius", "--max-order", str(max_order),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --max-order {max_order} is below 7, the largest order "
            "of an irreducible moebius-band member\n"
        )
        assert not out.exists()

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
