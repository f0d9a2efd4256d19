"""End-to-end command-line tests driving main() in process."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from affrig import cli, formats, numkernel, rigidity
from affrig.cli import main
from affrig.families import (
    complete_k_hypergraph,
    fig1_hypergraph,
    fig2_graph,
    generic_framework,
    hexagonal_torus,
    path_graph,
    pentagon_hypergraph,
    wheel_graph,
)
from affrig.hypergraph import (
    Graph,
    Hypergraph,
    is_k_vertex_connected,
    neighborhood_hypergraph,
)
from affrig.registration import best_fit_euclidean, synthetic_scan_set
from affrig.rigidity import Framework, affinity_residuals, strong_affinity_matrix
from test_registration import scan_set_of


def write_structure(tmp_path, name, structure):
    path = str(tmp_path / name)
    formats.write_document(formats.document_from_structure(structure), path)
    return path


def write_scans(tmp_path, name, scan_set):
    path = str(tmp_path / name)
    formats.write_document(formats.document_from_scan_set(scan_set), path)
    return path


def stripped_report(path):
    doc = formats.load_document(path)
    assert doc["type"] == "report"
    doc.pop("timestamp")
    doc.pop("timings")
    return doc


class TestTransform:
    def test_neighborhood_of_fig2(self, tmp_path):
        src = write_structure(tmp_path, "fig2.json", fig2_graph())
        out = str(tmp_path / "nbh.json")
        assert main(["transform", src, "neighborhood", "-o", out]) == 0
        doc = formats.load_document(out)
        assert sorted(map(tuple, doc["hyperedges"])) == [
            (0, 1, 2, 5),
            (0, 1, 4, 5),
            (0, 1, 5),
            (1, 2, 4),
            (2, 3, 4, 5),
            (3, 4),
        ]

    def test_square_of_triangle_is_triangle(self, tmp_path):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        src = write_structure(tmp_path, "triangle.json", triangle)
        out = str(tmp_path / "sq.json")
        assert main(["transform", src, "square", "-o", out]) == 0
        doc = formats.load_document(out)
        assert sorted(map(tuple, doc["edges"])) == [(0, 1), (0, 2), (1, 2)]

    def test_body_of_fig1(self, tmp_path):
        src = write_structure(tmp_path, "fig1.json", fig1_hypergraph())
        out = str(tmp_path / "body.json")
        assert main(["transform", src, "body", "-o", out]) == 0
        doc = formats.load_document(out)
        assert len(doc["edges"]) == 8

    def test_truncate_needs_k(self, tmp_path):
        src = write_structure(tmp_path, "fig1.json", fig1_hypergraph())
        assert main(["transform", src, "truncate", "-o", "-", "--quiet"]) == 2
        out = str(tmp_path / "trunc.json")
        assert main(["transform", src, "truncate", "--k", "2", "-o", out]) == 0
        assert sorted(map(tuple, formats.load_document(out)["hyperedges"])) == [
            (0, 1), (0, 5), (1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5),
        ]

    def test_neighborhood_rejects_hypergraph(self, tmp_path):
        src = write_structure(tmp_path, "fig1.json", fig1_hypergraph())
        assert main(["transform", src, "neighborhood", "-o", "-", "--quiet"]) == 2

    def test_stdin_input(self, tmp_path, monkeypatch, capsys):
        text = formats.serialize(formats.document_from_structure(fig2_graph()))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["transform", "-", "square", "-o", "-"]) == 0
        captured = capsys.readouterr()
        doc = formats.parse_document(captured.out)
        assert doc["type"] == "graph"
        assert "square" in captured.err


class TestTest:
    def test_pentagon_generic_flexible(self, tmp_path):
        src = write_structure(tmp_path, "penta.json", pentagon_hypergraph())
        report = str(tmp_path / "report.json")
        code = main(["test", src, "--dim", "2", "--seed", "9",
                     "--report", report, "--quiet"])
        assert code == 3
        doc = stripped_report(report)
        assert doc["verdict"] == "flexible"
        assert doc["corank"] == 5
        assert doc["one_sided"] is True
        assert doc["parameters"]["seed"] == 9

    def test_single_simplex_hyperedge_rigid(self, tmp_path):
        src = write_structure(tmp_path, "k4.json", complete_k_hypergraph(4, 4))
        assert main(["test", src, "--dim", "2", "--seed", "1", "--quiet"]) == 0

    def test_torus_neighborhood_mode(self, tmp_path):
        src = write_structure(tmp_path, "torus.json", hexagonal_torus(3, 3))
        report = str(tmp_path / "report.json")
        code = main(["test", src, "--dim", "2", "--mode", "neighborhood",
                     "--seed", "3", "--report", report, "--quiet"])
        assert code == 0
        assert stripped_report(report)["verdict"] == "rigid"

    def test_framework_mode_reports_residuals(self, tmp_path):
        theta = fig1_hypergraph()
        coords = generic_framework(theta, 2, seed=8).coordinates
        src = write_structure(tmp_path, "fig1.json", theta)
        fw = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(coords), fw)
        report = str(tmp_path / "report.json")
        code = main(["test", src, "--dim", "2", "--mode", "framework",
                     "--framework", fw, "--report", report, "--quiet"])
        assert code == 3
        doc = stripped_report(report)
        assert doc["corank"] == 6
        assert doc["residuals"]["kernel_residual"] <= 1e-9

    def test_framework_residuals_use_the_given_tolerance(self, tmp_path):
        # Points 0, 1, 2 are collinear up to 1e-5: a relation at --tol 1e-3,
        # none at the default cutoff.
        theta = Hypergraph.from_hyperedges(5, [(0, 1, 2), (0, 1, 3, 4)])
        coords = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 1e-5], [0.0, 1.0], [1.0, 1.3]]
        )
        framework = Framework(theta, coords)
        loose = strong_affinity_matrix(framework, rel_tol=1e-3)
        default = strong_affinity_matrix(framework)
        assert loose.matrix.shape[0] != default.matrix.shape[0]
        src = write_structure(tmp_path, "theta.json", theta)
        fw = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(coords), fw)
        report = str(tmp_path / "report.json")
        main(["test", src, "--dim", "2", "--mode", "framework", "--framework",
              fw, "--tol", "1e-3", "--report", report, "--quiet"])
        doc = stripped_report(report)
        assert doc["residuals"] == affinity_residuals(loose, framework)

    def test_framework_mode_builds_and_factors_once(self, tmp_path, monkeypatch):
        theta = neighborhood_hypergraph(hexagonal_torus(3, 3))
        coords = generic_framework(theta, 2, seed=8).coordinates
        src = write_structure(tmp_path, "nbh.json", theta)
        fw = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(coords), fw)
        built, factored = [], []
        build = rigidity.strong_affinity_matrix
        factor = np.linalg.svd

        def counting_build(*args, **kwargs):
            affinity = build(*args, **kwargs)
            built.append(affinity.matrix.shape)
            return affinity

        def counting_factor(a, *args, **kwargs):
            factored.append(np.shape(a))
            return factor(a, *args, **kwargs)

        monkeypatch.setattr(rigidity, "strong_affinity_matrix", counting_build)
        # Spy on the implementing module too: matrix norms look svd up there.
        implementation = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        for module in (np.linalg, implementation):
            monkeypatch.setattr(module, "svd", counting_factor)
        code = main(["test", src, "--dim", "2", "--mode", "framework",
                     "--framework", fw, "--quiet"])
        assert code == 0
        assert len(built) == 1
        assert factored.count(built[0]) == 1

    def test_framework_dimension_mismatch(self, tmp_path):
        theta = fig1_hypergraph()
        coords = generic_framework(theta, 2, seed=8).coordinates
        src = write_structure(tmp_path, "fig1.json", theta)
        fw = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(coords), fw)
        code = main(["test", src, "--dim", "3", "--mode", "framework",
                     "--framework", fw, "--quiet"])
        assert code == 2

    def test_ill_conditioned_framework_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        # diag(1e4, 1e-4) stretches every chart beyond what the default
        # cutoff can separate: the float corank falls below d+1.
        theta = neighborhood_hypergraph(hexagonal_torus(3, 3))
        coords = generic_framework(theta, 2, seed=3).coordinates @ np.diag(
            [1e4, 1e-4]
        )
        src = write_structure(tmp_path, "nbh.json", theta)
        fw = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(coords), fw)
        assert main(["test", src, "--dim", "2", "--mode", "framework",
                     "--framework", fw, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affrig: strong affinity matrix has numerical corank")
        assert "relative cutoff 1e-09" in err
        assert "Traceback" not in err

    def test_cutoff_below_rounding_exits_2_without_traceback(self, tmp_path, capsys):
        src = write_structure(tmp_path, "wheel.json", wheel_graph(5))
        assert main(["test", src, "--dim", "2", "--mode", "neighborhood",
                     "--tol", "1e-16", "--seed", "1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affrig: stage-1 non-symmetric stress")
        assert "relative cutoff 1e-16" in err
        assert "Traceback" not in err

    def test_framework_mode_needs_file(self, tmp_path):
        src = write_structure(tmp_path, "fig1.json", fig1_hypergraph())
        assert main(["test", src, "--dim", "2", "--mode", "framework",
                     "--quiet"]) == 2

    def test_reports_are_deterministic(self, tmp_path):
        src = write_structure(tmp_path, "penta.json", pentagon_hypergraph())
        docs = []
        for name in ("a.json", "b.json"):
            report = str(tmp_path / name)
            main(["test", src, "--dim", "2", "--seed", "42",
                  "--report", report, "--quiet"])
            docs.append(formats.serialize(stripped_report(report)))
        assert docs[0] == docs[1]


class TestBooleanCommands:
    def test_connectivity(self, tmp_path):
        torus = write_structure(tmp_path, "torus.json", hexagonal_torus(3, 3))
        assert main(["connectivity", torus, "--k", "3", "--quiet"]) == 0
        assert main(["connectivity", torus, "--k", "4", "--quiet"]) == 3
        path = write_structure(tmp_path, "path.json", path_graph(5))
        assert main(["connectivity", path, "--k", "2", "--quiet"]) == 3

    def test_overlap_chain(self, tmp_path):
        nbh = write_structure(
            tmp_path, "nbh.json", neighborhood_hypergraph(hexagonal_torus(3, 3))
        )
        assert main(["zz", nbh, "--dim", "2", "--quiet"]) == 3
        penta = write_structure(tmp_path, "penta.json", pentagon_hypergraph())
        assert main(["zz", penta, "--dim", "1", "--quiet"]) == 0

    def test_reports_carry_verdicts(self, tmp_path):
        torus = write_structure(tmp_path, "torus.json", hexagonal_torus(3, 3))
        report = str(tmp_path / "report.json")
        main(["connectivity", torus, "--k", "3", "--report", report, "--quiet"])
        assert stripped_report(report)["verdict"] == "connected"


class TestRegister:
    def euclidean_scans(self, seed):
        framework = generic_framework(complete_k_hypergraph(7, 4), 2, seed=seed)
        return framework, synthetic_scan_set(
            framework, trust="euclidean", seed=seed + 1
        )

    def test_euclidean_round_trip(self, tmp_path):
        framework, scans = self.euclidean_scans(seed=50)
        src = write_scans(tmp_path, "scans.json", scans)
        out = str(tmp_path / "recovered.json")
        report = str(tmp_path / "report.json")
        code = main(["register", src, "--mode", "euclidean", "-o", out,
                     "--report", report, "--quiet"])
        assert code == 0
        recovered = formats.coordinates_from_document(formats.load_document(out))
        truth = framework.coordinates
        _, _, error = best_fit_euclidean(recovered, truth)
        diameter = np.linalg.norm(truth.max(axis=0) - truth.min(axis=0))
        assert error <= 1e-6 * diameter
        doc = stripped_report(report)
        assert doc["verdict"] == "registered"
        assert doc["corank"] == 3
        assert max(doc["residuals"]["scan_residuals"]) <= 1e-8

    def test_pentagon_scans_not_rigid(self, tmp_path):
        framework = generic_framework(pentagon_hypergraph(), 2, seed=60)
        scans = synthetic_scan_set(framework, trust="affine", seed=61)
        src = write_scans(tmp_path, "scans.json", scans)
        report = str(tmp_path / "report.json")
        code = main(["register", src, "--report", report, "--quiet", "-o",
                     str(tmp_path / "out.json")])
        assert code == 3
        doc = stripped_report(report)
        assert doc["verdict"] == "not-affinely-rigid"
        assert doc["corank"] == 5

    def test_single_full_scan(self, tmp_path):
        rng = np.random.default_rng(62)
        chart = rng.standard_normal((5, 2))
        scans = scan_set_of(5, [(range(5), chart)], "euclidean")
        src = write_scans(tmp_path, "scans.json", scans)
        out = str(tmp_path / "out.json")
        report = str(tmp_path / "report.json")
        code = main(["register", src, "--mode", "euclidean", "-o", out,
                     "--report", report, "--quiet"])
        assert code == 0
        assert stripped_report(report)["residuals"]["length_error"] <= 1e-8

    def test_noisy_scans_with_tight_tolerance(self, tmp_path):
        framework, _ = self.euclidean_scans(seed=70)
        scans = synthetic_scan_set(
            framework, trust="euclidean", seed=71, noise=1e-3
        )
        src = write_scans(tmp_path, "scans.json", scans)
        report = str(tmp_path / "report.json")
        code = main(["register", src, "--mode", "euclidean", "--report", report,
                     "--quiet", "-o", str(tmp_path / "out.json")])
        assert code == 5
        assert stripped_report(report)["verdict"] == "inconsistent"

    def test_loose_tolerance_rescues_noisy_scans(self, tmp_path):
        framework, _ = self.euclidean_scans(seed=72)
        scans = synthetic_scan_set(
            framework, trust="euclidean", seed=73, noise=1e-5
        )
        src = write_scans(tmp_path, "scans.json", scans)
        code = main(["register", src, "--mode", "euclidean", "--tol", "1e-3",
                     "--quiet", "-o", str(tmp_path / "out.json")])
        assert code == 0


class TestExamples:
    def test_hextorus_counts_and_connectivity(self, tmp_path):
        out = str(tmp_path / "torus.json")
        assert main(["examples", "hextorus", "4", "4", "-o", out, "--quiet"]) == 0
        structure = formats.structure_from_document(formats.load_document(out))
        assert structure.vertex_count == 32
        assert is_k_vertex_connected(structure, 3)

    def test_trilateration_with_coordinates(self, tmp_path):
        out = str(tmp_path / "tri.json")
        coords_out = str(tmp_path / "coords.json")
        code = main(["examples", "trilateration", "2", "10", "--seed", "7",
                     "-o", out, "--dim", "2",
                     "--coordinates-output", coords_out, "--quiet"])
        assert code == 0
        coords = formats.coordinates_from_document(
            formats.load_document(coords_out)
        )
        assert coords.shape == (10, 2)

    def test_unknown_example(self):
        assert main(["examples", "moebius", "--quiet", "-o", "-"]) == 2

    def test_bad_parameter_count(self):
        assert main(["examples", "hextorus", "4", "--quiet", "-o", "-"]) == 2
        assert main(["examples", "hextorus", "4", "x", "--quiet", "-o", "-"]) == 2

    def test_fig3_is_pentagon(self, tmp_path):
        out = str(tmp_path / "fig3.json")
        assert main(["examples", "fig3", "-o", out, "--quiet"]) == 0
        doc = formats.load_document(out)
        assert doc["vertex_count"] == 5
        assert len(doc["hyperedges"]) == 5


class TestPlumbing:
    def test_parse_error_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "graph",\n  broken\n}')
        assert main(["transform", str(bad), "body", "-o", "-", "--quiet"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["test", "/nonexistent.json", "--dim", "2"]) == 2
        assert "affrig:" in capsys.readouterr().err

    def test_report_to_stdout_keeps_summary_on_stderr(self, tmp_path, capsys):
        src = write_structure(tmp_path, "penta.json", pentagon_hypergraph())
        main(["test", src, "--dim", "2", "--seed", "1", "--report", "-"])
        captured = capsys.readouterr()
        doc = formats.parse_document(captured.out)
        assert doc["type"] == "report"
        assert "verdict" in captured.err

    def test_quiet_silences_summary(self, tmp_path, capsys):
        src = write_structure(tmp_path, "penta.json", pentagon_hypergraph())
        main(["test", src, "--dim", "2", "--seed", "1", "--quiet"])
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_numbers_beyond_a_double_exit_2_without_traceback(self, tmp_path,
                                                              capsys):
        src = write_structure(tmp_path, "fig1.json", fig1_hypergraph())
        coords = formats.document_from_coordinates(np.zeros((6, 2)))
        coords["coordinates"][3][1] = 10**400
        big = tmp_path / "big.json"
        big.write_text(json.dumps(coords))
        assert main(["test", src, "--dim", "2", "--mode", "framework",
                     "--framework", str(big), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "$.coordinates[3][1]" in err and "Traceback" not in err
        scans = formats.document_from_scan_set(synthetic_scan_set(
            generic_framework(fig1_hypergraph(), 2, seed=1), seed=2))
        scans["scans"][2]["coordinates"][1][0] = -(10**400)
        big.write_text(json.dumps(scans))
        assert main(["register", str(big), "-o", str(tmp_path / "out.json"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "$.scans[2].coordinates[1][0]" in err and "Traceback" not in err

    def test_recursion_error_exits_2_without_traceback(self, tmp_path,
                                                       monkeypatch, capsys):
        def overflow(gamma, k):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "is_k_vertex_connected", overflow)
        src = write_structure(tmp_path, "path.json", path_graph(5))
        assert main(["connectivity", src, "--k", "2", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("affrig: ")
        assert "RecursionError" in err
        assert "Traceback" not in err

    def test_console_entry_point(self, tmp_path):
        src = write_structure(tmp_path, "fig1.json", fig1_hypergraph())
        result = subprocess.run(
            [sys.executable, "-m", "affrig.cli", "transform", src, "body",
             "-o", "-", "--quiet"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["type"] == "graph"

    def test_cli_commands_load_no_scipy(self, tmp_path):
        """zz, both register modes and the framework test import no scipy.

        Importing scipy costs start-up time and memory that none of these
        commands needs. A fresh interpreter is needed, since this one may
        have imported scipy already.
        """
        torus = neighborhood_hypergraph(hexagonal_torus(3, 3))
        quads = complete_k_hypergraph(6, 4)
        framework = generic_framework(torus, 2, seed=3)
        coords = str(tmp_path / "coords.json")
        formats.write_document(
            formats.document_from_coordinates(framework.coordinates), coords)
        nbh = write_structure(tmp_path, "nbh.json", torus)
        affine = write_scans(tmp_path, "affine.json", synthetic_scan_set(
            generic_framework(quads, 2, seed=4), trust="affine", seed=5))
        euclidean = write_scans(tmp_path, "euclidean.json", synthetic_scan_set(
            framework, trust="euclidean", seed=6))
        out = str(tmp_path / "out.json")
        commands = [
            ["zz", write_structure(tmp_path, "quads.json", quads), "--dim", "2"],
            ["register", affine, "--mode", "affine", "-o", out],
            ["register", euclidean, "--mode", "euclidean", "-o", out],
            ["test", nbh, "--dim", "2", "--mode", "framework", "--framework", coords],
        ]
        script = (
            "import sys\n"
            "from affrig.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv + ['--quiet']) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_sparse_framework_test_loads_no_scipy(self, tmp_path):
        """The framework test on N(H(16,16)), v = 512, decides sparsely
        and still imports no scipy: the sparse route is numpy alone."""
        torus = neighborhood_hypergraph(hexagonal_torus(16, 16))
        assert torus.vertex_count == rigidity._SPARSE_MIN_COLUMNS
        coords = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(
            generic_framework(torus, 2, seed=3).coordinates), coords)
        argv = ["test", write_structure(tmp_path, "nbh.json", torus), "--dim", "2",
                "--mode", "framework", "--framework", coords, "--quiet"]
        script = (
            "import sys\n"
            "from affrig import numkernel\n"
            "from affrig.cli import main\n"
            "spectrum, calls = numkernel._sparse_spectrum, []\n"
            "numkernel._sparse_spectrum = lambda *a, **k: calls.append(1) or spectrum(*a, **k)\n"
            f"assert main({argv!r}) == 0\n"
            "print(len(calls), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1 []"

    def test_unsettled_sparse_solver_exits_2(self, tmp_path, monkeypatch, capsys):
        torus = neighborhood_hypergraph(hexagonal_torus(3, 3))
        coords = str(tmp_path / "coords.json")
        formats.write_document(formats.document_from_coordinates(
            generic_framework(torus, 2, seed=3).coordinates), coords)
        monkeypatch.setattr(rigidity, "_SPARSE_MIN_COLUMNS", 0)
        monkeypatch.setattr(numkernel, "_SPARSE_MAX_STEPS", 1)
        argv = ["test", write_structure(tmp_path, "nbh.json", torus), "--dim", "2",
                "--mode", "framework", "--framework", coords, "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("affrig: ") and "did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["framework", "neighborhood", "euclidean"])
    def test_sparse_route_is_deterministic(self, tmp_path, monkeypatch, command):
        """Two runs on the sparse route write the same -o file byte for byte
        and the same report but for its timestamp and timings."""
        monkeypatch.setattr(rigidity, "_SPARSE_MIN_COLUMNS", 0)
        torus = hexagonal_torus(4, 4)
        nbh = neighborhood_hypergraph(torus)
        framework = generic_framework(nbh, 2, seed=7)
        coords = str(tmp_path / "coords.json")
        formats.write_document(
            formats.document_from_coordinates(framework.coordinates), coords)
        argv = {
            "framework": ["test", write_structure(tmp_path, "nbh.json", nbh),
                          "--dim", "2", "--mode", "framework", "--framework", coords],
            "neighborhood": ["test", write_structure(tmp_path, "torus.json", torus),
                             "--dim", "2", "--mode", "neighborhood", "--seed", "5"],
            "euclidean": ["register", write_scans(tmp_path, "scans.json",
                                                  synthetic_scan_set(
                                                      framework, trust="euclidean",
                                                      seed=8)),
                          "--mode", "euclidean"],
        }[command]
        outputs = []
        for run in range(2):
            report = str(tmp_path / f"report{run}.json")
            extra = ["-o", str(tmp_path / f"out{run}.json")] if command == "euclidean" else []
            assert main(argv + extra + ["--quiet", "--report", report]) == 0
            outputs.append(stripped_report(report))
            if extra:
                outputs.append((tmp_path / f"out{run}.json").read_bytes())
        half = len(outputs) // 2
        assert outputs[:half] == outputs[half:]
