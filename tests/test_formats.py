"""Document format tests: round trips, validation, error positions."""

import sys

import numpy as np
import pytest

from affrig.families import fig1_hypergraph, fig2_graph, generic_framework
from affrig.formats import (
    FormatError,
    coordinates_from_document,
    document_from_coordinates,
    document_from_scan_set,
    document_from_structure,
    load_document,
    parse_document,
    report_document,
    scan_set_from_document,
    serialize,
    structure_from_document,
    write_document,
)
from affrig.registration import synthetic_scan_set
from test_registration import scans_of

AWKWARD_FLOATS = [0.1, 1.0 / 3.0, 1e-300, 12345.678901234567, -7.25e18]


class TestRoundTrips:
    def test_graph(self):
        doc = document_from_structure(fig2_graph())
        assert parse_document(serialize(doc)) == doc
        assert structure_from_document(doc).edges == fig2_graph().edges

    def test_hypergraph(self):
        doc = document_from_structure(fig1_hypergraph())
        assert parse_document(serialize(doc)) == doc
        recovered = structure_from_document(doc)
        assert set(recovered.hyperedges) == set(fig1_hypergraph().hyperedges)

    def test_framework_floats_survive_exactly(self):
        coords = np.array([AWKWARD_FLOATS, AWKWARD_FLOATS[::-1]]).T
        doc = document_from_coordinates(coords)
        recovered = coordinates_from_document(parse_document(serialize(doc)))
        assert np.array_equal(recovered, coords)

    def test_scan_set(self):
        framework = generic_framework(fig1_hypergraph(), 2, seed=1)
        scans = synthetic_scan_set(framework, trust="euclidean", seed=2)
        doc = document_from_scan_set(scans)
        assert parse_document(serialize(doc)) == doc
        recovered = scan_set_from_document(doc)
        assert recovered.vertex_count == 6
        assert recovered.trust == "euclidean"
        for (members, chart), (their_members, their_chart) in zip(
                scans_of(scans), scans_of(recovered), strict=True):
            assert members == their_members
            assert np.array_equal(chart, their_chart)

    def test_report(self):
        doc = report_document(
            "test", verdict="rigid", corank=3, residuals={"kernel": 1e-12}
        )
        assert parse_document(serialize(doc)) == doc

    def test_file_round_trip(self, tmp_path):
        doc = document_from_structure(fig2_graph())
        path = str(tmp_path / "fig2.json")
        write_document(doc, path)
        assert load_document(path) == doc
        assert not list(tmp_path.glob("*.tmp"))


class TestValidation:
    def test_syntax_error_carries_position(self):
        with pytest.raises(FormatError) as info:
            parse_document('{\n  "type": "graph",\n  oops\n}')
        assert info.value.line == 3
        assert "line 3" in str(info.value)

    def test_unknown_top_level_field(self):
        doc = document_from_structure(fig2_graph())
        doc["weights"] = [1, 2]
        with pytest.raises(FormatError) as info:
            parse_document(serialize(doc))
        assert info.value.path == "$.weights"

    def test_unknown_scan_field(self):
        framework = generic_framework(fig1_hypergraph(), 2, seed=3)
        doc = document_from_scan_set(synthetic_scan_set(framework, seed=4))
        doc["scans"][1]["pose"] = [0, 0]
        with pytest.raises(FormatError) as info:
            parse_document(serialize(doc))
        assert info.value.path == "$.scans[1].pose"

    def test_missing_scan_field(self):
        framework = generic_framework(fig1_hypergraph(), 2, seed=5)
        doc = document_from_scan_set(synthetic_scan_set(framework, seed=6))
        del doc["scans"][0]["coordinates"]
        with pytest.raises(FormatError) as info:
            parse_document(serialize(doc))
        assert info.value.path == "$.scans[0]"

    def test_wrong_version(self):
        doc = document_from_structure(fig2_graph())
        doc["version"] = 2
        with pytest.raises(FormatError) as info:
            parse_document(serialize(doc))
        assert info.value.path == "$.version"

    def test_unknown_type(self):
        with pytest.raises(FormatError):
            parse_document('{"version": 1, "type": "mesh"}')
        with pytest.raises(FormatError):
            parse_document("[1, 2]")

    def test_type_mismatch_between_loaders(self):
        graph_doc = document_from_structure(fig2_graph())
        with pytest.raises(FormatError):
            coordinates_from_document(graph_doc)
        framework_doc = document_from_coordinates(np.zeros((2, 2)))
        with pytest.raises(FormatError):
            structure_from_document(framework_doc)
        with pytest.raises(FormatError):
            scan_set_from_document(graph_doc)

    def test_ragged_coordinates(self):
        doc = document_from_coordinates(np.zeros((3, 2)))
        doc["coordinates"][1] = [0.0]
        with pytest.raises(FormatError) as info:
            coordinates_from_document(doc)
        assert info.value.path == "$.coordinates[1]"

    def test_boolean_is_not_an_integer(self):
        doc = document_from_structure(fig2_graph())
        doc["vertex_count"] = True
        with pytest.raises(FormatError):
            structure_from_document(doc)

    def test_scan_member_point_mismatch(self):
        doc = {
            "version": 1,
            "type": "scanset",
            "dim": 2,
            "trust": "affine",
            "scans": [{"hyperedge": [0, 1, 2], "coordinates": [[0.0, 0.0]]}],
        }
        with pytest.raises(FormatError) as info:
            scan_set_from_document(parse_document(serialize(doc)))
        assert "$.scans[0]" in str(info.value)

    @pytest.mark.parametrize(
        "number",
        ["1e400", "-1e400", "1" + "0" * 400, str(int(sys.float_info.max) + 1)],
        ids=["1e400", "-1e400", "10**400", "rounds-to-max"],
    )
    def test_numbers_beyond_a_double(self, number):
        framework = serialize(document_from_coordinates(np.arange(6.0).reshape(3, 2)))
        doc = parse_document(framework.replace("3.0", number))
        with pytest.raises(FormatError) as info:
            coordinates_from_document(doc)
        assert info.value.path == "$.coordinates[1][1]"
        scans = {
            "version": 1, "type": "scanset", "dim": 2, "trust": "affine",
            "scans": [
                {"hyperedge": [0, 1], "coordinates": [[0.0, 0.0], [2.0, 0.0]]},
                {"hyperedge": [1, 2], "coordinates": [[0.0, 0.0], [1.0, 0.0]]},
            ],
        }
        doc = parse_document(serialize(scans).replace("1.0", number))
        with pytest.raises(FormatError) as info:
            scan_set_from_document(doc)
        assert info.value.path == "$.scans[1].coordinates[1][0]"

    @pytest.mark.parametrize(
        "scans, path",
        [
            # Two scans of one size repeat a member: the first is named.
            ([[[0, 1], [[0, 0], [1, 0]]], [[2, 2], [[0, 0], [1, 0]]],
              [[3, 3], [[0, 0], [1, 0]]]], "$.scans[1].hyperedge"),
            # In one scan, a point's values come before a later point's shape,
            ([[[0, 1, 2], [[0, float("nan")], [1], [2, 2]]]],
             "$.scans[0].coordinates[0][1]"),
            # and a point's shape before a later point's values.
            ([[[0, 1], [[1], [float("inf"), 0]]]], "$.scans[0].coordinates[0]"),
            # A late kind of fault in an early scan comes first.
            ([[[0, 1], [[0, 0], [float("nan"), 0]]], [["a"], [[0, 0]]]],
             "$.scans[0].coordinates[1][0]"),
            ([[[0, 0], [[0, 0], [1, 1]]], [[1, 2], [[0, 0]]]], "$.scans[0].hyperedge"),
            ([[[0, 1], [[0, 0]]], [[1, 1], [[0, 0], [1, 1]]]], "$.scans[0]"),
        ],
    )
    def test_first_fault_of_the_first_faulty_scan(self, scans, path):
        doc = {
            "version": 1, "type": "scanset", "dim": 2, "trust": "affine",
            "scans": [{"hyperedge": h, "coordinates": c} for h, c in scans],
        }
        with pytest.raises(FormatError) as info:
            scan_set_from_document(doc)
        assert info.value.path == path

    def test_vertex_count_inferred_from_labels(self):
        doc = {
            "version": 1,
            "type": "scanset",
            "dim": 2,
            "trust": "affine",
            "scans": [
                {"hyperedge": [0, 4], "coordinates": [[0.0, 0.0], [1.0, 0.0]]}
            ],
        }
        assert scan_set_from_document(doc).vertex_count == 5

    def test_report_schema_is_closed(self):
        with pytest.raises(FormatError):
            report_document("test", flavor="spicy")

    def test_stdout_write(self, capsys):
        doc = document_from_structure(fig2_graph())
        write_document(doc, "-")
        assert parse_document(capsys.readouterr().out) == doc
