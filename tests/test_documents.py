"""JSON document parsing, validation, and serialization."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings

from simplat import close_under_faces
from simplat.documents import (MAX_AMBIENT_DIM, MAX_SAFE_INT,
                               complex_to_document, document_to_json,
                               load_complex, parse_document, read_document)
from simplat.errors import InputError, ParseError, ValidationError

from helpers import (L_SHAPE_DOC, NOT_UTF8, UNIT_SQUARE_DOC, UNREADABLE,
                     moved_generated_complexes)

TRIANGLE_DOC = {
    "ambient_dim": 2,
    "vertices": [[0, 0], [1, 0], [0, 1]],
    "maximal_simplices": [[0, 1, 2]],
}


class TestParse:
    def test_valid_document(self):
        doc = parse_document(TRIANGLE_DOC)
        assert doc.ambient_dim == 2
        assert doc.vertices == ((0, 0), (1, 0), (0, 1))
        assert doc.maximal_simplices == ((0, 1, 2),)

    def test_accepts_json_text(self):
        doc = parse_document(json.dumps(TRIANGLE_DOC))
        assert doc == parse_document(TRIANGLE_DOC)

    def test_rejects_extra_key(self):
        with pytest.raises(ParseError):
            parse_document({**TRIANGLE_DOC, "name": "t"})

    def test_rejects_missing_key(self):
        for key in TRIANGLE_DOC:
            broken = {k: v for k, v in TRIANGLE_DOC.items() if k != key}
            with pytest.raises(ParseError):
                parse_document(broken)

    def test_rejects_bad_types(self):
        bad_docs = [
            {**TRIANGLE_DOC, "ambient_dim": "2"},
            {**TRIANGLE_DOC, "ambient_dim": 2.0},
            {**TRIANGLE_DOC, "vertices": "nope"},
            {**TRIANGLE_DOC, "vertices": [[0, 0], [1, 0], [0, 0.5]]},
            {**TRIANGLE_DOC, "vertices": [[0, 0], [1, 0], [0, True]]},
            {**TRIANGLE_DOC, "maximal_simplices": [[0, 1, "2"]]},
            {**TRIANGLE_DOC, "maximal_simplices": [0, 1, 2]},
            {**TRIANGLE_DOC, "maximal_simplices": [[]]},
            [TRIANGLE_DOC],
        ]
        for doc in bad_docs:
            with pytest.raises(ParseError):
                parse_document(doc)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ParseError):
            parse_document({**TRIANGLE_DOC, "ambient_dim": 0})
        with pytest.raises(ParseError):
            parse_document({"ambient_dim": MAX_AMBIENT_DIM + 1,
                            "vertices": [[0] * (MAX_AMBIENT_DIM + 1)],
                            "maximal_simplices": [[0]]})
        with pytest.raises(ParseError):
            parse_document({**TRIANGLE_DOC,
                            "vertices": [[0, 0], [1, 0], [0, MAX_SAFE_INT + 1]]})

    def test_rejects_vertex_width_mismatch(self):
        with pytest.raises(ParseError):
            parse_document({**TRIANGLE_DOC, "vertices": [[0, 0], [1], [0, 1]]})

    def test_rejects_bad_index(self):
        with pytest.raises(ParseError):
            parse_document({**TRIANGLE_DOC, "maximal_simplices": [[0, 1, 5]]})

    def test_rejects_repeated_key(self):
        # json.loads alone keeps the last of two equal keys, which would read
        # this document as the edge [0, 1]; a nested object is held to it too
        text = json.dumps(TRIANGLE_DOC)[:-1] + ', "maximal_simplices": [[0, 1]]}'
        for source in (text, text.encode()):
            with pytest.raises(ParseError) as info:
                parse_document(source)
            assert str(info.value) == "document repeats the key 'maximal_simplices'"
        with pytest.raises(ParseError, match="repeats the key 'a'"):
            parse_document(json.dumps(TRIANGLE_DOC)[:-1] + ', "x": {"a": 1, "a": 2}}')

    def test_rejects_malformed_json_text(self):
        with pytest.raises(ParseError) as info:
            parse_document("{not json")
        assert str(info.value) == ("invalid JSON: Expecting property name enclosed "
                                   "in double quotes: line 1 column 2 (char 1)")

    def test_huge_int_is_named_by_its_digits(self):
        big = 10**5000
        cases = [
            ({**TRIANGLE_DOC, "vertices": [[0, 0], [1, -big], [0, 1]]},
             "vertex 1 coordinate a negative integer of 5001 digits exceeds "
             "the JSON-safe integer range"),
            ({**TRIANGLE_DOC, "vertices": [[0, 0], [1, big, 0], [0, 1]]},
             "vertex 1 must be a list of 2 coordinates, got a list holding an "
             "integer too long to print"),
            ({**TRIANGLE_DOC, "ambient_dim": big},
             "ambient_dim must be an integer in [1, 6], got an integer of 5001 digits"),
            ({**TRIANGLE_DOC, "maximal_simplices": [[0, 1, big]]},
             "maximal simplex 0 has a bad vertex index an integer of 5001 digits"),
        ]
        for doc, message in cases:
            with pytest.raises(ParseError) as info:
                parse_document(doc)
            assert str(info.value) == message


class TestUnreadable:
    @pytest.mark.parametrize("name", UNREADABLE)
    def test_parse_error_names_the_reason(self, name, tmp_path):
        data, reason = UNREADABLE[name]
        sources = [data]
        if name != "not_utf8":
            sources.append(data.decode())
        for source in sources:
            with pytest.raises(ParseError, match="^unreadable JSON: .*" + re.escape(reason)):
                parse_document(source)
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="^unreadable JSON: .*" + re.escape(reason)):
            read_document(path)


class TestNotUtf8:
    @pytest.mark.parametrize("name", NOT_UTF8)
    def test_bytes_and_file_get_one_verdict(self, name, tmp_path):
        data, codec, message = NOT_UTF8[name]
        assert parse_document(data.decode(codec)) == parse_document(UNIT_SQUARE_DOC)
        with pytest.raises(ParseError, match="^" + re.escape(message)) as parsed:
            parse_document(data)
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as read:
            read_document(path)
        assert str(read.value) == str(parsed.value)


class TestLoad:
    def test_square(self):
        c = load_complex(UNIT_SQUARE_DOC)
        assert c.f_vector() == (4, 5, 2)

    def test_geometric_failure_is_validation_error(self):
        doc = {
            "ambient_dim": 2,
            "vertices": [[0, 0], [2, 0], [0, 2], [1, 1]],
            "maximal_simplices": [[0, 1, 2], [0, 1, 3]],
        }
        with pytest.raises(ValidationError) as exc:
            load_complex(doc)
        assert "common face" in str(exc.value)

    def test_duplicate_vertex_rejected(self):
        doc = {
            "ambient_dim": 1,
            "vertices": [[0], [0]],
            "maximal_simplices": [[0], [1]],
        }
        with pytest.raises(ValidationError):
            load_complex(doc)


class TestFiles:
    def test_read_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(L_SHAPE_DOC))
        doc = read_document(path)
        assert doc.vertices == tuple(tuple(v) for v in L_SHAPE_DOC["vertices"])

    def test_missing_file(self):
        with pytest.raises(InputError):
            read_document("/definitely/not/here.json")

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("]")
        with pytest.raises(ParseError):
            read_document(path)


class TestSerialize:
    def test_roundtrip_preserves_vertices_and_canonicalizes_faces(self):
        doc = {
            "ambient_dim": 2,
            "vertices": [[1, 1], [0, 0], [1, 0]],
            "maximal_simplices": [[2, 0, 1]],
        }
        c = load_complex(doc)
        back = complex_to_document(c)
        assert back.vertices == ((1, 1), (0, 0), (1, 0))
        assert back.maximal_simplices == ((0, 1, 2),)

    def test_reload_is_stable(self):
        c = load_complex(L_SHAPE_DOC)
        doc = complex_to_document(c)
        again = complex_to_document(load_complex(doc.as_dict()))
        assert doc == again

    def test_json_shape(self):
        text = document_to_json(complex_to_document(load_complex(TRIANGLE_DOC)))
        assert text.endswith("\n")
        assert json.loads(text) == TRIANGLE_DOC
        # keys sorted, two-space indent: stable bytes for diffing
        assert text.splitlines()[1] == '  "ambient_dim": 2,'

    def test_unsafe_coordinates_refused_on_write(self):
        c = close_under_faces([[0, 1]], [(0,), (MAX_SAFE_INT + 1,)])
        with pytest.raises(ParseError):
            complex_to_document(c).as_dict()


class TestRoundTrip:
    @given(moved_generated_complexes())
    @settings(max_examples=60, deadline=None)
    def test_load_inverts_serialize(self, c):
        text = document_to_json(complex_to_document(c))
        assert load_complex(text) == c
        assert document_to_json(parse_document(text)) == text
