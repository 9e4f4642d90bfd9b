import pytest
import hgcolor.hypergraph
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcolor import (
    BudgetExceededError,
    Coloring,
    Hypergraph,
    HypergraphFormatError,
    InvalidHypergraphError,
    UncoloredVertexError,
    dumps_hypergraph,
    is_proper,
    loads_hypergraph,
    max_edge_degree,
    read_hypergraph,
    uniformity,
    validate,
    write_hypergraph,
)
from hgcolor.hypergraph import SLOT_BUDGET

from conftest import hypergraphs


class TestValidate:
    def test_well_formed(self):
        assert validate(Hypergraph(3, [(0, 1, 2)])) == []

    def test_index_out_of_range(self):
        report = validate(Hypergraph(2, [(0, 5)]))
        assert any("out of range" in v.message for v in report)
        assert all(v.severity == "error" for v in report)

    def test_duplicate_edge_is_warning(self):
        report = validate(Hypergraph(3, [(0, 1), (0, 1)]))
        assert len(report) == 1
        assert report[0].severity == "warning"
        assert "duplicate" in report[0].message

    def test_empty_edge(self):
        report = validate(Hypergraph(3, [()]))
        assert any(v.severity == "error" for v in report)

    def test_repeated_vertex(self):
        report = validate(Hypergraph(3, [(0, 0, 1)]))
        assert any("repeated" in v.message for v in report)

    def test_empty_hypergraph_valid(self):
        assert validate(Hypergraph(0, [])) == []

    def test_require_valid_validates_each_instance_once(self, monkeypatch):
        calls = []

        def counting_validate(h):
            calls.append(h)
            return validate(h)

        monkeypatch.setattr(hgcolor.hypergraph, "validate", counting_validate)
        h = Hypergraph(3, [(0, 1, 2)])
        for _ in range(3):
            h.require_valid()
        assert len(calls) == 1
        bad = Hypergraph(2, [(0, 5)])
        messages = set()
        for _ in range(3):
            with pytest.raises(InvalidHypergraphError, match="out of range") as exc:
                bad.require_valid()
            messages.add(str(exc.value))
        assert len(calls) == 2 and len(messages) == 1


class TestUniformity:
    def test_uniform(self):
        cert = uniformity(Hypergraph(4, [(0, 1, 2), (1, 2, 3)]))
        assert cert is not None and cert.n == 3

    def test_mixed_sizes(self):
        assert uniformity(Hypergraph(3, [(0, 1), (0, 1, 2)])) is None

    def test_no_edges(self):
        assert uniformity(Hypergraph(3, [])) is None

    def test_singletons_rejected(self):
        assert uniformity(Hypergraph(2, [(0,), (1,)])) is None


class TestIsProper:
    def test_proper(self):
        ok, mono = is_proper(Hypergraph(3, [(0, 1, 2)]), Coloring([1, 1, 2], 2))
        assert ok and mono == []

    def test_monochromatic(self):
        ok, mono = is_proper(Hypergraph(3, [(0, 1, 2)]), Coloring([1, 1, 1], 2))
        assert not ok and mono == [0]

    def test_triangle(self, triangle):
        ok, mono = is_proper(triangle, Coloring([1, 2, 1], 2))
        assert not ok and mono == [2]  # edge {0,2}

    def test_partial_coloring_rejected(self, triangle):
        with pytest.raises(UncoloredVertexError):
            is_proper(triangle, Coloring([1, 2], 2))


class TestMaxEdgeDegree:
    def test_disjoint(self):
        assert max_edge_degree(Hypergraph(4, [(0, 1), (2, 3)])) == 0

    def test_triangle(self, triangle):
        assert max_edge_degree(triangle) == 2

    def test_fano(self, fano):
        # brute force: every pair of Fano lines meets
        assert max_edge_degree(fano) == 6

    def test_empty(self):
        assert max_edge_degree(Hypergraph(3, [])) == 0


@given(hypergraphs(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_relabel_invariance(h, rnd):
    perm = list(range(h.vertex_count))
    rnd.shuffle(perm)
    g = h.relabel(perm)
    assert (not any(v.severity == "error" for v in validate(h))) == (
        not any(v.severity == "error" for v in validate(g))
    )
    assert uniformity(h) == uniformity(g)
    assert max_edge_degree(h) == max_edge_degree(g)


@given(hypergraphs(), st.data())
@settings(max_examples=60)
def test_is_proper_monotone_under_edge_deletion(h, data):
    r = data.draw(st.integers(2, 3))
    colors = data.draw(
        st.lists(st.integers(1, r), min_size=h.vertex_count, max_size=h.vertex_count)
    )
    c = Coloring(colors, r)
    ok, _ = is_proper(h, c)
    if ok and h.edge_count:
        drop = data.draw(st.integers(0, h.edge_count - 1))
        g = Hypergraph(h.vertex_count, [e for i, e in enumerate(h.edges) if i != drop])
        assert is_proper(g, c)[0]


class TestTextFormat:
    def test_round_trip(self, fano):
        assert loads_hypergraph(dumps_hypergraph(fano)) == fano

    @given(hypergraphs())
    @settings(max_examples=60)
    def test_round_trip_property(self, h):
        if any(v.severity == "error" for v in validate(h)):
            return
        assert loads_hypergraph(dumps_hypergraph(h)) == h

    def test_exact_bytes(self):
        h = Hypergraph(3, [(2, 0), (1, 2)])
        assert dumps_hypergraph(h) == "3 2\n0 2\n1 2\n"

    def test_comments_skipped(self):
        text = "# a comment\n3 1\n# another\n0 1 2\n"
        assert loads_hypergraph(text) == Hypergraph(3, [(0, 1, 2)])

    def test_bad_token_has_line_number(self):
        with pytest.raises(HypergraphFormatError) as exc:
            loads_hypergraph("3 1\n0 x 2\n")
        assert exc.value.line_no == 2

    def test_edge_count_mismatch_names_the_header_line(self):
        with pytest.raises(HypergraphFormatError, match="header promises 2 edges, found 1") as exc:
            loads_hypergraph("# c\n# d\n3 2\n0 1\n")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize(
        "text, line_no",
        [("\u0665 1\n0\n", 1), ("3 1\n1_0 2\n", 2), ("3 1\n+1 2\n", 2), ("3 1\n0 1\u00a02\n", 2)],
        ids=["arabic-indic-digit", "underscore", "plus-sign", "no-break-space"],
    )
    def test_tokens_are_ascii_decimal(self, text, line_no):
        with pytest.raises(HypergraphFormatError, match="non-integer token") as exc:
            loads_hypergraph(text)
        assert exc.value.line_no == line_no

    def test_negative_values_parse(self):
        """A minus sign is in the grammar, so validation, not the parser,
        rejects negative counts and indices."""
        assert loads_hypergraph("-3 0\n") == Hypergraph(-3, [])
        assert loads_hypergraph("3 1\n0 -1\n").edges == ((-1, 0),)

    def test_edge_count_mismatch(self):
        with pytest.raises(HypergraphFormatError):
            loads_hypergraph("3 2\n0 1 2\n")

    @pytest.mark.parametrize("count", [SLOT_BUDGET + 1, 10**20 - 1])
    def test_header_past_the_slot_budget_is_refused(self, count):
        # refused at the header, before the edge lines are even parsed
        want = f"^line 2: header declares {count} vertices, exceeding budget 10000000 vertex slots$"
        with pytest.raises(BudgetExceededError, match=want):
            loads_hypergraph(f"# huge\n{count} 1\n0 x\n")

    def test_header_at_the_slot_budget_loads(self):
        assert loads_hypergraph(f"{SLOT_BUDGET} 0\n") == Hypergraph(SLOT_BUDGET, [])

    def test_missing_header(self):
        with pytest.raises(HypergraphFormatError):
            loads_hypergraph("# nothing\n")

    def test_file_io(self, tmp_path, fano):
        path = tmp_path / "fano.hg"
        write_hypergraph(fano, str(path))
        assert read_hypergraph(str(path)) == fano

    # a 0xff byte on line 3, and a UTF-16 file (its byte-order mark is 0xff 0xfe)
    NOT_UTF8 = [(b"3 2\n0 1\n\xff 2\n", 3), ("3 1\n0 1 2\n".encode("utf-16"), 1)]

    @pytest.mark.parametrize("data, line_no", NOT_UTF8, ids=["0xff-byte", "utf-16"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, data, line_no):
        path = tmp_path / "bad.hg"
        path.write_bytes(data)
        with pytest.raises(HypergraphFormatError, match="0xff is not UTF-8") as exc:
            read_hypergraph(str(path))
        assert exc.value.line_no == line_no

    def test_file_with_utf8_comment_and_other_line_endings(self, tmp_path):
        """A path is decoded as UTF-8 and still split at CR LF and lone CR."""
        path = tmp_path / "f.hg"
        path.write_bytes("# Fano \u2014 7 lines\r\n3 1\r0 1 2\n".encode("utf-8"))
        assert read_hypergraph(str(path)) == Hypergraph(3, [(0, 1, 2)])
