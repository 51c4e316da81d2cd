import pytest

from qnt.network import validate
from qnt.topo_io import (
    TopologyParseError,
    bundled_topology,
    format_topology,
    parse_topology,
)

VALID = """
# a comment
node A monitor
node B monitor
node C internal
node D monitor

edge E1 A C 0.8 0.8 0.8
edge E2 B C 0.7 0.7 0.7   # trailing comment
edge E3 D C 0.6 0.6 0.6
"""


class TestParse:
    def test_valid_file(self):
        topo = parse_topology(VALID)
        assert set(topo.nodes) == {"A", "B", "C", "D"}
        assert set(topo.edges) == {"E1", "E2", "E3"}
        assert topo.edges["E2"].channel.q_z == 0.7
        assert validate(topo) == []

    def test_bundled_fig1(self):
        topo = bundled_topology("fig1")
        assert len(topo.edges) == 19
        assert sum(1 for n in topo.nodes.values() if n == "monitor") == 8
        assert validate(topo) == []

    def test_empty_file_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_topology("")
        with pytest.raises(TopologyParseError):
            parse_topology("# only a comment\n")

    def test_cp_violation_rejected_with_line(self):
        text = "node A monitor\nnode B monitor\nedge E A B 1.5 0.5 0.5\n"
        with pytest.raises(TopologyParseError) as err:
            parse_topology(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "ends, unknown",
        [("A GHOST", "GHOST"), ("GHOST A", "GHOST"), ("GHOST SPOOK", "GHOST"), ("SPOOK SPOOK", "SPOOK")],
        ids=["node_b", "node_a", "both", "loop-of-unknown"],
    )
    def test_unknown_node_reference(self, ends, unknown):
        text = f"node A monitor\nedge E {ends} 0.5 0.5 0.5\n"
        with pytest.raises(TopologyParseError) as err:
            parse_topology(text)
        assert str(err.value) == f"line 2: unknown node reference {unknown!r}"

    @pytest.mark.parametrize(
        "filler",
        ["# only a comment", "   ", "\t", "  # indented comment", "#", ""],
        ids=["comment", "spaces", "tab", "indented-comment", "bare-hash", "empty"],
    )
    def test_comment_and_blank_lines_are_skipped_but_counted(self, filler):
        text = f"{filler}\nnode A monitor\n{filler}\nnode B monitor\n{filler}\nedge E A B 1.5 0.5 0.5\n"
        with pytest.raises(TopologyParseError) as err:
            parse_topology(text)
        assert str(err.value) == "line 6: invalid channel: q_x = 1.5 outside [-1, 1]"
        topo = parse_topology(text.replace("1.5", "0.5"))
        assert dict(topo.nodes) == {"A": "monitor", "B": "monitor"}
        assert list(topo.edges) == ["E"]

    def test_fields_may_be_separated_by_any_whitespace(self):
        topo = parse_topology("node\tA  monitor\r\n node B monitor \nedge E A\tB 0.5 0.5 0.5#c\n")
        assert dict(topo.nodes) == {"A": "monitor", "B": "monitor"}
        assert topo.edges["E"].channel.q == (0.5, 0.5, 0.5)

    def test_duplicate_edge(self):
        text = (
            "node A monitor\nnode B monitor\nnode C internal\n"
            "edge E A C 0.5 0.5 0.5\nedge E B C 0.5 0.5 0.5\n"
        )
        with pytest.raises(TopologyParseError) as err:
            parse_topology(text)
        assert err.value.line_no == 5
        assert str(err.value) == "line 5: duplicate edge id 'E'"

    @pytest.mark.parametrize(
        "line, message",
        [("edge E A B x y z", "non-numeric channel parameters ['x', 'y', 'z']"),
         ("edge E A B 0.5 0.5 half", "non-numeric channel parameters ['0.5', '0.5', 'half']"),
         ("edge E A B 0.5 0.5", "expected: edge <id> <nodeA> <nodeB> <q_x> <q_y> <q_z>"),
         ("edge E A B 1 1 -1", "invalid channel: complete positivity violated: p_z = -0.5 < 0 for q = (1.0, 1.0, -1.0)"),
         ("node C", "expected: node <id> monitor|internal"),
         ("node C relay", "unknown node kind 'relay'"),
         ("node A internal", "duplicate node id 'A'"),
         ("wire A B", "unknown declaration 'wire'")],
        ids=["non-numeric", "one-non-numeric", "short-edge", "cp", "short-node", "kind", "duplicate-node",
             "declaration"],
    )
    def test_malformed_line_messages(self, line, message):
        with pytest.raises(TopologyParseError) as err:
            parse_topology(f"node A monitor\nnode B monitor\n{line}\n")
        assert str(err.value) == f"line 3: {message}"

    def test_malformed_line(self):
        with pytest.raises(TopologyParseError):
            parse_topology("node A\n")
        with pytest.raises(TopologyParseError):
            parse_topology("node A monitor\nwire A A\n")
        with pytest.raises(TopologyParseError):
            parse_topology("node A monitor\nnode B monitor\nedge E A B x y z\n")


class TestRoundTrips:
    def test_text_round_trip(self):
        topo = parse_topology(VALID)
        again = parse_topology(format_topology(topo))
        assert set(again.edges) == set(topo.edges)
        for edge_id, edge in topo.edges.items():
            assert again.edges[edge_id].channel.q == edge.channel.q
            assert again.edges[edge_id].endpoints == edge.endpoints
