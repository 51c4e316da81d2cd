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

    def test_unknown_node_reference(self):
        text = "node A monitor\nedge E A GHOST 0.5 0.5 0.5\n"
        with pytest.raises(TopologyParseError) as err:
            parse_topology(text)
        assert "GHOST" in str(err.value)

    def test_duplicate_edge(self):
        text = (
            "node A monitor\nnode B monitor\nnode C internal\n"
            "edge E A C 0.5 0.5 0.5\nedge E B C 0.5 0.5 0.5\n"
        )
        with pytest.raises(TopologyParseError) as err:
            parse_topology(text)
        assert err.value.line_no == 5
        assert str(err.value) == "line 5: duplicate edge id 'E'"

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
