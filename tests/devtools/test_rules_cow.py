"""COW-001 fixtures plus the live-medium regression."""

from pathlib import Path

from repro.devtools import lint_sources

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _hits(report, rule_id="COW-001"):
    return [(f.rule_id, f.path, f.line) for f in report.findings if f.rule_id == rule_id]


class TestCowDeliverySeamRule:
    def test_bare_packet_copy_flagged_in_medium(self):
        src = (
            "def _complete(self, transmission):\n"
            "    for receiver in receivers:\n"
            "        receiver.deliver(packet.copy(), transmission.sender_id)\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert _hits(report) == [("COW-001", "sim/medium.py", 3)]

    def test_attribute_packet_copy_flagged(self):
        src = (
            "def _complete(self, transmission):\n"
            "    frame = transmission.packet.copy()\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert _hits(report) == [("COW-001", "sim/medium.py", 2)]

    def test_copy_inside_the_seam_allowed(self):
        src = (
            "def _frame_deliverer(self, transmission):\n"
            "    packet = transmission.packet\n"
            "    view = packet.view\n"
            "    def deliver(node, rx_power_dbm):\n"
            "        node.deliver(\n"
            "            view() if node.cow_frames_ok else packet.copy(),\n"
            "            transmission.sender_id,\n"
            "            rx_power_dbm,\n"
            "        )\n"
            "    return deliver\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert report.clean

    def test_bare_packet_view_flagged_in_medium(self):
        src = (
            "def _complete_vectorized(self, transmission):\n"
            "    for receiver in receivers:\n"
            "        receiver.deliver(packet.view(), transmission.sender_id)\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert _hits(report) == [("COW-001", "sim/medium.py", 3)]

    def test_hoisted_packet_view_flagged_in_medium(self):
        # The inlined fast-loop twin hoisted the bound method out of the loop.
        src = (
            "def _complete_vectorized(self, transmission):\n"
            "    view = transmission.packet.view\n"
            "    for receiver in receivers:\n"
            "        receiver.deliver(view(), transmission.sender_id)\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert _hits(report) == [("COW-001", "sim/medium.py", 2)]

    def test_closure_outside_the_seam_flagged(self):
        src = (
            "def _complete(self, transmission):\n"
            "    def deliver(node):\n"
            "        node.deliver(transmission.packet.view(), 1)\n"
            "    return deliver\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert _hits(report) == [("COW-001", "sim/medium.py", 3)]

    def test_non_packet_copy_allowed(self):
        src = (
            "def _prune(self):\n"
            "    snapshot = self._transmissions.copy()\n"
        )
        report = lint_sources({"sim/medium.py": src}, select=["COW-001"])
        assert report.clean

    def test_other_modules_out_of_scope(self):
        # Protocols legitimately copy packets when forwarding.
        src = (
            "def route_data(self, packet):\n"
            "    self.node.send(packet.copy())\n"
        )
        report = lint_sources({"protocols/flooding.py": src}, select=["COW-001"])
        assert report.clean

    def test_live_medium_is_clean(self):
        """Acceptance criterion: the real medium only copies or views inside
        the seam, and reintroducing a per-receiver copy or view in any
        delivery loop refires the rule."""
        original = (SRC / "sim" / "medium.py").read_text(encoding="utf-8")
        assert "def _frame_deliverer" in original, "seam renamed; update the rule"
        report = lint_sources({"sim/medium.py": original}, select=["COW-001"])
        assert report.clean
        for loop_call, regression in (
            ("deliver(node, rx_power)", "node.deliver(transmission.packet.copy(), 0)"),
            ("deliver(row_nodes[row], rx_power)", "row_nodes[row].deliver(packet.view(), 0)"),
            ("deliver(nodes[node_id], rx_list[j])", "nodes[node_id].deliver(packet.view(), 0)"),
        ):
            assert original.count(loop_call) == 1, loop_call
            regressed = original.replace(loop_call, regression)
            refire = lint_sources({"sim/medium.py": regressed}, select=["COW-001"])
            assert len(refire.findings) == 1
            assert all(f.rule_id == "COW-001" for f in refire.findings)
