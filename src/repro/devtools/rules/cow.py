"""COW-001: frame delivery in the medium must go through the COW seam.

The delivery path hands each receiver a copy-on-write :class:`PacketView`
(or, for protocols that declare ``mutates_in_flight``, a full copy) via
exactly one sanctioned seam: ``WirelessMedium._deliverable_frame`` and its
documented inlined twin in the broadcast fast path.  A bare
``packet.copy()`` sprinkled anywhere else on the medium's delivery path
silently reverts a receiver set to eager deep copies -- the single most
expensive per-frame operation the zero-copy overhaul removed -- and
bypasses the ``cow_frames_ok`` opt-out bookkeeping.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.base import LintRule, ParsedModule
from repro.devtools.findings import SEVERITY_ERROR, Finding
from repro.devtools.registry import LINT_RULES

#: The one module whose delivery path this rule polices.
MEDIUM_MODULE = "sim/medium.py"

#: Functions allowed to spell ``packet.copy()`` / ``packet.view()``: the
#: sanctioned seam itself.
_SANCTIONED_FUNCS = frozenset({"_deliverable_frame"})

#: Receiver spellings that identify a packet object on the delivery path.
_PACKET_NAMES = frozenset({"packet", "frame", "pkt"})


def _is_packet_expr(node: ast.expr) -> bool:
    """True when ``node`` plainly names a packet (``packet``, ``tx.packet``)."""
    if isinstance(node, ast.Name):
        return node.id in _PACKET_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _PACKET_NAMES
    return False


@LINT_RULES.register("COW-001")
class CowDeliverySeamRule(LintRule):
    """``packet.copy()`` in the medium outside ``_deliverable_frame``."""

    severity = SEVERITY_ERROR
    rationale = (
        "per-receiver frame materialisation belongs to the "
        "_deliverable_frame seam; a stray packet.copy() on the delivery "
        "path reverts zero-copy COW views to eager deep copies and skips "
        "the cow_frames_ok opt-out"
    )
    historical_bug = (
        "PR 8: the pre-COW medium deep-copied every broadcast frame per "
        "receiver (2.5M copies in a 6400-vehicle storm), the single "
        "largest cost on the delivery path"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if module.relpath != MEDIUM_MODULE:
            return
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in _SANCTIONED_FUNCS:
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "copy"
                    and _is_packet_expr(node.func.value)
                ):
                    yield self.report(
                        module,
                        node,
                        "packet.copy() on the medium delivery path bypasses "
                        "the copy-on-write seam; route per-receiver frames "
                        "through _deliverable_frame (views for cow_frames_ok "
                        "receivers, copies only for mutates_in_flight "
                        "protocols)",
                    )
