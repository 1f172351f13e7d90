"""COW-001: frame delivery in the medium must go through the COW seam.

Every delivery loop of the medium hands its receivers to one per-frame
deliverer, ``WirelessMedium._frame_deliverer``.  For an unclaimed frame it
gives each receiver a copy-on-write :class:`PacketView` (or, for protocols
that declare ``mutates_in_flight``, a full copy); a claimed frame gets no
per-receiver packet at all.  That function, closures included, is the one
sanctioned seam.  A bare ``packet.copy()`` anywhere else in the medium
silently reverts a receiver set to eager deep copies -- the single most
expensive per-frame operation the zero-copy overhaul removed -- and
bypasses the ``cow_frames_ok`` opt-out bookkeeping; a stray
``packet.view()`` (or a hoisted ``view = packet.view``) builds views the
claimed-frame path exists to skip.
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
#: sanctioned seam itself (with any function nested inside it).
_SANCTIONED_FUNCS = frozenset({"_frame_deliverer"})

#: Packet methods that materialise a per-receiver frame.
_FRAME_METHODS = frozenset({"copy", "view"})

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
    """``packet.copy``/``packet.view`` in the medium outside ``_frame_deliverer``."""

    severity = SEVERITY_ERROR
    rationale = (
        "per-receiver frame materialisation belongs to the "
        "_frame_deliverer seam; a stray packet.copy() on the delivery "
        "path reverts zero-copy COW views to eager deep copies and skips "
        "the cow_frames_ok opt-out, and a stray packet.view() builds the "
        "views claimed frames skip"
    )
    historical_bug = (
        "PR 8: the pre-COW medium deep-copied every broadcast frame per "
        "receiver (2.5M copies in a 6400-vehicle storm), the single "
        "largest cost on the delivery path"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if module.relpath != MEDIUM_MODULE:
            return
        sanctioned = {
            id(node)
            for func in ast.walk(module.tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name in _SANCTIONED_FUNCS
            for node in ast.walk(func)
        }
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _FRAME_METHODS
                and _is_packet_expr(node.value)
                and id(node) not in sanctioned
            ):
                yield self.report(
                    module,
                    node,
                    f"packet.{node.attr} on the medium delivery path bypasses "
                    "the copy-on-write seam; route per-receiver frames "
                    "through _frame_deliverer (views for cow_frames_ok "
                    "receivers, copies only for mutates_in_flight "
                    "protocols, nothing for claimed frames)",
                )
