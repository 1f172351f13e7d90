"""BITX-001: dBm<->mW conversions must stay on the libm bit-exactness path.

The vectorized spatial backend's contract is *byte-identical* traces with
the grid backend.  ``np.power`` and ``np.log10`` take SIMD paths whose
last ulp differs from libm ``pow`` / ``log10`` on a few percent of inputs
(documented in :mod:`repro.radio.interference` and
:mod:`repro.radio.propagation`), which is exactly enough to flip a
marginal SINR decision and fork a trace.  The sanctioned spellings are
``np.float_power`` (per-element libm ``pow``) and element-wise
``math.log10`` loops; scalar conversions route through
``repro.radio.interference.dbm_to_mw`` / ``mw_to_dbm``, the one module
allowed to spell the ``10 ** (x / 10)`` conversion inline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.astutils import dotted_name
from repro.devtools.base import LintRule, ParsedModule
from repro.devtools.findings import SEVERITY_ERROR, Finding
from repro.devtools.registry import LINT_RULES

#: The module that owns the canonical scalar dBm<->mW helpers.
CONVERSION_HELPER_MODULE = "radio/interference.py"

#: numpy functions whose SIMD last-ulp drift breaks trace byte-equality.
_SIMD_DRIFT_FUNCS = frozenset({"numpy.power", "numpy.log10"})


def _is_ten(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (10, 10.0)


@LINT_RULES.register("BITX-001")
class BitExactConversionRule(LintRule):
    """``np.power`` / ``np.log10`` / inline ``10 ** (x / 10)`` conversions."""

    severity = SEVERITY_ERROR
    rationale = (
        "np.power/np.log10 SIMD paths drift a last ulp from libm; use "
        "np.float_power / elementwise math.log10 and the dbm_to_mw helpers "
        "so vectorized and scalar traces stay byte-identical"
    )
    historical_bug = (
        "PR 6: np.power in the vectorized interference fold flipped marginal "
        "SINR decisions vs the scalar libm path, forking otherwise identical "
        "traces"
    )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                qualified = dotted_name(node.func, module.imports)
                if qualified in _SIMD_DRIFT_FUNCS:
                    func = qualified.split(".", 1)[1]
                    replacement = (
                        "np.float_power"
                        if func == "power"
                        else "an elementwise math.log10 loop "
                        "(see radio/propagation._log10_elementwise)"
                    )
                    yield self.report(
                        module,
                        node,
                        f"numpy.{func} takes a SIMD path whose last ulp "
                        f"differs from libm, breaking trace byte-equality "
                        f"between spatial backends; use {replacement}",
                    )
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and _is_ten(node.left)
                and module.relpath != CONVERSION_HELPER_MODULE
            ):
                exponent = node.right
                if (
                    isinstance(exponent, ast.BinOp)
                    and isinstance(exponent.op, ast.Div)
                    and _is_ten(exponent.right)
                ):
                    yield self.report(
                        module,
                        node,
                        "inline 10 ** (x / 10) dBm->mW conversion bypasses the "
                        "documented libm policy; call "
                        "repro.radio.interference.dbm_to_mw (or the "
                        "np.float_power batch helpers) instead",
                    )
