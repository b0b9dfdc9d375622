"""The Java API subsystem: the subset of JDK natives the benchmarks use.

Hyperion compiles ordinary API classes with its java2c translator and only
implements natives by hand (paper Table 1, "we use Sun's JDK 1.1").  The
benchmarks need a handful of them: ``System.arraycopy``, the ``java.lang.Math``
entry points, ``System.currentTimeMillis`` and console output.  Each native
charges a realistic CPU cost to the calling thread.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.util.validation import check_non_negative

#: cycle costs of the Math natives on the paper-era x86 FPUs
_MATH_CYCLES: dict[str, float] = {
    "sqrt": 35.0,
    "sin": 60.0,
    "cos": 60.0,
    "tan": 80.0,
    "exp": 70.0,
    "log": 70.0,
    "pow": 90.0,
    "atan": 70.0,
    "abs": 2.0,
    "floor": 4.0,
    "ceil": 4.0,
}

_MATH_FUNCTIONS: dict[str, Callable[..., float]] = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "pow": math.pow,
    "atan": math.atan,
    "abs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
}


class JavaApiSubsystem:
    """Native-method implementations, charging costs through a thread context."""

    #: cycles charged per element copied by System.arraycopy (on top of the
    #: get/put accounting done by the memory subsystem)
    ARRAYCOPY_CYCLES_PER_ELEMENT = 1.5

    #: cycles charged for one System.out.println call (formatting + syscall)
    PRINTLN_CYCLES = 4000.0

    def __init__(self):
        self.console: list[str] = []
        self.natives_called: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self.natives_called[name] = self.natives_called.get(name, 0) + 1

    # ------------------------------------------------------------------
    def arraycopy(self, ctx, src, src_pos: int, dst, dst_pos: int, length: int) -> None:
        """``System.arraycopy``: element-wise copy between Java arrays."""
        check_non_negative("length", length)
        self._count("System.arraycopy")
        if length == 0:
            return
        values = ctx.aget_range(src, src_pos, src_pos + length)
        ctx.aput_range(dst, dst_pos, dst_pos + length, values)
        ctx.compute(cycles=self.ARRAYCOPY_CYCLES_PER_ELEMENT * length)

    def math(self, ctx, name: str, *args) -> float:
        """``java.lang.Math`` natives (sqrt, sin, cos, ...)."""
        try:
            cycles = _MATH_CYCLES[name]
            fn = _MATH_FUNCTIONS[name]
        except KeyError:
            known = ", ".join(sorted(_MATH_CYCLES))
            raise KeyError(f"unsupported Math native {name!r}; known: {known}") from None
        self._count(f"Math.{name}")
        ctx.compute(cycles=cycles)
        return fn(*args)

    def current_time_millis(self, ctx) -> int:
        """``System.currentTimeMillis`` in *virtual* time."""
        self._count("System.currentTimeMillis")
        ctx.compute(cycles=200.0)
        return int(ctx.now * 1000.0)

    def println(self, ctx, message: str) -> None:
        """``System.out.println``: captured in :attr:`console`."""
        self._count("System.out.println")
        ctx.compute(cycles=self.PRINTLN_CYCLES)
        self.console.append(str(message))
