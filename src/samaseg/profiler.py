"""Multiply-accumulate counting and the parameter/FLOPs report.

Counting is op-level: `Linear`, `conv2d` and `ConvTranspose2d` (each once
per forward, not in the conv kernels they share), matmul, the two attention
cores and the selective scan report their exact MAC counts as they execute,
attributed to the innermost active scope. A forward pass under
``count_macs()`` therefore yields analytic per-layer counts without a
separate shape-walking model. GFLOPs are 2x MACs, as the report header says.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


class _MacCounter:
    def __init__(self):
        self.active = False
        self.scope_stack: list[str] = []
        self.by_scope: dict[str, int] = {}

    def reset(self):
        self.scope_stack = []
        self.by_scope = {}

    @property
    def total(self) -> int:
        return sum(self.by_scope.values())


_counter = _MacCounter()


def record_macs(n: int):
    if _counter.active:
        scope = "/".join(_counter.scope_stack) if _counter.scope_stack else ""
        _counter.by_scope[scope] = _counter.by_scope.get(scope, 0) + int(n)


@contextmanager
def count_macs():
    """Enable MAC counting; yields the counter with per-scope totals."""
    _counter.reset()
    _counter.active = True
    try:
        yield _counter
    finally:
        _counter.active = False


@contextmanager
def mac_scope(name: str):
    _counter.scope_stack.append(name)
    try:
        yield
    finally:
        _counter.scope_stack.pop()


@dataclass
class FlopsReport:
    """Per-scope parameter and MAC counts for one forward pass."""

    rows: list[tuple[str, int, int]] = field(default_factory=list)  # (name, params, macs)

    @property
    def total_params(self) -> int:
        return sum(r[1] for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r[2] for r in self.rows)

    @property
    def total_gflops(self) -> float:
        return 2.0 * self.total_macs / 1e9

    def format(self) -> str:
        lines = ["# FLOPs counted as 2 x MACs (1 multiply-accumulate = 2 FLOPs)"]
        lines.append(f"{'layer':<40} {'params':>12} {'MACs':>15}")
        for name, params, macs in self.rows:
            lines.append(f"{name:<40} {params:>12} {macs:>15}")
        lines.append(f"{'TOTAL':<40} {self.total_params:>12} {self.total_macs:>15}")
        lines.append(f"total GFLOPs: {self.total_gflops:.6f}")
        return "\n".join(lines)


def build_report(module, forward_fn) -> FlopsReport:
    """Profile one forward pass of `module`.

    `forward_fn` runs the forward; MAC scopes entered during it define the
    report rows. Parameters are attributed to rows by name prefix, so scope
    names must mirror the module's parameter-name prefixes. Parameters whose
    prefix matches no scope are gathered into a residual row, keeping the
    report total equal to the exact stored-scalar count.
    """
    with count_macs() as counter:
        forward_fn()
    named = list(module.named_parameters())
    scopes = sorted(counter.by_scope)
    rows = []
    claimed = set()
    for scope in scopes:
        prefix = scope.replace("/", ".")
        p = 0
        for name, t in named:
            if name == prefix or name.startswith(prefix + "."):
                if name not in claimed:
                    p += t.size
                    claimed.add(name)
        rows.append((scope, p, counter.by_scope[scope]))
    rest = sum(t.size for name, t in named if name not in claimed)
    if rest:
        rows.append(("(other parameters)", rest, 0))
    return FlopsReport(rows=rows)
