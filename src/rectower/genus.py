"""Genus and singularity-measure sequences for the degree-2 tower
y^2 = (x^2+x)/(3x-1), plus the point-count/genus ratio report.

The closed forms are specific to this tower (degree 2, rational base,
arithmetic genus 1 at the second floor): the singular points of the n-th
curve sit over the two chains of its singular graph, and carry a total
singularity measure delta_n = 2^{n-1} - 2^{floor(n/2)}.  Asking for any
other tower raises instead of silently misapplying the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BadIndex, FormulaMismatch
from .p1 import map_parse
from .tgraph import TowerGraph


def delta(n: int) -> int:
    """Measure of singularity of the n-th curve: 2^{n-1} - 2^{floor(n/2)}."""
    if n < 2:
        raise BadIndex(f"delta is defined for n >= 2, got {n}")
    return 2 ** (n - 1) - 2 ** (n // 2)


def genus_closed(n: int) -> int:
    """g_n = 2^n - (2 + n mod 2) * 2^{floor(n/2)} + 1."""
    if n < 1:
        raise BadIndex(f"genus is defined for n >= 1, got {n}")
    return 2 ** n - (2 + n % 2) * 2 ** (n // 2) + 1

def genus_sum(n: int) -> int:
    """The same genus through the arithmetic-genus route:
    g_n = 1 + (n-2) 2^{n-1} - sum_{i=2}^n 2^{n-i} delta_i."""
    if n < 2:
        raise BadIndex(f"the summation form needs n >= 2, got {n}")
    return 1 + (n - 2) * 2 ** (n - 1) - sum(2 ** (n - i) * delta(i) for i in range(2, n + 1))


@dataclass
class GenusReport:
    n: int
    delta: Optional[int]
    genus_closed: int
    genus_sum: Optional[int]  # None at n = 1 where the summation form starts
    n_lower: int
    ratio: Optional[float]

    def __post_init__(self):
        # cross-formula identity: both genus routes must agree
        if self.genus_sum is not None and self.genus_sum != self.genus_closed:
            raise FormulaMismatch(
                f"genus formulas disagree at n={self.n}: "
                f"{self.genus_sum} != {self.genus_closed}")

    @property
    def genus(self) -> int:
        return self.genus_closed

    def to_json_obj(self):
        return {"n": self.n, "delta": self.delta, "genus": self.genus,
                "N_lower": self.n_lower, "ratio": self.ratio}


def _is_fixture_tower(graph: TowerGraph) -> bool:
    from .fixtures import FIXTURES  # imported here: fixtures imports this module
    fx, p = FIXTURES["new-tower"], graph.ctx.p
    return graph.f == map_parse(fx.f_expr, p) and graph.g == map_parse(fx.g_expr, p)


def asymptotic_report(n_max: int, graph: TowerGraph) -> list[GenusReport]:
    """Per-floor table of the splitting-component path counts against the
    genus sequence.  The ratio tends to p-1, for p the characteristic of
    the graph's field, when the regular component has 2(p-1) vertices; the
    graph is expected over the splitting field (degree-2 extension,
    experimentally)."""
    if n_max < 1:
        raise BadIndex(f"the table needs n_max >= 1, got {n_max}")
    if not _is_fixture_tower(graph):
        raise ValueError("genus formulas only apply to the tower y^2 = (x^2+x)/(3x-1)")
    rows, d, tail = [], None, 0  # tail = sum_{i=2}^n 2^{n-i} delta_i, the sum in genus_sum
    for n, n_lower in enumerate(graph.path_counts(n_max - 1, graph.regular_vertices()), start=1):
        g = genus_closed(n)
        if n >= 2:
            d = delta(n)
            tail = 2 * tail + d
        rows.append(GenusReport(
            n=n,
            delta=d,
            genus_closed=g,
            genus_sum=1 + (n - 2) * 2 ** (n - 1) - tail if n >= 2 else None,
            n_lower=n_lower,
            ratio=(n_lower / g) if g else None,
        ))
    return rows
