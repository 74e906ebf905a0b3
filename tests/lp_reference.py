"""Reference LP route to minimum-expansion edge subsets, for the tests.

The paper gets an exact minimum-expansion subset from the LP relaxation

    minimize sum(x_v)  subject to  sum(y_e) = 1,  x_v >= y_e for v in e,  x, y >= 0

followed by derandomized threshold rounding.  The package computes the same
subsets by parametric min-cut (``hyperdense.expansion``); acceptance criterion 2
and the scipy HiGHS cross-check use this module to show the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from hyperdense.core import Hypergraph, union_of
from hyperdense.expansion import (
    EmptyHypergraphError,
    ExpansionCertificate,
    expansion_certificate,
    min_expansion_flow,
)


class InfeasibleSolutionError(ValueError):
    """A supplied fractional solution violates the LP constraints beyond tolerance."""


FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class ExpansionLP:
    """Solver-agnostic LP: minimize sum(x_i) s.t. sum(y_e) = 1, x_i >= y_e, vars >= 0.

    Variables are x0..x{n-1} (one per vertex) and y0..y{m-1} (one per edge);
    the incidence list carries one (edge, vertex) pair per covering constraint.
    """

    num_vertices: int
    num_edges: int
    incidence: tuple[tuple[int, int], ...]

    @property
    def num_variables(self) -> int:
        return self.num_vertices + self.num_edges

    def lp_text(self) -> str:
        """Export in LP file syntax for cross-validation with external solvers."""
        lines = ["Minimize"]
        obj = " + ".join(f"x{i}" for i in range(self.num_vertices))
        lines.append(f" obj: {obj}")
        lines.append("Subject To")
        mass = " + ".join(f"y{e}" for e in range(self.num_edges))
        lines.append(f" mass: {mass} = 1")
        for e, v in self.incidence:
            lines.append(f" cov_e{e}_v{v}: x{v} - y{e} >= 0")
        lines.append("End")
        return "\n".join(lines) + "\n"


def build_expansion_lp(h: Hypergraph) -> ExpansionLP:
    if h.m == 0:
        raise EmptyHypergraphError("expansion needs at least one edge")
    incidence = tuple((e, v) for e, edge in enumerate(h.edges) for v in edge)
    return ExpansionLP(h.n, h.m, incidence)


def lp_solution_from_certificate(
    h: Hypergraph, cert: ExpansionCertificate
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact feasible LP solution spreading unit edge mass over the certificate.

    When the certificate is optimal this solution is LP-optimal: its objective
    equals |Gamma(E')| / |E'|, the inverse of the certificate ratio.
    """
    share = Fraction(1, len(cert.edge_indices))
    chosen = set(cert.edge_indices)
    nb = set(cert.neighborhood)
    y = tuple(share if e in chosen else Fraction(0) for e in range(h.m))
    x = tuple(share if v in nb else Fraction(0) for v in range(h.n))
    return x, y


def optimal_expansion_lp_solution(
    h: Hypergraph,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Optimal LP solution produced by the flow path (the production route)."""
    return lp_solution_from_certificate(h, min_expansion_flow(h))


def round_expansion_lp(
    h: Hypergraph, x: Sequence[float | Fraction], y: Sequence[float | Fraction]
) -> ExpansionCertificate:
    """Derandomized threshold rounding of a feasible fractional solution.

    Tries every distinct threshold r among the edge values, forms
    E' = {e : y_e >= r}, and keeps the candidate with the maximum exact ratio.
    On any feasible input the returned ratio is at least 1 / (LP objective).
    """
    if h.m == 0:
        raise EmptyHypergraphError("expansion needs at least one edge")
    if len(x) != h.n or len(y) != h.m:
        raise ValueError("solution vectors must have one entry per vertex and edge")
    xs = [max(v, 0) for v in x]
    ys = [max(v, 0) for v in y]
    if abs(sum(ys) - 1) > FEASIBILITY_TOL:
        raise InfeasibleSolutionError("edge mass must sum to 1")
    for e, edge in enumerate(h.edges):
        for v in edge:
            if xs[v] < ys[e] - FEASIBILITY_TOL:
                raise InfeasibleSolutionError(
                    f"vertex value x[{v}] below edge value y[{e}]"
                )
    best: tuple[int, int, list[int]] | None = None
    for r in sorted(set(ys), reverse=True):
        chosen = [e for e in range(h.m) if ys[e] >= r]
        if not chosen:
            continue
        nb = union_of(h, chosen)
        num, den = len(chosen), len(nb)
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, chosen)
    if best is None:
        raise InfeasibleSolutionError("no threshold selected a nonempty edge set")
    return expansion_certificate(h, best[2])
