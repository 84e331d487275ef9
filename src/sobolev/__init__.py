"""Sobolev-Slobodeckij norms on boxes and compact manifolds.

Exact rational admissibility checks for the classical embedding,
multiplication, differentiation, extension and composition results,
plus numerical norms via midpoint quadrature: Lebesgue norms, the
singular Gagliardo double integral, chart/partition-of-unity norms on
built-in manifolds, connection norms, and local differential operators.

Submodules: ``exponents``, ``funcexpr``, ``fields``, ``quadrature``,
``atlas``, ``geometry``, ``manifold_norms``, ``operators``, ``cli``.
"""

__version__ = "0.1.0"


class ArgumentError(ValueError):
    """A caller's argument that the library refuses before computing
    anything: an exponent, order, grid, box, expression text, route or
    atlas descriptor outside what the called routine takes.  The CLI
    exits 2 on it and 3 on every other error."""


class Report(dict):
    """A JSON report, ``{"schema": "v1", "kind": kind, **fields}`` in
    output order, whose fields also read as attributes (``rep.value``).
    A norm report also has ``rep.estimate`` (``quadrature.Estimate``) and
    ``rep.coarse``, its value at N // 2: attributes, not in the JSON."""

    def __init__(self, kind: str, **fields):
        super().__init__(schema="v1", kind=kind, **fields)

    @property
    def coarse(self) -> float:
        return self.estimate.coarse

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None
