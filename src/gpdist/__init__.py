"""Geometric-phase distributions for open quantum systems.

gpdist evolves small open quantum systems, removes the dynamic phase from
their conditional paths and builds the weighted Z atoms that carry both
candidate geometric-phase distributions (P_Z and P_H), with their moments,
a second-order weak-coupling formula and closed-form two-level models.
Import each name from its module, e.g. ``from gpdist.models import
se_distribution``; the package itself binds only ``__version__``.
"""

__version__ = "0.20.1"
