"""Exact computations with decorated rooted trees and edge-vertex maps.

Modules:

* ``lincomb``     -- sparse rational linear combinations
* ``intern``      -- weak intern tables: one object per distinct value
* ``decorations`` -- edge and vertex label kinds and their bases
* ``trees``       -- decorated trees, planted trees, forests
* ``ratmat``      -- small exact-rational matrix helpers
* ``phimaps``     -- maps on label pairs, compatibility, block normal forms
* ``prelie``      -- grafting products and the edge-product operator
* ``hopf``        -- cut coproduct, deformed forest product, dual pairing
* ``postlie``     -- generator actions on an extended space and their axioms
* ``spde``        -- the multi-index maps and their noise extension
* ``parsing``     -- text forms of labels, trees, forests, combinations
* ``mapfiles``    -- JSON descriptions of maps and generator actions
* ``verify``      -- the cross-cutting property battery
* ``cli``         -- the ``rtcalc`` command
"""

from .lincomb import Fraction, LinComb, lc_sum
from .trees import EMPTY_FOREST, DecoratedTree, Forest, PlantedTree, forest, leaf, node

__version__ = "0.1.0"

__all__ = [
    "DecoratedTree",
    "EMPTY_FOREST",
    "Forest",
    "Fraction",
    "LinComb",
    "PlantedTree",
    "forest",
    "lc_sum",
    "leaf",
    "node",
    "__version__",
]
