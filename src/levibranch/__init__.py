"""Exact branching from classical simple Lie algebras to Levi subalgebras.

The package decides equality of induced characters through finite
M-functions, finds the Weyl-group diagram automorphism relating equal
pairs, and scans bounded weight boxes for counterexamples.
"""

from .branching import (BranchingRow, MFunction, branch_by_restriction,
                        branch_multiplicity, branch_row, build_m, leading_term)
from .equivalence import (PairVerdict, classify_pair, dominant_box,
                          induced_equal, relating_automorphism, search_box)
from .rootsys import (LeviDatum, RootDatum, Weight, WeightError,
                      build_levi, build_root_system)
from .typea_lr import (Partition, SignedSplit, lr_coefficient, multi_lr,
                       polarisation_branch, split_signed)
from .weightpoly import PartitionTable, WeightPolynomial, weyl_character
from .weylgrp import (WeylElement, diagram_automorphisms,
                      dominant_representative, transversal, weyl_group)

__version__ = "0.1.0"

__all__ = [
    "BranchingRow", "LeviDatum", "MFunction", "PairVerdict", "Partition",
    "PartitionTable", "RootDatum", "SignedSplit", "Weight", "WeightError",
    "WeightPolynomial", "WeylElement", "branch_by_restriction",
    "branch_multiplicity", "branch_row", "build_levi", "build_m",
    "build_root_system", "classify_pair", "diagram_automorphisms",
    "dominant_box", "dominant_representative",
    "induced_equal", "leading_term", "lr_coefficient", "multi_lr",
    "polarisation_branch", "relating_automorphism", "search_box",
    "split_signed", "transversal", "weyl_character", "weyl_group",
]
