"""Exact-arithmetic twisted-conjugacy analysis of nilpotent surface-group quotients.

The package decides, entirely over the integers, at which nilpotency
class the quotients of a surface group acquire the R-infinity property
(every automorphism has infinitely many twisted conjugacy classes): 4
for any orientable genus >= 2, and 2g for the non-orientable surface of
genus g+1 with g >= 2.  See the README for the library tour.
"""

from .errors import ResourceLimitError
from .intlinalg import (IntMatrix, IntPoly, SmithDecomposition, charpoly,
                        dominance_root_test, kfold_product_spectrum,
                        kfold_value_at_one, smith_normal_form)
from .freelie import (GradedQuotient, HallWord, InducedTower, StructureTable,
                      ShapeCharacter, build_hall_basis, ideal_quotient,
                      induced_tower, metabelian_truncation, orientable_relator,
                      witt_dimension)
from .nilpotent import (FreeNilpotentGroup, MalcevElement,
                        PowerPolynomialTable, build_power_table,
                        free_nilpotent_group, free_rank_certificate,
                        nth_root, padding_exponent, power_padding)
from .analysis import (RinfVerdict, SurfaceSpec, admissibility,
                       nonorientable_witness, omega, orientable_witness,
                       rinf_degree, sample_admissible,
                       solvability_quotient_check, surface_character)
from .oracle import (FiniteTwistedSetup, abelian_reidemeister_count,
                     brute_force_twisted_classes, spectrum_crosscheck)

__all__ = [name for name in dir() if not name.startswith("_")]
