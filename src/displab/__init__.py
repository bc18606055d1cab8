"""displab: a finite-volume spectral laboratory for random displacement models.

The package discretizes -Delta + p + sum_gamma q(x - gamma - lam omega_gamma)
on periodic boxes, analyzes its Floquet fibers at constant displacement,
certifies the structural hypotheses behind band-edge localization proofs
(unique corner minimizer, quadratic growth, spectral gap per coupling,
radial density regularity), builds signed lattice comparison operators that
pinch the full operator from both sides, and drives Monte-Carlo studies of
the integrated density of states, its band-edge tail, and eigenvalue
proximity statistics.
"""

__version__ = "0.1.0"
