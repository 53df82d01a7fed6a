"""Incompressible Navier-Stokes: residual operator, exact solution
library, symmetry verification, Reynolds ensembles and closure
screening."""
