"""fatoulab: a numerical laboratory for boundaries of unbounded Fatou components.

Orbit/grid classification of a closed catalog of entire maps, inverse-branch
pullback machinery with hyperbolic-metric contraction audits, boundary
periodic points and access curves, Blaschke-product circle dynamics, and
walk-on-spheres harmonic-measure estimation.
"""
