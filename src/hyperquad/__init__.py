"""Hyperquadratic continued fractions over fields of Laurent series in 1/T.

The package builds algebraic power series satisfying equations of the shape
u*X^(r+1) + v*X^r + w*X + z = 0 with r a power of the field characteristic,
expands them into continued fractions, predicts the full sequence of partial
quotients for the "perfect" family, and explores which irreducible
polynomials occur as factors in an associated rational-function orbit.

Submodules are imported on demand; `from hyperquad import hyper` etc.
"""

__version__ = "0.1.0"
