"""Exact computation of the magnitude of odd-dimensional Euclidean balls.

The magnitude of the n-ball of radius R (n odd) is a rational function of R.
This package computes it exactly, by three independent routes built on
reverse Bessel polynomials and fraction-free Hankel-determinant linear
algebra, assembles and verifies the ball's potential function, and mechanizes
the identities and conjectures relating all of these at desk scale.

The package itself exports nothing: import each name from the module that
defines it (`oddball.errors`, `.poly`, `.explaurent`, `.bessel`, `.hankel`,
`.potential`, `.magnitude`, `.golden` or `.cli`), e.g.
`from oddball.hankel import hankel_det`.
"""
