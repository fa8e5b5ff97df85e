"""Solvers and preconditioners for multiple saddle-point systems.

Block-tridiagonal operators with SPSD diagonal blocks admit a block-diagonal
Schur-complement preconditioner whose preconditioned condition number is
bounded by closed-form constants depending only on the number of blocks.
This package certifies those bounds numerically, provides preconditioned
MINRES, and reproduces the iteration-count experiments for B-spline
discretized PDE-constrained optimal control problems.  Its API is its
modules: `from msp import saddle`.
"""
