"""
Where a Z-matrix sits: M, N, N0, F0 and the band index
======================================================

Everything below runs on exact rationals, so each minor sign is a fact and
not a numerical guess.  The class predicates and the top three bands cost
one elimination plus tests on submatrices; only l_index and classify below
band n-2 sweep every principal minor, which is capped at order 12 by default.
"""

from fractions import Fraction

from zmx import (
    Matrix,
    classify,
    inverse,
    is_m,
    is_n,
    is_nonsingular_m,
    l_index,
    perron_r,
    type_d,
    type_d_verify,
    z_decompose,
)

# A Z-matrix is t*I - B with B nonnegative; any t at least the top diagonal
# entry gives such a split.
A = Matrix([[1, -1], [-2, 3]])
rep = z_decompose(A, 3)
print("A = 3*I - B with B =")
print(rep.b)

# Climbing the taxonomy with one family: a_ij = a_min(i,j) for increasing
# parameters.  The count of nonpositive parameters drives the class of the
# inverse from nonsingular M all the way down to F0.
for params in [(1, 2, 3, 4), (-4, -3, -2, -1), (-2, -1, 1, 2), (-3, -2, -1, 1)]:
    a = type_d(params)
    b = inverse(a)
    rpt = classify(b)
    print(f"\nparams {params}: inverse is Z: {rpt.is_z}, l_index = {rpt.l_index}")
    print(f"  nonsingular M: {rpt.is_nonsingular_m}  N: {rpt.is_n}"
          f"  N0: {rpt.is_n0}  F0: {rpt.is_f0}")
    v = type_d_verify(params)
    print(f"  tridiagonal: {v.tridiagonal}  (band index again: {v.l_index_of_inverse})")

# The band index counts how deep the nonnegative minors reach: the identity
# is all the way M, one negative diagonal entry kills even the order-1 minors.
print("\nl_index(I_5) =", l_index(Matrix.identity(5)))
print("l_index([[-3]]) =", l_index(Matrix([[-3]])))

# Shifting t*I - B through the critical value: the matrix is nonsingular M
# above the largest principal spectral radius, merely M at it (within tol),
# and loses minors below.  perron_r brackets that threshold exactly.
B = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) + Matrix.identity(3)
tol = Fraction(1, 10**9)
rho = perron_r(B, 3, tol)
print("\nB =")
print(B)
print("rho bracket: (", rho - tol, ",", rho, "]  ~", float(rho))
for t in (rho + 1, rho + tol, rho - tol):
    s = t * Matrix.identity(3) - B
    print(f"t = rho{'+1' if t == rho + 1 else '+tol' if t > rho else '-tol'}:"
          f"  nonsingular M: {is_nonsingular_m(s)}  weak M: {is_m(s)}"
          f"  N: {is_n(s)}")
