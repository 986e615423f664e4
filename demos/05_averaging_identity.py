# The averaging identity for cyclic actions on rational vector spaces.
#
# For a generator g of Z_n acting on a finite-dimensional space, the
# norm N = 1 + g + .. + g^(n-1) and the difference B = 1 - g satisfy
# N B = B N = 0 and ker N = im B.  This is the linear-algebra engine
# behind descending invariant morphisms to the quotient.

import random
from fractions import Fraction

from fmlattice import (
    CyclicRep,
    Matrix,
    descend_invariant,
    difference_operator,
    norm_operator,
    random_rep,
    verify_ker_im,
)

# The regular representation of Z_3: the norm is the all-ones matrix,
# and its kernel (dimension 2) is exactly the image of 1 - g.
cycle3 = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
rep = CyclicRep(3, 3, cycle3)
print("norm of the regular rep of Z_3:")
print(norm_operator(rep))
print("report:", verify_ker_im(rep))

# The identity is not special to permutations: random rational
# conjugates of block representations all satisfy it exactly.
rng = random.Random(1)
for _ in range(3):
    r = random_rep(rng, max_order=12, max_dim=8)
    print(f"order {r.order}, dim {r.dim}:", verify_ker_im(r))

# Descending an invariant morphism.  Take Z_2 swapping two coordinates,
# V the g-stable line spanned by (1,-1), and s = (1,0).  Then
# B s = (1,-1) lies in V, and the construction returns the invariant
# representative t = s - k with k in V:
rep2 = CyclicRep(2, 2, Matrix([[0, 1], [1, 0]]))
t = descend_invariant(rep2, [(1, -1)], (1, 0))
print()
print("invariant representative of (1,0) mod span{(1,-1)}:", t)
assert t == (Fraction(1, 2), Fraction(1, 2))

# The representative is always the cyclic average (1/n) N s.  With V
# the whole space every invariant vector would do, and the average of
# s = (3,-5) over its orbit {(3,-5), (-5,3)} is (-1,-1).
t = descend_invariant(rep2, [(1, 0), (0, 1)], (3, -5))
print("invariant representative mod the whole space:", t)
assert t == (-1, -1)
