"""Walkthrough: normal forms, commutators, and the limit bracket.

A rank-2 instance with two generator pairs: q_1 = eta1, q_2 = eta2 and
lam_12 = eta1.  Every product is straightened into the ordered basis
y1^a x1^b y2^c x2^d exactly; commutators are divisible by (t - 1) and
their exact limits recover the Poisson bracket of the commutative limit.

Run:  python demos/02_normal_forms_and_limits.py
"""

from qweyl import (
    WeylElement,
    WeylParams,
    gamma1,
    pb_bracket,
    semiclassical_bracket,
    wa_commutator,
    wa_z,
)

print(__doc__)

params = WeylParams.from_coordinate_matrices(
    2, 2,
    [[1, 0], [0, 1]],                       # s_1, s_2
    [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]],  # L_12 = (1, 0)
)
y1 = WeylElement.generator(params, "y", 1)
x1 = WeylElement.generator(params, "x", 1)
y2 = WeylElement.generator(params, "y", 2)
x2 = WeylElement.generator(params, "x", 2)

print("x1 * y1          =", x1 * y1)
print("x2 * y1          =", x2 * y1)
print("x2 * x1          =", x2 * x1)
print("(x1*y1)*y2       =", (x1 * y1) * y2)
print()

# The z family is central in a graded sense: z_i commute with each other
# and conjugate the generators by a parameter monomial.
z1, z2 = wa_z(params, 1), wa_z(params, 2)
print("z1               =", z1)
print("z2               =", z2)
print("[z1, z2]         =", wa_commutator(z1, z2))
print()

c = wa_commutator(x1, y1)
print("[x1, y1]         =", c)
print("divisible by (t-1):", not gamma1(c))
print()

# Two independent routes to the same Poisson bracket: the exact limit of
# the commutator, and the closed-form biderivation on the limits.
print("gamma1(x1*y1)    =", gamma1(x1 * y1))
s = semiclassical_bracket(x1, y1)
print("limit of [x1,y1]/(t-1) =", s)
table = pb_bracket(gamma1(x1), gamma1(y1))
print("table bracket            =", table)
print("routes agree:", s == table)

a = (x1 + y2) * (x2 + 1)
b = y1 * x2 + z2
assert pb_bracket(gamma1(a), gamma1(b)) == semiclassical_bracket(a, b)
print("...and they agree on composite elements too.")
