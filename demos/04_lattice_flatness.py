"""LLL reduction and the flatness dichotomy.

Given a ball and a lattice, either a lattice point lies inside the ball, or
there is an integer direction along which the ball is provably thin; the
thin direction is what the solver branches on.  The same LLL, run on a
Gram matrix, asks the question of an ellipsoid in its own metric, where it
is a ball: the solver does this for a definite objective whose level set
lies inside the constraints.
"""

from miqcp import LatticeBasis, flatness, lll_reduce
from miqcp.lattice import ellipsoid_flatness, width_bound_sq
from miqcp.linalg import dot, mat, mat_vec, norm_sq
from miqcp.qp import QpObjective
from miqcp.rational import Rat, rat_str

skew = LatticeBasis(mat([[1, 1000001], [0, 1]]))
reduced, u = lll_reduce(skew)
print("skew basis columns reduced to:")
for row in reduced.b_mat:
    print("  ", [rat_str(v) for v in row])
print("transform U is unimodular:", u.check())
print()

wide = flatness([Rat(1, 2), Rat(1, 2)], Rat(1), LatticeBasis(mat([[1, 0], [0, 1]])))
print("unit lattice, ball radius 1:", wide.tag, [rat_str(v) for v in wide.z])

narrow = flatness([Rat(1, 2)], Rat(1, 4), LatticeBasis(mat([[1]])))
print("unit lattice, ball radius 1/4 at 1/2:", narrow.tag,
      [rat_str(v) for v in narrow.d])
lhs = 4 * Rat(1, 4) ** 2 * norm_sq(narrow.d)
print("width certificate: 4 r^2 |d|^2 =", rat_str(lhs),
      "<=", rat_str(width_bound_sq(1)))
print()

# q(x) = 8 x1^2 + 12 x1 x2 + 5 x2^2 - 2 x1 - 2 x2: its level set {q <= eta}
# is the ellipsoid (x - c)^T H (x - c) <= eta - q(c) about the free
# minimizer c, and flatness is asked of it in H's metric, handed H and its
# shape H^-1, each as ints over a positive scale
obj = QpObjective(mat([[8, 6], [6, 5]]), [Rat(-2), Rat(-2)])
h_int, _, scale = obj.integer_form()
(c_num, c_den), shape, _ = obj.free_minimum()
c = [Rat(v, c_den) for v in c_num]
h_inv = [[Rat(v, shape[1]) for v in row] for row in shape[0]]
print("free minimizer c =", [rat_str(v) for v in c], " q(c) =", rat_str(obj.value(c)))
for eta in (Rat(5), Rat(-1, 8)):
    rho = eta - obj.value(c)
    out = ellipsoid_flatness((h_int, scale), shape, c, rho)
    if out.tag == "lattice_point":
        print(f"eta = {rat_str(eta)}:", out.tag, [rat_str(v) for v in out.z],
              " q =", rat_str(obj.value(out.z)))
    else:
        width_sq = 4 * rho * dot(out.d, mat_vec(h_inv, out.d))
        print(f"eta = {rat_str(eta)}:", out.tag, [rat_str(v) for v in out.d],
              " width^2 =", rat_str(width_sq), "<=", rat_str(width_bound_sq(2)))
