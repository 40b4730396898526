"""Sandwiching a projected convex quadratic set between concentric balls.

After normalizing by the grown simplex's edge matrix, the projection onto
the leading p coordinates contains B(a, r) and fits inside B(a, R), with
r = 1/(p + ceil_sqrt(p)) and R = 2 ceil_sqrt(p).  The ratio never exceeds
4 ceil_sqrt(p)^3 regardless of how thin the original set is.
"""

from miqcp import ConvexQuadraticSet, Polyhedron, QpObjective, ceil_sqrt, sandwich
from miqcp.linalg import mat, mat_vec, norm_sq, vec_sub
from miqcp.rational import Rat, rat_str

# A lopsided box with an inactive quadratic, projected to its first 2 coords.
rows = mat([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
            [1, 1, 0]])
rhs = [Rat(v) for v in (4, 1, 1, 1, 2, 2, 4)]
poly = Polyhedron(rows, rhs, p=2)
q = ConvexQuadraticSet(
    poly, QpObjective(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [Rat(0)] * 3), Rat(60)
)

res = sandwich(q)
print("p = 2:   r =", rat_str(res.r), "  R =", rat_str(res.big_r),
      "  R/r =", rat_str(res.big_r / res.r), " <= ", 4 * ceil_sqrt(2) ** 3)
print("center a =", [rat_str(v) for v in res.a])
print("grown simplex vertices (projected):")
for v in res.simplex.vertices:
    print("  ", [rat_str(c) for c in v])

print()
print("outer ball absorbs every integer point of the set:")
for x1 in range(-1, 5):
    for x2 in range(-1, 2):
        x = [Rat(x1), Rat(x2), Rat(0)]
        if q.contains(x):
            z = mat_vec(res.b_mat, x[:2])
            inside = norm_sq(vec_sub(z, res.a)) <= res.big_r ** 2
            print(f"  ({x1:+d}, {x2:+d}) -> |Bx - a|^2 = "
                  f"{rat_str(norm_sq(vec_sub(z, res.a)))} <= R^2: {inside}")
