"""The fixed solver-vs-oracle corpus: 60 instances, n <= 6, p <= 3, box
radius <= 5, covering infeasible, unbounded, degenerate/low-dimensional,
tangency-structured, and generic cases.

Instances are built deterministically (seeded RNG); every bounded instance
carries its box inside the constraint system, so the declared box promise
holds by construction.
"""

import random

from miqcp.linalg import mat, mat_mul, transpose
from miqcp.polyhedra import Polyhedron
from miqcp.qp import QpObjective
from miqcp.rational import Rat
from miqcp.solver import MicqpInstance

from test_polyhedra import box


def _boxed_instance(n, p, radius, extra_rows, extra_rhs, h_rows, h_vec, name):
    poly = box([-radius] * n, [radius] * n, p=p)
    if extra_rows:
        poly = poly.with_rows(mat(extra_rows), [Rat(v) for v in extra_rhs])
    obj = QpObjective(mat(h_rows), [Rat(v) for v in h_vec])
    box_decl = ([Rat(-radius)] * n, [Rat(radius)] * n)
    return name, MicqpInstance(obj, poly, box_decl)


def _raw_instance(rows, rhs, p, h_rows, h_vec, radius, name):
    n = len(rows[0]) if rows else len(h_vec)
    poly = Polyhedron(mat(rows) if rows else [], [Rat(v) for v in rhs], p, n=n)
    obj = QpObjective(mat(h_rows), [Rat(v) for v in h_vec])
    box_decl = ([Rat(-radius)] * n, [Rat(radius)] * n)
    return name, MicqpInstance(obj, poly, box_decl)


def _psd(rng, n, lo=-2, hi=2):
    k = rng.randint(1, n)
    l_mat = [[Rat(rng.randint(lo, hi)) for _ in range(n)] for _ in range(k)]
    return mat_mul(transpose(l_mat), l_mat)


def handcrafted():
    out = []
    # --- infeasible ---
    out.append(_raw_instance([[1], [-1]], [0, -1], 1, [[1]], [0], 5, "inf_lp_empty"))
    out.append(_raw_instance([[1], [-1]], ["1/2", "-1/2"], 1, [[1]], [0], 5,
                             "inf_fractional_pin"))
    out.append(_raw_instance([[1], [-1]], ["2/3", "-1/3"], 1, [[1]], [1], 5,
                             "inf_open_gap"))
    out.append(_boxed_instance(2, 2, 4, [[1, 1], [-1, -1]], ["2/3", "-1/3"],
                               [[1, 0], [0, 1]], [0, 0], "inf_diag_gap"))
    out.append(_boxed_instance(2, 2, 4, [[2, 2], [-2, -2]], [3, -3],
                               [[1, 0], [0, 1]], [0, 0], "inf_parity"))
    out.append(_boxed_instance(3, 3, 2, [[2, 2, 2], [-2, -2, -2]], [3, -3],
                               [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0],
                               "inf_parity_p3"))
    out.append(_raw_instance([[1, 0], [-1, 0], [0, -1]], [0, -1, 5], 1,
                             [[0, 0], [0, 0]], [0, -1], 5,
                             "inf_with_ray_present"))
    # --- unbounded ---
    out.append(_raw_instance([[0, -1]], [0], 1, [[0, 0], [0, 0]], [0, -1], 5,
                             "unb_linear"))
    out.append(_raw_instance([[0, -1], [1, 0], [-1, 0]], [0, 2, 2], 1,
                             [[1, 0], [0, 0]], [0, -1], 5, "unb_quadratic_null_ray"))
    out.append(_raw_instance([[-1, 0], [0, -1]], [0, 0], 2,
                             [[0, 0], [0, 0]], [-1, -1], 5, "unb_pure_linear_p2"))
    out.append(_raw_instance([[0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
                             [0, 3, 3, 3, 3], 2,
                             [[1, 1, 0], [1, 1, 0], [0, 0, 0]], [0, 0, -1], 5,
                             "unb_singular_h_p2"))
    # --- degenerate / low-dimensional ---
    out.append(_boxed_instance(2, 2, 4, [[2, 1], [-2, -1]], [1, -1],
                               [[1, 0], [0, 1]], [0, 0], "deg_line_p2"))
    out.append(_boxed_instance(2, 2, 4,
                               [[1, 0], [-1, 0], [0, 1], [0, -1]], [2, -2, 3, -3],
                               [[2, 1], [1, 2]], [1, -1], "deg_point"))
    out.append(_boxed_instance(2, 1, 4, [[0, 1], [0, -1]], ["1/2", "-1/2"],
                               [[1, 1], [1, 1]], [0, 0], "deg_frac_continuous_pin"))
    out.append(_boxed_instance(3, 2, 3, [[1, 1, 1], [-1, -1, -1]], [0, 0],
                               [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 0, 0],
                               "deg_plane_p2"))
    out.append(_boxed_instance(3, 3, 2, [[1, 1, 1], [-1, -1, -1]], [0, 0],
                               [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 0, 0],
                               "deg_plane_p3"))
    out.append(_boxed_instance(2, 1, 4, [[1, 0], [-1, 0]], [3, -3],
                               [[1, 0], [0, 1]], [0, "-1/3"], "deg_integer_pin"))
    # --- tangency-structured (optimum on a face, singular H directions) ---
    out.append(_raw_instance([[-1, 0], [0, 1], [0, -1], [1, 0]], [-1, 5, 5, 5], 2,
                             [[1, 0], [0, 0]], [0, 0], 5, "tan_face_min_p2"))
    out.append(_boxed_instance(2, 1, 4, [[-1, -1]], [-1],
                               [[1, 1], [1, 1]], [0, 0], "tan_singular_ridge"))
    out.append(_boxed_instance(2, 2, 3, [[-1, 0]], [-1],
                               [[1, 0], [0, 0]], [-2, 1], "tan_grad_face"))
    # --- continuous and mixed ---
    out.append(_boxed_instance(2, 0, 4, [], [], [[1, 0], [0, 1]], [-1, -1],
                               "cont_pure_qp"))
    out.append(_raw_instance([[-1]], [0], 0, [[0]], [-1], 5, "cont_unbounded_p0"))
    out.append(_boxed_instance(1, 1, 3, [], [], [[1]], [-3], "int_parabola_13"))
    out.append(_boxed_instance(1, 1, 5, [], [], [[2]], [-5], "int_parabola_offcenter"))
    return out


def lifted_halfpoint():
    rows = [[0, 0, 1], [0, 0, -1]]
    rhs = ["1/2", "-1/2"]
    poly = box([-2, -2, -2], [2, 2, 2], p=1).with_rows(mat(rows), [Rat(v) for v in rhs])
    obj = QpObjective(mat([[1, 0, -1], [0, 1, 0], [-1, 0, 1]]), [Rat(0)] * 3)
    return "halfpoint_lifted", MicqpInstance(
        obj, poly, ([Rat(-5)] * 3, [Rat(5)] * 3)
    )


def generic(rng_seed=2024, count=35):
    rng = random.Random(rng_seed)
    out = []
    idx = 0
    while len(out) < count:
        idx += 1
        p = rng.choice([1, 1, 2, 2, 2, 3])
        n = min(6, p + rng.randint(0, 3))
        radius = rng.randint(2, 5) if p <= 2 else 2
        h_mat = _psd(rng, n)
        h_vec = [Rat(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
        extra_rows, extra_rhs = [], []
        for _ in range(rng.randint(0, 2)):
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            if all(v == 0 for v in row):
                continue
            extra_rows.append(row)
            extra_rhs.append(Rat(rng.randint(-1, 2 * radius), rng.choice([1, 2, 3])))
        if rng.random() < 0.25 and n >= 2:
            # seeded equality through a mixed-integer point: keeps it feasible
            point = [Rat(rng.randint(-radius + 1, radius - 1)) for _ in range(p)] + [
                Rat(rng.randint(-radius + 1, radius - 1), 2) for _ in range(n - p)
            ]
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            if any(v != 0 for v in row):
                b = sum(a * c for a, c in zip(row, point))
                extra_rows.extend([row, [-v for v in row]])
                extra_rhs.extend([b, -b])
        name, inst = _boxed_instance(
            n, p, radius, extra_rows, extra_rhs, h_mat, h_vec, f"gen_{idx:02d}"
        )
        out.append((name, inst))
    return out


def corpus():
    all_instances = handcrafted() + [lifted_halfpoint()] + generic()
    assert len(all_instances) == 60, f"corpus has {len(all_instances)} instances"
    names = [name for name, _ in all_instances]
    assert len(set(names)) == len(names)
    return all_instances
