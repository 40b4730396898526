import json
import os
import subprocess
import sys

import pytest

from miqcp.cli import main, parse_instance, run
from miqcp.errors import InstanceParseError
from miqcp.rational import Rat

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def fixture_data(name):
    with open(fixture(name)) as f:
        return json.load(f)


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL = {
    "n": 1,
    "p": 1,
    "W": [[1], [-1]],
    "w": [1, 0],
    "objective": {"H": [[1]], "h": [0]},
    "box": {"lo": [-5], "hi": [5]},
}


def test_parse_minimal_valid():
    parsed = parse_instance(json.dumps(MINIMAL))
    assert parsed.micqp.poly.n == 1
    assert parsed.micqp.poly.p == 1
    assert parsed.quad is None


def test_parse_rejects_asymmetric_h():
    bad = dict(MINIMAL, n=2, p=1, W=[[1, 0]], w=[1],
               objective={"H": [[1, 2], [0, 1]], "h": [0, 0]},
               box={"lo": [-5, -5], "hi": [5, 5]})
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(json.dumps(bad))
    assert "symmetric" in str(exc.value)


def test_parse_rejects_zero_denominator():
    bad = dict(MINIMAL, w=["1/0", 0])
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(json.dumps(bad))
    assert "w[0]" in str(exc.value)


def test_parse_rejects_floats():
    bad = dict(MINIMAL, w=[0.5, 0])
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(json.dumps(bad))
    assert "float" in str(exc.value)


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("n", 1.7, "n"),
        ("n", "1", "n"),
        ("n", True, "n"),
        ("p", 1.0, "p"),
        ("p", None, "p"),
        ("w", ["1e3", 0], "w[0]"),
        ("w", [1, "1.5"], "w[1]"),
        ("w", [" 3 ", 0], "w[0]"),
        ("w", [True, 0], "w[0]"),
        ("w", ["1/-2", 0], "w[0]"),
        ("w", ["+1", 0], "w[0]"),
    ],
)
def test_parse_rejects_inexact_or_mistyped(tmp_path, field, value, path):
    bad = dict(MINIMAL, **{field: value})
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(json.dumps(bad))
    assert exc.value.path == path
    code, payload = run("solve", write_instance(tmp_path, bad))
    assert code == 2
    assert payload["error"].startswith(f"{path}: ")


def test_parse_rejects_non_psd():
    bad = dict(MINIMAL, objective={"H": [[-1]], "h": [0]})
    with pytest.raises(InstanceParseError) as exc:
        parse_instance(json.dumps(bad))
    assert "PSD" in str(exc.value)
    assert exc.value.path == "objective.H"


def test_parse_rejects_dimension_mismatch():
    bad = dict(MINIMAL, w=[1])
    with pytest.raises(InstanceParseError):
        parse_instance(json.dumps(bad))


def test_solve_halfpoint_fixture():
    code, payload = run("solve", fixture("halfpoint.json"))
    assert code == 0
    assert payload["status"] == "optimal"
    assert payload["value"] == "1/4"
    assert payload["certificates"]["value_reproduced"] is True
    assert payload["certificates"]["feasible"] is True
    assert payload["x"][0] in ("0", "1")


def test_oracle_matches_solve_on_fixture():
    _, a = run("solve", fixture("halfpoint.json"))
    _, b = run("oracle", fixture("halfpoint.json"))
    assert a["status"] == b["status"] == "optimal"
    assert a["value"] == b["value"]


def test_feasible_fractional_gap_fixture():
    code, payload = run("feasible", fixture("fractional_gap.json"))
    assert code == 0
    assert payload == {"status": "infeasible"}


def test_ginv_fixture():
    code, payload = run("ginv", fixture("ginv_row.json"))
    assert code == 0
    assert payload["Asharp"] == [["1"], ["0"]]
    assert payload["rank"] == 1
    assert all(payload["checks"].values())


def test_flatness_command(tmp_path):
    path = write_instance(tmp_path, {"B": [[1]], "a": ["1/2"], "r": "1/4"})
    code, payload = run("flatness", path)
    assert code == 0
    assert payload["outcome"] == "thin_direction"

    path2 = write_instance(tmp_path, {"B": [[1]], "a": ["2/5"], "r": "3/5"})
    code, payload = run("flatness", path2)
    assert code == 0
    assert payload == {"outcome": "lattice_point", "z": ["0"]}

    # p = 0: the empty basis's one lattice point lies in every ball
    path3 = write_instance(tmp_path, {"B": [], "a": [], "r": 1})
    code, payload = run("flatness", path3)
    assert code == 0
    assert payload == {"outcome": "lattice_point", "z": []}


def test_bounded_command(tmp_path):
    unbounded = {
        "n": 2,
        "p": 1,
        "W": [[0, -1]],
        "w": [0],
        "objective": {"H": [[0, 0], [0, 0]], "h": [0, -1]},
        "box": {"lo": [-5, -5], "hi": [5, 5]},
    }
    path = write_instance(tmp_path, unbounded)
    code, payload = run("bounded", path)
    assert code == 0
    assert payload["status"] == "unbounded"
    assert "ray" in payload and "point" in payload

    code, payload = run("bounded", fixture("halfpoint.json"))
    assert code == 0
    assert payload == {"status": "bounded"}


def test_sandwich_command(tmp_path):
    inst = {
        "n": 2,
        "p": 1,
        "W": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "w": [1, 0, 1, 0],
        "objective": {"H": [[1, 0], [0, 1]], "h": [0, 0]},
        "quad_constraint": {"H": [[1, 0], [0, 1]], "h": [0, 0], "eta": 10},
        "box": {"lo": [-5, -5], "hi": [5, 5]},
    }
    path = write_instance(tmp_path, inst)
    code, payload = run("sandwich", path)
    assert code == 0
    assert payload["r"] == "1/2"
    assert payload["R"] == "2"


def test_sandwich_payload_is_pinned(tmp_path):
    # a bounded p = 2 set with a coupled quadratic: B and a are read from
    # the grown simplex, and they and the simplex stay these exact values
    inst = {
        "n": 3,
        "p": 2,
        "W": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "w": [3, 1, "5/2", 0, 1, 1],
        "objective": {"H": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "h": [0, 0, 0]},
        "quad_constraint": {"H": [[2, 1, 0], [1, 3, 1], [0, 1, 1]], "h": [-1, "1/3", 0], "eta": 7},
    }
    code, payload = run("sandwich", write_instance(tmp_path, inst))
    assert code == 0
    assert json.dumps(payload) == (
        '{"B": [["0", "4/5"], ["-2/5", "-19/25"]], "a": ["1/4", "-2/5"], '
        '"r": "1/4", "R": "4", "simplex_vertices": [["13/8", "0"], ["-3/4", "5/4"], ["-7/8", "0"]]}')


def test_reduce_fulldim_roundtrip(tmp_path):
    inst = {
        "n": 2,
        "p": 1,
        "W": [[2, 1], [-2, -1], [1, 0], [-1, 0], [0, 1], [0, -1]],
        "w": [1, -1, 10, 10, 10, 10],
        "objective": {"H": [[1, 0], [0, 1]], "h": [0, 0]},
        "box": {"lo": [-10, -10], "hi": [10, 10]},
    }
    path = write_instance(tmp_path, inst)
    code, payload = run("reduce-fulldim", path)
    assert code == 0
    assert payload["status"] == "reduced"
    assert payload["tau"]["p_prime"] == 1
    assert payload["tau"]["n_prime"] == 1
    # round-trip: the emitted reduced instance re-parses as it is, and the
    # offset beside tau restores the objective: f(tau(x')) = f'(x') + offset
    reduced = payload["instance"]
    reparsed = parse_instance(json.dumps(reduced)).micqp
    assert reparsed.poly.n == payload["tau"]["n_prime"]
    offset = Rat(payload["objective_offset"])
    original = parse_instance(json.dumps(inst)).micqp
    xbar = [Rat(v) for v in payload["tau"]["xbar"]]
    m_mat = [[Rat(v) for v in row] for row in payload["tau"]["M"]]
    for xp in ([Rat(0)], [Rat(3)], [Rat(-7, 2)]):
        x = [xb + sum(r * v for r, v in zip(row, xp)) for xb, row in zip(xbar, m_mat)]
        assert original.obj.value(x) == reparsed.obj.value(xp) + offset
    emitted_again = run("reduce-fulldim", str(write_instance(tmp_path, reduced, "re.json")))
    assert emitted_again[0] == 0


def test_empty_reduction_status(tmp_path):
    inst = {
        "n": 1,
        "p": 1,
        "W": [[1], [-1]],
        "w": ["1/2", "-1/2"],
        "objective": {"H": [[1]], "h": [0]},
        "box": {"lo": [-5], "hi": [5]},
    }
    path = write_instance(tmp_path, inst)
    code, payload = run("reduce-fulldim", path)
    assert code == 0
    assert payload == {"status": "empty"}


@pytest.mark.parametrize("command", ["ginv", "flatness"])
@pytest.mark.parametrize("text", ["[1, 2]", "3", "null", "\"A\"", "{"])
def test_matrix_commands_need_a_top_level_object(tmp_path, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, payload = run(command, str(path))
    assert code == 2
    assert payload["error"].startswith("$: ")


def test_ginv_rejects_a_matrix_without_columns(tmp_path):
    path = write_instance(tmp_path, {"A": [[]]})
    code, payload = run("ginv", path)
    assert code == 2
    assert payload["error"].startswith("A: ")


@pytest.mark.parametrize(
    "command, payload, path",
    [
        ("solve", dict(MINIMAL, Box={"lo": [-5], "hi": [5]}), "Box"),
        ("solve", dict(MINIMAL, objective={"H": [[1]], "hh": [0]}), "objective.hh"),
        ("solve", dict(MINIMAL, objective={"H": [[1]], "h": [0], "eta": 1}), "objective.eta"),
        ("solve", dict(MINIMAL, box={"lo": [-5], "hi": [5], "Lo": [0]}), "box.Lo"),
        ("feasible", dict(MINIMAL, quad_constraint={"H": [[1]], "h": [0], "Eta": 1}),
         "quad_constraint.Eta"),
        ("ginv", {"A": [[1, 2]], "b": [1]}, "b"),
        ("flatness", {"B": [[1]], "a": ["1/2"], "r": "1/4", "R": "1"}, "R"),
    ],
)
def test_unknown_keys_exit2_with_their_path(tmp_path, command, payload, path):
    # a misspelled key must not be dropped: "Box" would run the solve unboxed
    code, out = run(command, write_instance(tmp_path, payload))
    assert code == 2
    assert out["error"] == f"{path}: unknown key"


@pytest.mark.parametrize("command", ["solve", "feasible", "bounded"])
def test_declared_box_missing_the_polyhedron_exit2(tmp_path, command):
    # x in [0, 3] with p = 1 is feasible, but not inside the declared box [5, 6]
    inst = dict(MINIMAL, W=[[1], [-1]], w=[3, 0], box={"lo": [5], "hi": [6]})
    code, payload = run(command, write_instance(tmp_path, inst))
    assert code == 2
    assert payload["error"].startswith("box: ")


def test_unknown_command_exit2(tmp_path):
    path = write_instance(tmp_path, MINIMAL)
    code, payload = run("frobnicate", path)
    assert code == 2
    assert "usage" in payload


def test_parse_error_exit2(tmp_path):
    path = write_instance(tmp_path, dict(MINIMAL, objective={"H": [[1, 2], [0, 1]], "h": [0]}))
    code, payload = run("solve", path)
    assert code == 2
    assert "error" in payload


def test_instance_that_is_not_utf8_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"n":1}')
    code, payload = run("solve", str(path))
    assert code == 2
    assert payload["error"].startswith(f"cannot read {path}: ")
    assert main(["solve", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve", "[" * 100000 + "]" * 100000),
        ("ginv", '{"A": ' + "[" * 100000 + "]" * 100000 + "}"),
        ("solve", json.dumps(MINIMAL).replace('"w": [1, 0]', '"w": [1' + "0" * 5000 + ", 0]")),
    ],
    ids=["nested", "nested-ginv", "long-integer"],
)
def test_json_the_parser_refuses_exit2_at_the_top(tmp_path, command, text):
    # nesting past the parser's recursion, or an integer past Python's
    # digit limit: an invalid instance, not a crash
    path = tmp_path / "refused.json"
    path.write_text(text)
    code, payload = run(command, str(path))
    assert code == 2
    assert payload["error"].startswith("$: invalid JSON: ")


@pytest.mark.parametrize(
    "command, payload, path",
    [
        ("solve", dict(MINIMAL, w=["1" * 5000, 0]), "w[0]"),
        ("ginv", {"A": [["1/" + "7" * 5000]]}, "A[0][0]"),
    ],
    ids=["solve", "ginv"],
)
def test_rational_string_past_the_digit_limit_exit2_with_its_path(tmp_path, capsys, command,
                                                                  payload, path):
    # a JSON string of more than 4300 digits passes the parser; reading it
    # as a rational passes Python's int-digit limit
    inst = write_instance(tmp_path, payload)
    code, out = run(command, inst)
    assert code == 2
    assert out["error"].startswith(f"{path}: not a rational: ")
    assert main([command, inst]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 300


@pytest.mark.parametrize(
    "command, text, path",
    [
        ("solve", json.dumps(dict(MINIMAL, w=["x" * 100000, 0])), "w[0]"),
        ("ginv", '{"A": [[' + "[" * 900 + "]" * 900 + "]]}", "A[0][0]"),
        ("ginv", json.dumps({"A": [[["1/2"] * 10000]]}), "A[0][0]"),
    ],
    ids=["long-string", "deep-list", "wide-list"],
)
def test_a_large_bad_value_is_echoed_in_one_short_line(tmp_path, capsys, command, text, path):
    inst = tmp_path / "large.json"
    inst.write_text(text)
    assert main([command, str(inst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: not a rational: ")
    assert err.count("\n") == 1 and len(err) < 100


def test_byte_identical_output(tmp_path, capsys):
    outs = []
    for _ in range(2):
        rc = main(["solve", fixture("halfpoint.json")])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_trace_flag(tmp_path, capsys):
    rc = main(["feasible", fixture("fractional_gap.json"), "--trace"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "infeasible"
    assert "trace" in payload and payload["trace"]["nodes"]


def test_bounded_trace_flag_prints_the_trace(capsys):
    rc = main(["bounded", fixture("halfpoint.json"), "--trace"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "bounded"
    assert payload["trace"]["nodes"]


def test_oracle_trace_flag_prints_no_trace(capsys):
    # the oracle enumerates; no recursion runs, so there is no trace to print
    rc = main(["oracle", fixture("halfpoint.json"), "--trace"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1/4"
    assert "trace" not in payload


@pytest.mark.parametrize(
    "data, path",
    [
        ({"B": [[1]], "a": ["1/2"], "r": -1}, "r"),
        ({"B": [[1, 0]], "a": ["1/2"], "r": 1}, "B"),
        ({"B": [[1, 2], [2, 4]], "a": [0, 0], "r": 1}, "B"),
    ],
)
def test_flatness_bad_input_exit2_with_its_path(tmp_path, data, path):
    code, payload = run("flatness", write_instance(tmp_path, data))
    assert code == 2
    assert payload["error"].startswith(f"{path}: ")


@pytest.mark.parametrize(
    "data, path",
    [
        (MINIMAL, "quad_constraint"),
        (dict(MINIMAL, p=0, quad_constraint={"H": [[1]], "h": [0], "eta": 1}), "p"),
        # not full-dimensional: the sandwich needs an interior
        (fixture_data("stationary_subspace.json"), "quad_constraint"),
        (fixture_data("tangent_face.json"), "quad_constraint"),
        # unbounded: x >= 0 with a quadratic that never binds
        (dict(MINIMAL, W=[[-1]], w=[0], quad_constraint={"H": [[0]], "h": [0], "eta": 1}),
         "quad_constraint"),
    ],
)
def test_sandwich_bad_input_exit2_with_its_path(tmp_path, data, path):
    code, payload = run("sandwich", write_instance(tmp_path, data))
    assert code == 2
    assert payload["error"].startswith(f"{path}: ")


def test_console_entrypoint_subprocess():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "miqcp.cli", "solve", fixture("halfpoint.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["value"] == "1/4"
