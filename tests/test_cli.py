import json
from fractions import Fraction
from math import factorial

import pytest

from mfinv.cli import main, parse_scalar
from mfinv.scalar import CyclotomicContext, rational, scalar_to_json

D4_SESSION = {
    "field": "rational",
    "variables": ["x", "y"],
    "potential": "x^3 + x*y^2",
    "factorizations": {
        "E": {"koszul": {"a": ["x"], "b": ["x^2 + y^2"]}},
        "F": {"koszul": {"a": ["x", "y"], "b": ["x^2", "x*y"]}},
    },
    "morphisms": {
        "yid": {
            "source": "E",
            "target": "E",
            "parity": 0,
            "blocks": [[["y"]], [["y"]]],
        }
    },
}

X6_SESSION = {
    "variables": ["x"],
    "potential": "x^6",
    "factorizations": {
        "E3": {"koszul": {"a": ["x^3"], "b": ["x^3"]}},
    },
    "morphisms": {
        "odd3": {
            "source": "E3",
            "target": "E3",
            "parity": 1,
            "blocks": [[["1"]], [["-1"]]],
        }
    },
}

CYCLIC3_SESSION = {
    "variables": ["x"],
    "potential": "x^3",
    "group": {"cyclotomic_order": 3, "generators": [["z"]]},
    "factorizations": {
        "E1": {
            "koszul": {"a": ["x"], "b": ["x^2"]},
            "rho": {"gen0": [["z", "0"], ["0", "1"]]},
        }
    },
}

GRADED_SESSION = {
    "variables": ["x"],
    "potential": "x^4",
    "weights": [1],
    "factorizations": {
        "E1": {
            "koszul": {"a": ["x"], "b": ["x^3"]},
            "degrees": {"even": [0], "odd": [1]},
        }
    },
}


def write_session(tmp_path, doc, name="session.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_milnor_output(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "milnor")
    assert payload["mu"] == 4
    assert len(payload["basis"]) == 4
    assert payload["basis"][0] == "1"
    assert len(payload["gram"]) == 4


def test_chern_and_chi_match_known_values(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "chern", "E")
    assert payload == {"class": "2*y", "parity": 0}
    payload = run_json(capsys, "--input", path, "--json", "chi", "E", "E")
    assert payload == {"chi": 2}


def test_hom_equals_chi_difference(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    hom = run_json(capsys, "--input", path, "--json", "hom", "E", "F")
    chi = run_json(capsys, "--input", path, "--json", "chi", "E", "F")
    assert chi["chi"] == hom["h0"] - hom["h1"]


def test_tau_of_multiplication_morphism(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "tau", "E", "yid")
    assert payload == {"class": "2*y^2", "parity": 0}


def test_cardy_value(tmp_path, capsys):
    path = write_session(tmp_path, X6_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "cardy", "E3", "E3", "odd3", "odd3")
    assert payload == {"value": "6"}


def test_verify_passes_and_check_flag(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    code, out, _ = run(capsys, "--input", path, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.endswith(": pass") for line in lines)
    code, out, _ = run(capsys, "--input", path, "verify", "--check")
    assert code == 0
    payload = run_json(capsys, "--input", path, "--json", "verify")
    assert payload["ok"] is True
    assert set(payload["checks"]) == {
        "hrr",
        "hom-koszul",
        "cardy",
        "oracle-tau",
        "chern-diagonal",
        "inverse-form",
        "permutation-invariance",
        "hessian-trace",
    }


@pytest.mark.parametrize("error", [AssertionError, ValueError, ZeroDivisionError])
def test_raising_check_reads_fail(tmp_path, capsys, monkeypatch, error):
    import mfinv.oracle

    def refuted(w, data=None):
        raise error("coefficient matrix does not invert the Gram matrix")

    # verify imports its checks from the oracle module when it runs
    monkeypatch.setattr(mfinv.oracle, "inverse_form_check", refuted)
    path = write_session(tmp_path, D4_SESSION)
    code, out, err = run(capsys, "--input", path, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert "inverse-form: fail" in lines
    assert sum(line.endswith(": pass") for line in lines) == 7
    assert err == "verify: inverse-form: coefficient matrix does not invert the Gram matrix\n"
    code, _, err = run(capsys, "--input", path, "verify", "--check")
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(run(capsys, "--input", path, "--json", "verify")[1])
    assert payload["checks"]["inverse-form"] is False
    assert payload["ok"] is False


def test_json_output_is_deterministic(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    _, first, _ = run(capsys, "--input", path, "--json", "milnor")
    _, second, _ = run(capsys, "--input", path, "--json", "milnor")
    assert first == second


def test_flags_accepted_after_subcommand(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    payload = run_json(capsys, "chi", "E", "E", "--input", path, "--json")
    assert payload == {"chi": 2}


def test_sectors_and_orbifold(tmp_path, capsys):
    path = write_session(tmp_path, CYCLIC3_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "sectors")
    secs = payload["sectors"]
    assert len(secs) == 3
    assert secs[0]["fixed"] == ["x"] and secs[0]["mu"] == 2
    assert secs[1]["fixed"] == [] and secs[1]["mu"] == 1
    payload = run_json(capsys, "--input", path, "--json", "orbifold-hh")
    assert payload["even"] == 2 and payload["odd"] == 0
    dims = [(s["parity"], s["dimension"]) for s in payload["sectors"]]
    assert dims == [(1, 0), (0, 1), (0, 1)]


def test_equivariant_chi(tmp_path, capsys):
    path = write_session(tmp_path, CYCLIC3_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "equivariant-chi", "E1", "E1")
    assert payload == {"chi": 1}


def test_graded_chi(tmp_path, capsys):
    path = write_session(tmp_path, GRADED_SESSION)
    payload = run_json(capsys, "--input", path, "--json", "graded-chi", "E1", "E1")
    assert payload == {"chi": 1, "doubled": False}


def _graded_power_session(n):
    """x^n with weight 1 (n even, so 2 ell = n) and E1 = K(x; x^(n-1))."""
    return {
        "field": "rational",
        "variables": ["x"],
        "potential": "x^%d" % n,
        "weights": [1],
        "factorizations": {
            "E1": {
                "koszul": {"a": ["x"], "b": ["x^%d" % (n - 1)]},
                "degrees": {"even": [0], "odd": [n // 2 - 1]},
            }
        },
    }


@pytest.mark.parametrize("n", [4, 64, 200])
def test_graded_order_limit(tmp_path, capsys, n):
    # over Q the grading group's field is Q(zeta_n); above the limit it
    # used to be built and summed over, which took seconds at n = 200
    import pathlib
    import time

    from mfinv.cli import MAX_CONDUCTOR

    if n == 4:
        path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions" / "x4_graded.json"
        assert json.loads(path.read_text()) == _graded_power_session(4)
    else:
        path = write_session(tmp_path, _graded_power_session(n))
    start = time.perf_counter()
    code, out, err = run(capsys, "--input", str(path), "--json", "graded-chi", "E1", "E1")
    assert time.perf_counter() - start < 1
    if n <= MAX_CONDUCTOR:
        assert (code, json.loads(out), err) == (0, {"chi": 1, "doubled": False}, "")
    else:
        assert (code, out, err) == (2, "", "error: grading group order %d is above the limit 64\n" % n)


def test_unknown_names_exit_2(tmp_path, capsys):
    path = write_session(tmp_path, D4_SESSION)
    code, _, err = run(capsys, "--input", path, "chern", "nope")
    assert code == 2 and "unknown factorization" in err
    code, _, err = run(capsys, "--input", path, "tau", "E", "nope")
    assert code == 2 and "unknown morphism" in err


@pytest.mark.parametrize("command", [("verify", "--check"), ("hom", "E", "E"), ("chern", "E"), ("chi", "E", "E")])
def test_rank_0_factorization_exits_2(tmp_path, capsys, command):
    # empty blocks factor w vacuously; verify used to fail its supertraces
    # with exit 1, chern and chi to exit 2, and hom to print (0, 0)
    doc = {"variables": ["x"], "potential": "x^3", "factorizations": {"E": {"d0": [], "d1": []}}}
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, *command)
    assert (code, out) == (2, "")
    assert err == "error: factorization 'E' has rank 0: d0 and d1 are empty\n"


def test_bad_input_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "--input", str(tmp_path / "missing.json"), "milnor")
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "--input", str(bad), "milnor")
    assert code == 2 and "cannot parse" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code, out, err = run(capsys, "--input", str(deep), "milnor")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse") and "Traceback" not in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe" + json.dumps(D4_SESSION).encode("utf-16-le"))
    code, out, err = run(capsys, "--input", str(raw), "milnor")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse") and "Traceback" not in err


def test_morphism_ends_must_be_factorization_names(tmp_path, capsys):
    for end in ("source", "target"):
        doc = json.loads(json.dumps(D4_SESSION))
        doc["morphisms"]["yid"][end] = ["E"]
        path = write_session(tmp_path, doc)
        code, out, err = run(capsys, "--input", path, "milnor")
        assert code == 2 and out == ""
        assert err == "error: morphism 'yid': unknown %s factorization\n" % end


@pytest.mark.parametrize("parity", [True, 0.0, 1.0])
def test_parity_must_be_a_json_integer(tmp_path, capsys, parity):
    # true, 0.0 and 1.0 all compare equal to 0 or 1
    doc = json.loads(json.dumps(D4_SESSION))
    doc["morphisms"]["yid"]["parity"] = parity
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, "--json", "tau", "E", "yid")
    assert code == 2 and out == ""
    assert err == "error: morphism 'yid': parity must be 0 or 1\n"


def test_non_isolated_potential_rejected(tmp_path, capsys):
    doc = {
        "variables": ["x", "y"],
        "potential": "x^2",
        "factorizations": {},
    }
    path = write_session(tmp_path, doc)
    code, _, err = run(capsys, "--input", path, "milnor")
    assert code == 2 and "potential" in err


def test_wrong_factorization_rejected(tmp_path, capsys):
    doc = dict(D4_SESSION)
    doc["factorizations"] = {"E": {"koszul": {"a": ["x"], "b": ["x^2"]}}}
    path = write_session(tmp_path, doc)
    code, _, err = run(capsys, "--input", path, "milnor")
    assert code == 2 and "session potential" in err


def test_rho_without_group_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    del doc["group"]
    path = write_session(tmp_path, doc)
    code, _, err = run(capsys, "--input", path, "milnor")
    assert code == 2 and "no group" in err


def test_group_field_order_mismatch_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    doc["field"] = {"cyclotomic_order": 4}
    path = write_session(tmp_path, doc)
    code, _, err = run(capsys, "--input", path, "sectors")
    assert code == 2 and "does not match" in err


@pytest.mark.parametrize("command", [("verify", "--check"), ("equivariant-chi", "E1", "E1")])
@pytest.mark.parametrize(
    "where, order, message",
    [
        ("group", -3, "group cyclotomic order must be positive"),
        ("group", 0, "group cyclotomic order must be positive"),
        ("group", 5000, "group cyclotomic order 5000 is above the limit 64"),
        ("field", 5000, "cyclotomic order 5000 is above the limit 64"),
    ],
)
def test_session_conductor_checked(tmp_path, capsys, command, where, order, message):
    # -3 used to report the potential, 0 to select Q, 5000 to run for minutes
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    if where == "group":
        doc["group"]["cyclotomic_order"] = order
    else:
        doc["field"] = {"cyclotomic_order": order}
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, *command)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_conductor_at_the_limit_loads(tmp_path, capsys):
    from mfinv.cli import MAX_CONDUCTOR

    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    doc["group"]["cyclotomic_order"] = MAX_CONDUCTOR
    # sectors needs a potential that the generator z, a primitive root of
    # that order, leaves invariant
    doc["potential"] = "x^%d" % MAX_CONDUCTOR
    doc["factorizations"]["E1"]["koszul"]["b"] = ["x^%d" % (MAX_CONDUCTOR - 1)]
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, "sectors")
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == MAX_CONDUCTOR


@pytest.mark.parametrize("command", [
    ("verify", "--check"), ("equivariant-chi", "E1", "E1"), ("sectors",), ("milnor",),
])
@pytest.mark.parametrize("rows", [
    [["z"]],
    [["z", "0"], ["0", "1"], ["0", "0"]],
    [["z", "0", "0"], ["0", "1", "0"]],
    [["z", "0"], ["0"]],
])
def test_rho_of_the_wrong_size_exits_2(tmp_path, capsys, command, rows):
    # verify used to pass such a session while equivariant-chi rejected it
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    doc["factorizations"]["E1"]["rho"] = {"gen0": rows}
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, *command)
    assert (code, out) == (2, "")
    assert err == "error: factorization 'E1': rho gen0 must be 2 x 2, the rank of the factorization\n"


@pytest.mark.parametrize("command", [("verify", "--check"), ("equivariant-chi", "E1", "E1")])
def test_rho_mixing_parities_exits_2(tmp_path, capsys, command):
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    doc["factorizations"]["E1"]["rho"] = {"gen0": [["0", "z"], ["1", "0"]]}
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, *command)
    assert (code, out) == (2, "")
    assert err == "error: factorization 'E1': action matrix does not preserve parity\n"


@pytest.mark.parametrize(
    "coeffs", ["01", [0, 1], ["0", 1], {"0": "1"}], ids=["string", "ints", "mixed", "object"]
)
def test_scalar_object_coeffs_must_be_a_list_of_strings(tmp_path, capsys, coeffs):
    # a string was iterated into its characters, and integers crashed
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    doc["group"]["generators"] = [[{"m": 3, "coeffs": coeffs}]]
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, "milnor")
    assert (code, out) == (2, "")
    assert "coeffs must be a list of strings" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["potential", "generator"])
@pytest.mark.parametrize(
    "text", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"], ids=["parentheses", "minuses"]
)
def test_deeply_nested_expression_exits_2(tmp_path, capsys, where, text):
    doc = json.loads(json.dumps(CYCLIC3_SESSION))
    if where == "potential":
        doc["potential"] = text + "^3"
    else:
        doc["group"]["generators"] = [[text.replace("x", "z")]]
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, "milnor")
    assert (code, out) == (2, "")
    assert err.endswith(": nested too deeply\n") and "Traceback" not in err


def test_non_integer_session_values_exit_2(tmp_path, capsys):
    bad_field = json.loads(json.dumps(CYCLIC3_SESSION))
    bad_field["field"] = {"cyclotomic_order": "abc"}
    bad_group = json.loads(json.dumps(CYCLIC3_SESSION))
    bad_group["group"]["cyclotomic_order"] = "abc"
    bad_weights = json.loads(json.dumps(GRADED_SESSION))
    bad_weights["weights"] = ["a"]
    bad_scalar = json.loads(json.dumps(CYCLIC3_SESSION))
    bad_scalar["group"]["generators"] = [[{"m": "abc", "coeffs": ["0", "1"]}]]
    for doc in (bad_field, bad_group, bad_weights, bad_scalar):
        path = write_session(tmp_path, doc)
        code, _, err = run(capsys, "--input", path, "milnor")
        assert code == 2 and "must be an integer" in err, err
        assert "Traceback" not in err


def test_session_values_must_be_json_integers(tmp_path, capsys):
    # floats, bools and strings were truncated, coerced or iterated before
    docs = []
    for weights in ([1.5], [True], ["1"]):
        doc = json.loads(json.dumps(GRADED_SESSION))
        doc["weights"] = weights
        docs.append((doc, ("graded-chi", "E1", "E1")))
    for degrees in (
        {"even": "0", "odd": [1]},
        {"even": [0.9], "odd": [1]},
        {"even": [0], "odd": ["1"]},
        {"even": [False], "odd": [1]},
        [[0], [1]],
    ):
        doc = json.loads(json.dumps(GRADED_SESSION))
        doc["factorizations"]["E1"]["degrees"] = degrees
        docs.append((doc, ("graded-chi", "E1", "E1")))
    for order in ("3", 3.0, True):
        doc = json.loads(json.dumps(CYCLIC3_SESSION))
        doc["group"]["cyclotomic_order"] = order
        docs.append((doc, ("milnor",)))
    for doc, command in docs:
        path = write_session(tmp_path, doc)
        code, _, err = run(capsys, "--input", path, *command)
        assert code == 2 and err.startswith("error: "), (doc, err)
        assert "Traceback" not in err


def test_koszul_data_must_be_lists(tmp_path, capsys):
    for kdata in ({"a": "x", "b": ["x^2 + y^2"]}, {"a": ["x"], "b": "x^2"}, ["x"]):
        doc = json.loads(json.dumps(D4_SESSION))
        doc["factorizations"] = {"E": {"koszul": kdata}}
        path = write_session(tmp_path, doc)
        code, _, err = run(capsys, "--input", path, "milnor")
        assert code == 2 and "koszul data" in err, err


def test_malformed_rho_exits_2(tmp_path, capsys):
    for rho in ("gen0", {"gen0": [1, 2]}):
        doc = json.loads(json.dumps(CYCLIC3_SESSION))
        doc["factorizations"]["E1"]["rho"] = rho
        path = write_session(tmp_path, doc)
        code, _, err = run(capsys, "--input", path, "sectors")
        assert code == 2 and "rho" in err, err


def test_huge_exponents_exit_2_quickly(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    huge_power = dict(D4_SESSION, potential="x^3 + x*y^2 + y^100000000")
    # every literal is allowed, the product is not
    huge_product = dict(D4_SESSION, potential="x^3 + x*y^2 + y^1000*y^1000")
    huge_scalar = json.loads(json.dumps(CYCLIC3_SESSION))
    huge_scalar["group"]["generators"] = [["2^100000000"]]
    # x^(10^9) is a valid exponent word in 1 and 2 variables, and past the
    # field limit 2^29 - 1 of 3 variables, where the product raises
    nested = [
        {"variables": names, "potential": "x^3 + ((x^1000)^1000)^1000", "factorizations": {}}
        for names in (["x"], ["x", "y"], ["x", "y", "z"])
    ]
    for doc in (huge_power, huge_product, huge_scalar, *nested):
        path = write_session(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "mfinv.cli", "--input", path, "milnor"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "above the limit" in proc.stderr and "Traceback" not in proc.stderr


_WRONG_VALUES = [
    None, True, False, 0, -1, 1.5, 2**64, "", "x^", "1/0", "q", "z", [], [[]], {}, {"a": 1},
    ["x"], "x^1000000",
]


def _json_paths(node, prefix=()):
    """The key path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def test_mutated_sessions_keep_the_exit_code_contract(tmp_path, capsys):
    # one value of a fixture session, at a random path, replaced by a wrongly
    # typed or out-of-range one: every command exits 0, 1 or 2 and no
    # exception escapes main
    import pathlib
    import random

    root = pathlib.Path(__file__).resolve().parent.parent
    sessions = sorted((root / "scripts" / "sessions").glob("*.json"))
    fixtures = [json.loads(p.read_text()) for p in sessions]
    assert len(fixtures) == 4
    commands = [("verify", "--check"), ("sectors",), ("graded-chi", "E1", "E1"),
                ("equivariant-chi", "E1", "E1")]
    rng = random.Random(32)
    codes = set()
    for _ in range(200):
        doc = json.loads(json.dumps(rng.choice(fixtures)))
        keys = rng.choice(list(_json_paths(doc)))
        value = rng.choice(_WRONG_VALUES)
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = write_session(tmp_path, doc)
        for command in commands:
            code, _, err = run(capsys, "--input", path, *command)
            assert code in (0, 1, 2) and "Traceback" not in err, (keys, value, command, err)
            codes.add(code)
    assert {0, 2} <= codes


def test_verify_computes_each_hom_once(tmp_path, capsys, monkeypatch):
    import mfinv.homology

    calls = []
    real = mfinv.homology.hom_cohomology

    def counted(E, F):
        calls.append((E, F))
        return real(E, F)

    monkeypatch.setattr(mfinv.homology, "hom_cohomology", counted)
    path = write_session(tmp_path, D4_SESSION)
    code, out, _ = run(capsys, "--input", path, "verify", "--check")
    assert code == 0 and "fail" not in out
    # two factorizations: one Hom per ordered pair
    assert len(calls) == 4


@pytest.mark.parametrize("fixture", ["d4", "x6"])
def test_dropping_an_a_generator_fails_hom_koszul(capsys, monkeypatch, fixture):
    # `koszul_hom_dimensions` puts the vectors a_i e_j first among the
    # generators of each cokernel; without a_0 e_0 a cokernel grows and
    # the line fails, while every other line still passes.  Both parities
    # of a qualifying source have the same dimension, so a mutant that
    # swaps h0 and h1 cannot show in this line.
    import pathlib

    import mfinv.homology

    real = mfinv.homology.module_gb
    monkeypatch.setattr(
        mfinv.homology, "module_gb", lambda gens, rank, ring: real(gens[1:], rank, ring)
    )
    root = pathlib.Path(__file__).resolve().parent.parent
    path = root / "scripts" / "sessions" / (fixture + ".json")
    code, out, _ = run(capsys, "--input", str(path), "verify", "--check")
    assert code == 1
    failed = [line for line in out.splitlines() if not line.endswith(": pass")]
    assert failed == ["hom-koszul: fail"]


def _plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _doubled_class(real):
    return lambda *args, **kwargs: real(*args, **kwargs).scale(2)


def _doubled_matrix(real):
    from mfinv.mfcore import mat_map

    return lambda *args: mat_map(real(*args), lambda p: p + p)


def _negated(real):
    return lambda *args: -real(*args)


# one side of each identity made wrong, and the lines that must then fail:
# the oracle's `derivative_product` feeds the direct side of the diagonal's
# character, the one in `invariants` the permutation sweep
@pytest.mark.parametrize("module, name, wrong, failed", [
    ("mfinv.invariants", "chi_hrr", _plus_one, ["hrr"]),
    ("mfinv.invariants", "cardy_rhs", _plus_one, ["cardy"]),
    ("mfinv.oracle", "oracle_tau", _doubled_class, ["oracle-tau"]),
    ("mfinv.oracle", "derivative_product", _doubled_matrix, ["chern-diagonal"]),
    ("mfinv.invariants", "permutation_sign", _negated, ["permutation-invariance"]),
    ("mfinv.cli", "residue_trace", _plus_one, ["hessian-trace"]),
])
def test_each_verify_line_fails_on_a_wrong_side(
    tmp_path, capsys, monkeypatch, module, name, wrong, failed
):
    import importlib

    target = importlib.import_module(module)
    monkeypatch.setattr(target, name, wrong(getattr(target, name)))
    path = write_session(tmp_path, D4_SESSION)
    code, out, err = run(capsys, "--input", path, "verify", "--check")
    assert code == 1
    assert "Traceback" not in err
    lines = out.splitlines()
    assert len(lines) == 8
    assert [line[: -len(": fail")] for line in lines if line.endswith(": fail")] == failed
    assert sum(line.endswith(": pass") for line in lines) == 8 - len(failed)


def _negated_pairing(real):
    return lambda *args: -real(*args)


def _unsigned_permutation(real):
    return lambda perm: 1


def _unsigned_supertrace(real):
    # the odd block read with the sign of the even one: r0 := rank
    return lambda ring, M, r0, R=None: real(ring, M, len(M), R)


# the mutant gate: a wrong formula planted in one product function, and the
# lines of `verify --check` on a committed session that must catch it
@pytest.mark.parametrize("name, mutant, session, failed", [
    ("canonical_pairing", _negated_pairing, "d4", ["cardy", "hrr"]),
    ("canonical_pairing", _negated_pairing, "x6", ["cardy"]),
    ("permutation_sign", _unsigned_permutation, "d4", ["permutation-invariance"]),
    ("supertrace", _unsigned_supertrace, "d4",
     ["cardy", "hrr", "oracle-tau", "permutation-invariance"]),
    ("supertrace", _unsigned_supertrace, "x6", ["cardy", "oracle-tau"]),
])
def test_committed_sessions_catch_a_mutant(capsys, monkeypatch, name, mutant, session, failed):
    import pathlib

    import mfinv.invariants as invariants

    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    argv = ["--input", str(path / (session + ".json")), "--json", "verify", "--check"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"], err
    monkeypatch.setattr(invariants, name, mutant(getattr(invariants, name)))
    code, out, err = run(capsys, *argv)
    checks = json.loads(out)["checks"]
    assert code == 1 and "Traceback" not in err
    assert sorted(line for line, ok in checks.items() if not ok) == failed
    assert len(checks) == 8


NON_INVARIANT_SESSION = {
    "variables": ["x", "y"],
    "potential": "x^2*y + y^3",
    "group": {"cyclotomic_order": 2, "generators": [["1", "-1"]]},
}


@pytest.mark.parametrize("command", ["sectors", "orbifold-hh"])
def test_group_that_moves_the_potential_exits_2(tmp_path, capsys, command):
    path = write_session(tmp_path, NON_INVARIANT_SESSION)
    code, out, err = run(capsys, "--input", path, command)
    assert code == 2 and out == ""
    assert err == "error: potential is not invariant under (1, -1)\n"


def _rejecting(error):
    def planted(*args, **kwargs):
        raise error("planted rejection")
    return planted


# command: (session, its arguments, the library function its handler calls)
_LIBRARY_CALLS = {
    "milnor": (D4_SESSION, [], "mfinv.cli", "gram_matrix"),
    "chern": (D4_SESSION, ["E"], "mfinv.invariants", "chern"),
    "chi": (D4_SESSION, ["E", "F"], "mfinv.invariants", "chi_hrr"),
    "hom": (D4_SESSION, ["E", "F"], "mfinv.homology", "hom_dimensions"),
    "tau": (D4_SESSION, ["E", "yid"], "mfinv.invariants", "tau"),
    "cardy": (D4_SESSION, ["E", "E", "yid", "yid"], "mfinv.homology", "cardy_lhs"),
    "sectors": (CYCLIC3_SESSION, [], "mfinv.equivariant", "sectors"),
    "equivariant-chi": (CYCLIC3_SESSION, ["E1", "E1"], "mfinv.equivariant", "chi_equivariant"),
    "orbifold-hh": (CYCLIC3_SESSION, [], "mfinv.equivariant", "orbifold_hh_dimensions"),
    "graded-chi": (GRADED_SESSION, ["E1", "E1"], "mfinv.equivariant", "graded_chi"),
}


@pytest.mark.parametrize(
    "error, command", [(ValueError, c) for c in _LIBRARY_CALLS] + [(AssertionError, "hom")]
)
def test_library_rejection_exits_2(tmp_path, capsys, monkeypatch, error, command):
    # main is the one place that reports a library check's ValueError or
    # AssertionError: as an input error, with no traceback
    import importlib

    session, args, module, name = _LIBRARY_CALLS[command]
    monkeypatch.setattr(importlib.import_module(module), name, _rejecting(error))
    path = write_session(tmp_path, session)
    assert run(capsys, "--input", path, command, *args) == (2, "", "error: planted rejection\n")


def test_oracle_check_builds_no_diagonal(tmp_path, monkeypatch):
    import mfinv.oracle
    from mfinv.cli import _oracle_tau_sides, load_session

    calls = []
    real = mfinv.oracle.build_diagonal

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(mfinv.oracle, "build_diagonal", counted)
    session = load_session(write_session(tmp_path, D4_SESSION))
    assert len(session.factorizations) == 2
    assert all(lhs == rhs for lhs, rhs in _oracle_tau_sides(session))
    assert calls == []


def test_verify_builds_one_diagonal_and_one_doubled_jacobian(tmp_path, capsys, monkeypatch):
    import sys

    import mfinv.cli
    import mfinv.oracle

    calls = []

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    path = write_session(tmp_path, D4_SESSION)
    session_milnor = []
    real_load = mfinv.cli.load_session

    def load(p):
        session = real_load(p)
        session_milnor.append(session.milnor)
        # from here on, no module may build another Milnor ring
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("mfinv"):
                if hasattr(module, "build_milnor"):
                    monkeypatch.setattr(
                        module, "build_milnor", counting("milnor", module.build_milnor)
                    )
        return session

    monkeypatch.setattr(mfinv.cli, "load_session", load)
    for name in ("build_diagonal", "buchberger"):
        monkeypatch.setattr(
            mfinv.oracle, name, counting(name, getattr(mfinv.oracle, name))
        )
    code, out, err = run(capsys, "--input", path, "verify", "--check")
    assert code == 0 and "fail" not in out and err == ""
    assert len(session_milnor) == 1
    assert sorted(calls) == ["buchberger", "build_diagonal"]


@pytest.mark.parametrize("partner", ["x_y", "x_u"])
def test_variable_names_like_partner_names_verify(tmp_path, capsys, partner):
    # the doubled ring and the solver's coordinates name partner variables
    # after the session's own; a session may already use such a name
    doc = {
        "variables": ["x", partner],
        "potential": "x^3 + %s^3" % partner,
        "factorizations": {
            "E": {"koszul": {"a": ["x", partner], "b": ["x^2", "%s^2" % partner]}},
            "F": {"koszul": {"a": ["x^2", partner], "b": ["x", "%s^2" % partner]}},
        },
    }
    path = write_session(tmp_path, doc)
    code, out, err = run(capsys, "--input", path, "verify", "--check")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 8 and all(line.endswith(": pass") for line in lines)


def test_missing_input_flag(tmp_path, capsys):
    code, _, err = run(capsys, "milnor")
    assert code == 2 and "--input" in err


def test_scalar_round_trip():
    ctx = CyclotomicContext(5)
    values = [
        rational(3, 7),
        rational(-2),
        ctx.zeta(),
        ctx.zeta(3) - ctx.zeta(1).inverse(),
    ]
    for v in values:
        encoded = scalar_to_json(v)
        back = parse_scalar(encoded, v.context)
        assert back == v


def test_scalar_object_is_in_normal_form():
    ctx = CyclotomicContext(3)
    got = parse_scalar({"m": 3, "coeffs": ["4/2", "0"]}, ctx)
    assert got.coeffs == (2, 0) and all(type(c) is int for c in got.coeffs)
    assert got == ctx.from_rational(2) and hash(got) == hash(ctx.from_rational(2))
    half = parse_scalar({"m": 3, "coeffs": ["1/2", "-6/3"]}, ctx)
    assert half.coeffs == (Fraction(1, 2), -2) and type(half.coeffs[1]) is int


def test_scalar_string_forms():
    assert parse_scalar("3/2", None) == rational(3, 2)
    ctx = CyclotomicContext(4)
    assert parse_scalar("z^2", ctx) == rational(-1)
    assert parse_scalar("1 - z", ctx) == rational(1) - ctx.zeta()
    from mfinv.cli import SessionError

    with pytest.raises(SessionError):
        parse_scalar("z", None)
    with pytest.raises(SessionError):
        parse_scalar("1/0", None)


def test_readme_names_each_subcommand_with_its_arguments():
    import pathlib
    import re

    from mfinv.cli import COMMANDS

    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = readme[readme.index("Subcommands:"):].split(", which")[0]
    named = [" ".join(span.split()) for span in re.findall(r"`([^`]*)`", sentence)]
    expected = [
        " ".join([name] + ["MOR" if "morphism" in arg else "FAC" for arg in positionals])
        for name, (_handler, _help, positionals) in COMMANDS.items()
    ]
    assert named == expected


def test_shipped_fixture_sessions_verify(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    fixtures = sorted((root / "scripts" / "sessions").glob("*.json"))
    assert fixtures, "no shipped session fixtures found"
    for path in fixtures:
        code, out, err = run(capsys, "--input", str(path), "verify")
        assert code == 0, (path.name, err)
        assert "fail" not in out, (path.name, out)


@pytest.mark.parametrize("fixture", ["d4", "x6"])
def test_fixture_verify_under_python_O(fixture):
    # -O strips asserts; every verify gate and the scalar and Groebner fast
    # paths must still hold without them
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mfinv.cli", "--input",
         str(root / "scripts" / "sessions" / (fixture + ".json")), "verify", "--check"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith(": pass") for line in lines), proc.stdout


def _per_order_permutation_sides(session):
    """The permutation-invariance sides by the per-order route: the whole
    derivative product of each order of `itertools.permutations`, then its
    supertrace."""
    from itertools import permutations

    from mfinv.invariants import chern, derivative_product, permutation_sign, supertrace

    A = session.milnor
    n = session.ring.n
    for E in session.factorizations.values():
        base = chern(E, A)
        for perm in permutations(range(n)):
            sign = permutation_sign(perm) * (-1) ** (n * (n - 1) // 2)
            got = A.project(supertrace(E.ring, derivative_product(E, perm), E.r0))
            yield got.value, base.scale(sign).value


def test_permutation_walk_matches_the_per_order_route():
    # the same (lhs, rhs) pairs in the same order, on every committed
    # session; x6 has one variable, so its one order has no prefix
    import pathlib

    from mfinv.cli import _permutation_sides, load_session

    root = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    paths = sorted(root.glob("*.json")) + sorted((root / "heavy").glob("*.json"))
    nonzero = 0
    for path in paths:
        session = load_session(str(path))
        got = list(_permutation_sides(session))
        want = list(_per_order_permutation_sides(session))
        assert len(got) == len(session.factorizations) * factorial(session.ring.n)
        assert [(str(a), str(b)) for a, b in got] == [(str(a), str(b)) for a, b in want]
        assert got == want
        nonzero += sum(not a.is_zero() for a, _ in got)
    assert nonzero  # d4's sides are not all zero
