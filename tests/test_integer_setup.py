"""The integer set-up, from the parsed document to the first search step:
`instances._rational`, the probability check in `GameInstance`, the
instance's `_Scale`, the Steiner table's integer costs, `graphs._decode`
and `games.column_terms`, each against the `Fraction` form it replaced
(the oracles in conftest), and the CLI's answers on re-spelled rationals."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HYPERGRAPH_COVER,
    decode_reference,
    probabilities_error_reference,
    scale_reference,
)
from netgames import graph_from_costs
from netgames.cli import main
from netgames.errors import ValidationError
from netgames.games import (
    GameInstance,
    PlayerSpec,
    _column_term,
    column_terms,
    expected_opt,
)
from netgames.graphs import _decode
from netgames.instances import _rational, gen_instance, parse_instance, serialize_instance

KINDS = ("multicast", "source-sink", "vertex-cover")


# ---------------------------------------------------------------------------
# Reading a rational


def _fraction_or_error(value):
    """`Fraction(str(value))`, or None when `Fraction` raises."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        return None


RATIONAL_CHARS = "0123456789/+- _.e٣"
RATIONAL_TEXT = st.one_of(
    st.text(alphabet=RATIONAL_CHARS, max_size=12),
    st.builds("{}/{}".format, *[st.text(alphabet=RATIONAL_CHARS, max_size=4)] * 2),
)
JSON_VALUES = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())


@settings(max_examples=600, deadline=None)
@given(st.one_of(RATIONAL_TEXT, JSON_VALUES))
@example("3/4")
@example("6/8")
@example("007/010")
@example("3/0")
@example("0/0")
@example("/4")
@example("3/")
@example("3/ 4")
@example("3 /4")
@example("3/+4")
@example("3/-4")
@example(" 3/4 ")
@example("+2")
@example("0.75")
@example("1_000")
@example("٣/4")
@example(3)
@example(0.1)
@example(True)
@example(None)
def test_rational_reads_what_fraction_reads(value):
    want = _fraction_or_error(value)
    if want is None:
        with pytest.raises(ValidationError) as err:
            _rational(value, "f")
        assert str(err.value) == f"f: not a rational: {value!r}"
    else:
        got = _rational(value, "f")
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**30), st.integers(0, 10**30), st.booleans())
def test_canonical_digit_strings_read_as_fraction_does(p, q, slash):
    text = f"{p}/{q}" if slash else str(p)
    if slash and not q:
        with pytest.raises(ValidationError, match="not a rational"):
            _rational(text, "f")
    else:
        assert _rational(text, "f") == Fraction(text)


# ---------------------------------------------------------------------------
# Probabilities: checked exactly, on Fraction(p)


def two_sources():
    return graph_from_costs({("a", "r"): 1, ("b", "r"): 1}, root="r")


def one_player(distribution):
    return GameInstance(
        kind="multicast", players=(PlayerSpec(tuple(distribution)),), graph=two_sources()
    )


def test_float_probabilities_are_checked_exactly():
    """0.1 + 0.9 is 1.0 in floats, but the floats' exact values sum to
    more than 1: the instance is rejected, where the float check passed it
    and `expected_opt` then priced it as 36028797018963969/36028797018963968."""
    want = "players[0]: probabilities sum to 36028797018963969/36028797018963968, not 1"
    with pytest.raises(ValidationError, match=re.escape(want)):
        one_player([("a", 0.1), ("b", 0.9)])


@pytest.mark.parametrize(
    "distribution",
    [
        [("a", 0.5), ("b", 0.5)],
        [("a", Fraction(1, 2)), ("b", Fraction(1, 2))],
        [("a", 0.25), ("b", Fraction(3, 4))],
        [("a", 1)],
        [("b", Fraction(1))],
    ],
    ids=["floats", "fractions", "float-and-fraction", "int", "fraction-one"],
)
def test_exact_probabilities_are_accepted_with_unchanged_answers(distribution):
    inst = one_player(distribution)
    exact = one_player([(t, Fraction(p)) for t, p in distribution])
    assert expected_opt(inst) == expected_opt(exact) == 1
    assert inst._scale == exact._scale


def check_probabilities(distribution):
    """`GameInstance` rejects `distribution` with the oracle's message, or
    accepts it with the oracle's scale."""
    want = probabilities_error_reference(distribution)
    if want is None:
        inst = one_player(distribution)
        D, weights, _, _ = scale_reference(inst)
        assert (inst._scale.D, inst._scale.weights) == (D, weights)
    else:
        with pytest.raises(ValidationError) as err:
            one_player(distribution)
        assert err.value.message == want


HAND_BUILT = [
    [],
    [("a", 0.1), ("b", 0.9)],
    [("a", 0.5), ("b", 0.5)],
    [("a", 0.75), ("b", Fraction(1, 4))],
    [("a", 1.5), ("b", -0.5)],
    [("a", Fraction(3, 2)), ("b", Fraction(-1, 2))],
    [("a", 1), ("b", 0)],
    [("a", 0), ("b", 1)],
    [("a", 2)],
    [("a", Fraction(1, 3)), ("b", Fraction(1, 3))],
    [("a", Fraction(1, 3)), ("b", Fraction(2, 3))],
    [("a", Fraction(10**20 + 1, 10**20)), ("b", Fraction(-1, 10**20))],
    [("a", 1.0)],
]


@pytest.mark.parametrize("distribution", HAND_BUILT)
def test_probability_check_equals_the_fraction_check(distribution):
    check_probabilities(distribution)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-2, max_value=2, max_denominator=30),
            st.integers(-1, 2),
            st.floats(-2, 2),
        ),
        min_size=1,
        max_size=2,
    )
)
def test_random_probability_check_equals_the_fraction_check(probs):
    check_probabilities(list(zip("ab", probs)))


# ---------------------------------------------------------------------------
# The instance's scale and the Steiner table's costs


def instances():
    for kind in KINDS:
        for seed in range(6):
            for n_nodes, n_players, n_types in ((4, 2, 2), (6, 3, 3)):
                yield gen_instance(kind, n_nodes, n_players, n_types, seed=seed)
    yield parse_instance(json.dumps(HYPERGRAPH_COVER))
    costs = {("a", "r"): 1, ("b", "r"): Fraction(7, 3), ("a", "b"): 0.25}
    g = graph_from_costs(costs, root="r")
    for spec in ([("a", 1)], [("a", 0.5), ("b", Fraction(1, 2))], [("a", Fraction(2, 7)), ("b", Fraction(5, 7))]):
        yield GameInstance(kind="multicast", players=(PlayerSpec(tuple(spec)),) * 2, graph=g)
    covers = (("x", 2), ("y", Fraction(5, 3)), ("z", 0.125))
    pair = PlayerSpec(((("x", "y"), 0.25), (("y", "z"), Fraction(3, 4))))
    yield GameInstance(kind="vertex-cover", players=(pair, pair), node_costs=covers)


@pytest.mark.parametrize("inst", instances())
def test_scale_equals_the_fraction_scale(inst):
    sc = inst._scale
    assert (sc.D, sc.weights, sc.C, sc.costs) == scale_reference(inst)
    for spec in inst.players:
        assert probabilities_error_reference(spec.distribution) is None
    if inst.family.graph:
        table = inst.graph._steiner
        assert table.cost == {e: int(c * table.scale) for e, c in inst.graph.edges}
        assert all(type(c) is int for c in table.cost.values())
    assert all(type(w) is int for row in sc.weights for w in row)
    assert all(type(c) is int for c in sc.costs.values())


@pytest.mark.parametrize("inst", instances())
def test_column_terms_equal_both_single_terms(inst):
    rng = random.Random(inst.n)
    sc = inst._scale
    columns = [()] + [
        tuple(rng.randint(1, sc.D) for _ in range(rng.randint(1, inst.n))) for _ in range(20)
    ]
    for entries in columns:
        assert column_terms(inst, entries) == (
            _column_term(inst, entries, 0),
            _column_term(inst, entries, 1),
        )


def test_decode_equals_the_bits_form_on_wide_masks():
    edges = [(f"u{j:03d}", f"v{j:03d}") for j in range(200)]
    rng = random.Random(0)
    masks = [0, 1, 1 << 199, (1 << 200) - 1, (1 << 64) | 1, 1 << 64, (1 << 65) - 1]
    masks += [rng.getrandbits(rng.choice((65, 100, 130, 200))) for _ in range(300)]
    for mask in masks:
        assert _decode(edges, mask) == decode_reference(edges, mask)


# ---------------------------------------------------------------------------
# Re-spelled rationals give the CLI's answers byte for byte


def respell(value: Fraction, k: int):
    """One of five spellings of `value` that `_rational` reads as it."""
    p, q = value.numerator, value.denominator
    if k == 0:
        return f" {value} "
    if k == 1:
        return f"{2 * p}/{2 * q}"
    if k == 2:
        return f"+{value}"
    decimal = str(float(value))
    if Fraction(decimal) != value:  # no exact decimal: a leading zero instead
        return f"0{value}"
    return decimal if k == 3 else (p if q == 1 else float(decimal))


def respelled(text: str) -> str:
    doc = json.loads(text)
    k = 0
    for e in doc.get("graph", {}).get("edges", []):
        e["cost"] = respell(Fraction(e["cost"]), k := (k + 1) % 5)
    costs = doc.get("cover", {}).get("node_costs", {})
    for n in costs:
        costs[n] = respell(Fraction(costs[n]), k := (k + 1) % 5)
    for player in doc["players"]:
        for entry in player["distribution"]:
            entry["prob"] = respell(Fraction(entry["prob"]), k := (k + 1) % 5)
    return json.dumps(doc)


def cli_output(capsys, path, argv):
    capsys.readouterr()
    code = main([argv[0], "--instance", str(path), *argv[1:]])
    out, err = capsys.readouterr()
    return code, out, err


def respell_cases():
    for kind in KINDS:
        for seed in range(3):
            yield pytest.param(kind, seed, ["certify"], id=f"certify-{kind}-{seed}")
    for seed in range(3):
        yield pytest.param("multicast", seed, ["sample"], id=f"sample-{seed}")
        argv = ["sample", "--samples", "30", "--seed", "3"]
        yield pytest.param("multicast", seed, argv, id=f"sample-mc-{seed}")


@pytest.mark.parametrize("kind,seed,argv", respell_cases())
def test_respelled_rationals_give_the_same_output(tmp_path, capsys, kind, seed, argv):
    text = serialize_instance(gen_instance(kind, 4, 2, 2, seed=seed))
    canonical, other = tmp_path / "canonical.json", tmp_path / "respelled.json"
    canonical.write_text(text, encoding="utf-8")
    other.write_text(respelled(text), encoding="utf-8")
    assert other.read_text(encoding="utf-8") != text
    want = cli_output(capsys, canonical, argv)
    assert want[0] == 0
    assert cli_output(capsys, other, argv) == want
