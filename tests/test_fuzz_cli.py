"""Fuzz the CLI input contract: mutated instance and strategy JSON must give
exit 0 or 1, with an {"error": ...} line on stderr on exit 1, and never
an uncaught exception."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from netgames.cli import encode_profile, main
from netgames.equilibria import min_potential_profile
from netgames.instances import gen_instance, serialize_instance

INSTANCES = [
    gen_instance("multicast", 4, 2, 2, seed=0),
    gen_instance("multicast", 4, 2, 2, seed=1, root_mass=True),
    gen_instance("source-sink", 4, 2, 2, seed=2),
    gen_instance("vertex-cover", 4, 2, 2, seed=3),
]
DOCS = [
    (
        json.loads(serialize_instance(inst)),
        {"players": encode_profile(inst, min_potential_profile(inst))},
    )
    for inst in INSTANCES
]
NAMES = ["v0", "v1", "v2", "v3", "1/2", "-1", "0", ""]
KEYS = ["u", "v", "type", "prob", "action"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 10)
    | st.floats()
    | st.sampled_from(NAMES)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def mutate(data, doc):
    """Change one value at a random path: delete or replace it, repeat it in
    its list, or put a list or an object where a string was; or swap the
    whole doc."""
    doc = copy.deepcopy(doc)
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(json_values)
    node = doc
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        edits = ["delete", "replace"]
        edits += ["repeat"] * isinstance(node, list) + ["wrap"] * isinstance(child, str)
        edit = data.draw(st.sampled_from(edits))
        if edit == "delete":
            del node[key]
        elif edit == "repeat":
            node.insert(key, copy.deepcopy(child))
        elif edit == "wrap":
            node[key] = data.draw(st.sampled_from([[child], {child: child}]))
        else:
            node[key] = data.draw(json_values)
        break
    return doc


def run(command, instance_text, strategy_text):
    """Exit code and stderr of one in-process CLI run, with small caps on
    `bpos`."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("instance", instance_text), ("strategy", strategy_text)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as f:
                f.write(text)
        argv = [command, "--instance", paths["instance"]]
        if command == "eval":
            argv += ["--strategy", paths["strategy"]]
        else:
            argv += ["--cap-strategies", "64", "--cap-support", "16"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def pinned(edit):
    """An example on the first instance as `edit` changes it, mutated no further."""
    instance, strategy = copy.deepcopy(DOCS[0])
    edit(instance)
    return example(
        data=None, docs=(instance, strategy), command="bpos", target=None, truncate=False
    )


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=st.data(),
    docs=st.sampled_from(DOCS),
    command=st.sampled_from(["eval", "bpos"]),
    target=st.sampled_from(["instance", "strategy", "both"]),
    truncate=st.booleans(),
)
@pinned(lambda d: d["graph"]["nodes"].append(d["graph"]["nodes"][0]))
@pinned(lambda d: d["graph"].update(root=[d["graph"]["root"]]))
@pinned(lambda d: d["graph"].update(root={d["graph"]["root"]: d["graph"]["root"]}))
def test_mutated_input_keeps_the_exit_contract(data, docs, command, target, truncate):
    instance, strategy = docs
    if target in ("instance", "both"):
        instance = mutate(data, instance)
    if target in ("strategy", "both"):
        strategy = mutate(data, strategy)
    instance_text, strategy_text = json.dumps(instance), json.dumps(strategy)
    if truncate:
        instance_text = instance_text[: data.draw(st.integers(0, len(instance_text)))]
    code, err = run(command, instance_text, strategy_text)
    assert code in (0, 1)
    if code == 1:
        assert set(json.loads(err.splitlines()[-1])) == {"error"}
