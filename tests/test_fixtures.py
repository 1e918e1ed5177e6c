"""The bundled examples: pinned contents, and a fresh instance on every call."""

import copy
import hashlib
import inspect
import json
import os

import pytest

from allocflow import fixtures

# sha256 of the examples as first bundled; any change to a number, a list
# order or an optional key of an example changes them
BUNDLED_SHA256 = "fde6b7ea1ba4e046bf71474bb0a58a0a08e8e9d03c11d6b0f78a7a6233ddee95"
WRITTEN_SHA256 = "a913d1810c03b3f1a6e3f91b9dc54b1e6301f504e5b4e54d6ef6371787339280"
PARAMETERIZED_SHA256 = "7cda345d3e6866257136b44dba657b94a0421efc13b01328ecb5c24635fd0750"

BUILDERS = sorted(
    name
    for name, func in inspect.getmembers(fixtures, inspect.isfunction)
    if func.__module__ == fixtures.__name__ and not name.startswith("_") and name != "write_examples"
)


def _sha256_of_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_bundled_examples_are_pinned():
    assert _sha256_of_json(fixtures.bundled()) == BUNDLED_SHA256


def test_written_examples_are_pinned(tmp_path):
    """The files write_examples writes, hashed as name then bytes, in order."""
    digest = hashlib.sha256()
    for path in fixtures.write_examples(str(tmp_path)):
        digest.update(os.path.basename(path).encode())
        digest.update(open(path, "rb").read())
    assert digest.hexdigest() == WRITTEN_SHA256


def test_parameterized_examples_are_pinned():
    examples = [fixtures.sort_tradeoff(x) for x in (0.25, 0.75, 1.0, 2.0, 3.5)]
    examples += [fixtures.dataset_pipeline(d, s) for d in (1.0, 2.0, 6.0) for s in (0.0, 0.5)]
    assert _sha256_of_json(examples) == PARAMETERIZED_SHA256


def test_optional_keys_appear_only_where_given():
    sorts = fixtures.single_sort()["algorithms"] + fixtures.sort_tradeoff()["algorithms"]
    assert not any("space_label" in entry for entry in sorts)
    assert [entry["memory"] for entry in fixtures.cyclic_invalid()["algorithms"]] == [{}, {}, {}]
    assert all("delay" not in link for link in fixtures.dataset_pipeline()["comm"])


def _mutate(value) -> None:
    """Change value in place: every dict and list below it gains an item and
    every leaf is replaced."""
    for key, item in list(value.items() if isinstance(value, dict) else enumerate(value)):
        if isinstance(item, (dict, list)):
            _mutate(item)
        else:
            value[key] = "changed"
    if isinstance(value, dict):
        value["added"] = "added"
    else:
        value.append("added")


def test_every_public_builder_is_checked():
    assert {"single_sort", "sort_tradeoff", "dataset_pipeline", "vision_pipeline", "bundled"} <= set(BUILDERS)


@pytest.mark.parametrize("name", BUILDERS)
def test_each_call_builds_a_fresh_instance(name):
    """A caller that changes what a builder returned changes nothing that
    the next call returns."""
    build = getattr(fixtures, name)
    first = build()
    kept = copy.deepcopy(first)
    _mutate(first)
    assert first != kept
    assert build() == kept
