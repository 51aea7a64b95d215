"""Config file reader: every mutated file is rejected as data or round-trips."""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pigat.config import TrainConfig, config_from_dict, config_to_dict, format_config, read_config
from pigat.errors import DataError

VALID = format_config(TrainConfig(l2=0.01, dropout=0.25, seed=7, pooling="average"))
KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
TRICKY = [
    "", " ", "nan", "-nan", "inf", "-inf", "1e400", "-1", "0", "-0.0", "1e-320", "1_000",
    "0x10", "True", "yes", "none", "ffn-3", "dot", "static", "1.5", "10", "2 3", "=", "#",
]
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
mutation = st.one_of(
    st.tuples(st.just("key"), st.sampled_from(KEYS + ["", "turbo", "Seed"]) | text),
    st.tuples(st.just("value"), st.sampled_from(TRICKY) | text),
    st.tuples(st.just("separator"), st.sampled_from(["", ":", "==", " = = ", "\t", "= #"]) | text),
    st.tuples(st.just("drop"), st.none()),
    st.tuples(st.just("duplicate"), st.none()),
)


def mutate(lines: list[str], edits: list[tuple[int, tuple[str, str | None]]]) -> str:
    lines = list(lines)
    for pos, (kind, arg) in edits:
        if not lines:
            break
        i = pos % len(lines)
        key, _, value = lines[i].partition(" = ")
        if kind == "key":
            lines[i] = f"{arg} = {value}"
        elif kind == "value":
            lines[i] = f"{key} = {arg}"
        elif kind == "separator":
            lines[i] = f"{key}{arg}{value}"
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(st.tuples(st.integers(0, 100), mutation), min_size=1, max_size=4),
    splice=st.none() | st.tuples(st.integers(0, len(VALID)), st.binary(min_size=1, max_size=2)),
)
@example(edits=[(KEYS.index("l2"), ("value", "nan"))], splice=None)
@example(edits=[(KEYS.index("learning_rate"), ("value", "inf"))], splice=None)
@example(edits=[], splice=(0, b"\xff"))
def test_mutated_file_is_rejected_or_round_trips(tmp_path, edits, splice):
    raw = mutate(VALID.splitlines(), edits).encode()
    if splice is not None:  # raw bytes, possibly not UTF-8
        at, junk = splice
        raw = raw[:at] + junk + raw[at:]
    path = tmp_path / "config.txt"
    path.write_bytes(raw)
    try:
        config = read_config(str(path))
    except DataError:
        return
    echoed = tmp_path / "echoed.txt"
    echoed.write_text(format_config(config), encoding="utf-8")
    again = read_config(str(echoed))
    assert again == config
    assert format_config(again) == format_config(config)


def test_valid_file_round_trips(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(VALID)
    assert format_config(read_config(str(path))) == VALID



@pytest.mark.parametrize("key", KEYS)
def test_config_dict_must_name_every_field(key):
    # A checkpoint header missing a key would otherwise load that key's default.
    values = config_to_dict(TrainConfig(confidence_in_pooling=False, l2=0.01))
    assert config_from_dict(values) == TrainConfig(confidence_in_pooling=False, l2=0.01)
    del values[key]
    with pytest.raises(DataError, match=f"missing config keys \\['{key}'\\]"):
        config_from_dict(values)
