"""Training configuration and its plain-text file format.

Config files are `key = value` lines, one per key, with `#` comments.
The keys are exactly the TrainConfig field names; anything else is a
data error. Resolved configs are echoed back in the same format with
every default materialized.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .confidence import VARIANTS
from .errors import DataError

ATTENTION_KINDS = ("ffn-1", "ffn-2", "ffn-3", "dot", "scaled-dot")
GRAPH_MODES = ("dynamic", "static")
POOLING_KINDS = ("attention", "average")
# Values (1 GiB of float64) one model, or one run's prepared windows, may
# hold: far beyond any real config, so a mistyped width or window fails
# typed instead of in an allocation.
MAX_MODEL_SIZE = 2**27


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    decay_rate: float = 1.0
    decay_every: int = 1
    l2: float = 0.0
    dropout: float = 0.0
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0
    confidence: str = "ce"
    attention: str = "ffn-3"
    graph_mode: str = "dynamic"
    pooling: str = "attention"
    max_neighbors: int = 10
    user_embed_width: int = 16
    item_embed_width: int = 16
    hidden_width: int = 64
    # All four attention heads query with the user profile when set; the
    # default pairs each neighbor sequence with the opposite-side profile.
    user_query_only: bool = False
    # Add confidence vectors to the pooled values too, not only to the
    # attention inputs.
    confidence_in_pooling: bool = True
    # Off: the interaction graph records positive interactions only, so no
    # window shows a negative one. Negatives are still checked, scored and
    # trained on.
    include_negative_neighbors: bool = True

    def validate(self) -> "TrainConfig":
        check_finite_and_seed(self)
        if self.learning_rate <= 0:
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 < self.decay_rate <= 1:
            raise DataError(f"decay_rate must be in (0, 1], got {self.decay_rate}")
        if self.decay_every < 1:
            raise DataError(f"decay_every must be >= 1, got {self.decay_every}")
        if self.l2 < 0:
            raise DataError(f"l2 must be non-negative, got {self.l2}")
        if not 0 <= self.dropout < 1:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size < 1 or self.epochs < 1:
            raise DataError("batch_size and epochs must be at least 1")
        if self.max_neighbors < 1:
            raise DataError(f"max_neighbors must be >= 1, got {self.max_neighbors}")
        if min(self.user_embed_width, self.item_embed_width, self.hidden_width) < 1:
            raise DataError("embedding and hidden widths must be positive")
        for value, allowed, what in (
            (self.confidence, VARIANTS, "confidence"),
            (self.attention, ATTENTION_KINDS, "attention"),
            (self.graph_mode, GRAPH_MODES, "graph_mode"),
            (self.pooling, POOLING_KINDS, "pooling"),
        ):
            if value not in allowed:
                raise DataError(f"{what} must be one of {allowed}, got {value!r}")
        return self


def check_finite_and_seed(spec) -> None:
    """DataError unless every float field of a dataclass is finite and its seed >= 0."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DataError(f"{f.name} must be finite, got {value}")
    if spec.seed < 0:
        raise DataError(f"seed must be non-negative, got {spec.seed}")


_TYPES = {"float": float, "int": int, "str": str, "bool": bool}


def field_types(cls) -> dict[str, type]:
    """Field name -> Python type of a dataclass with scalar fields."""
    return {f.name: _TYPES[f.type] for f in dataclasses.fields(cls)}


def _coerce(what: str, kind: type, text: str) -> object:
    text = text.strip()
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return kind(text)
    except ValueError:
        raise DataError(f"{what} expects {kind.__name__}, got {text!r}") from None


def coerce_pairs(pairs: dict[str, str], kinds: dict[str, type], what: str) -> dict[str, object]:
    """Parse `key = value` strings into typed field values; unknown keys are data errors."""
    values = {}
    for key, raw in pairs.items():
        if key not in kinds:
            raise DataError(f"unknown {what} key {key!r}")
        values[key] = _coerce(f"{what} key {key}", kinds[key], raw)
    return values


def config_from_pairs(pairs: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    """base (the defaults when None) with the named fields replaced by parsed values."""
    values = coerce_pairs(pairs, field_types(TrainConfig), "config")
    return dataclasses.replace(base if base is not None else TrainConfig(), **values).validate()


def read_utf8_lines(path: str) -> list[str]:
    """The lines of a text file; a file that is not UTF-8 is a DataError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not UTF-8 text: {err}") from None


def parse_kv_lines(path: str) -> dict[str, str]:
    """Read `key = value` lines, ignoring blanks and # comments."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(read_utf8_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def read_config(path: str) -> TrainConfig:
    return config_from_pairs(parse_kv_lines(path))


def format_config(cfg: TrainConfig) -> str:
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(d: dict) -> TrainConfig:
    """Inverse of config_to_dict: every field, each value already of its field's type."""
    kinds = field_types(TrainConfig)
    unknown = set(d) - set(kinds)
    if unknown:
        raise DataError(f"unknown config keys {sorted(unknown)}")
    missing = [key for key in kinds if key not in d]
    if missing:
        raise DataError(f"missing config keys {missing}")
    for key, value in d.items():
        kind = kinds[key]
        # bool is an int subclass and int widens to float; nothing else converts.
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise DataError(f"config key {key} expects {kind.__name__}, got {value!r}")
    return TrainConfig(**d).validate()
