"""Expected embedding-table ids, computed without FieldVocab.index.

A field's values fill its id block in first-seen order from field_base;
a value the field has not seen takes the block's out-of-vocabulary id,
one past its last value.
"""

from pigat.features import FeatureSchema


def table_id(schema: FeatureSchema, side: str, pos: int, value: str) -> int:
    vocab = schema.fields[side][pos]
    index = vocab.values.index(value) if value in vocab.values else vocab.card
    return schema.field_base(side, pos) + index


def profile_ids(schema: FeatureSchema, side: str, values: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(table_id(schema, side, pos, value) for pos, value in enumerate(values))
