"""Record schemas: short fields plus long-field descriptors (Section 2).

The paper frames large objects from the storage system's perspective:

    "a person object with attributes name, picture, and voice ... can be
     mapped to a small database object that contains the short field
     name and two long field descriptors corresponding to long fields
     picture and voice"

A :class:`Schema` describes such a small object: INT and TEXT fields are
stored inline in the record; LONG fields store only a descriptor — the
object id under whichever large-object mechanism the store uses — while
the bytes themselves live in the large-object area.
"""

from __future__ import annotations

import dataclasses
import enum
import struct

from repro.core.errors import SchemaError


class FieldKind(enum.Enum):
    """The storable field kinds."""

    INT = "int"
    TEXT = "text"
    LONG = "long"


@dataclasses.dataclass(frozen=True)
class Field:
    """One attribute of a record."""

    name: str
    kind: FieldKind


_INT = struct.Struct("<q")
_LEN = struct.Struct("<I")


class Schema:
    """An ordered set of fields with record (de)serialization.

    Serialized record layout: for each field in order —
    INT: 8-byte signed integer; TEXT: 4-byte length + UTF-8 bytes;
    LONG: 8-byte large-object id (the long field descriptor).
    """

    def __init__(self, fields: list[Field]) -> None:
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [field.name for field in fields]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate field names")
        self.fields = list(fields)
        self._by_name = {field.name: field for field in fields}

    @classmethod
    def of(cls, **kinds: str) -> "Schema":
        """Concise constructor: ``Schema.of(name="text", age="int")``."""
        return cls(
            [Field(name, FieldKind(kind)) for name, kind in kinds.items()]
        )

    def field(self, name: str) -> Field:
        """Look up a field by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no field named {name!r}") from None

    def long_fields(self) -> list[Field]:
        """The schema's long fields, in order."""
        return [f for f in self.fields if f.kind is FieldKind.LONG]

    # ------------------------------------------------------------------
    # Record (de)serialization
    # ------------------------------------------------------------------
    def check_names(self, values: dict[str, object]) -> None:
        """Refuse a record naming fields the schema lacks."""
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown fields: {sorted(unknown)}")

    def serialize(self, values: dict[str, object]) -> bytes:
        """Encode a record; LONG values must already be object ids."""
        self.check_names(values)
        parts = []
        for field in self.fields:
            if field.name not in values:
                raise SchemaError(f"missing field {field.name!r}")
            value = values[field.name]
            if field.kind is FieldKind.INT:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(f"{field.name!r} must be an int")
                parts.append(_INT.pack(value))
            elif field.kind is FieldKind.TEXT:
                if not isinstance(value, str):
                    raise SchemaError(f"{field.name!r} must be a str")
                encoded = value.encode("utf-8")
                parts.append(_LEN.pack(len(encoded)) + encoded)
            else:  # LONG: a large-object id
                if not isinstance(value, int) or value < 0:
                    raise SchemaError(
                        f"{field.name!r} must be a large-object id"
                    )
                parts.append(_INT.pack(value))
        return b"".join(parts)

    def deserialize(self, data: bytes) -> dict[str, object]:
        """Decode a record produced by :meth:`serialize`."""
        values: dict[str, object] = {}
        offset = 0
        for field in self.fields:
            if field.kind is FieldKind.TEXT:
                (length,) = _LEN.unpack_from(data, offset)
                offset += _LEN.size
                values[field.name] = data[offset : offset + length].decode(
                    "utf-8"
                )
                offset += length
            else:
                (value,) = _INT.unpack_from(data, offset)
                offset += _INT.size
                values[field.name] = value
        if offset != len(data):
            raise SchemaError("trailing bytes after record")
        return values
