"""The one dict codec of :mod:`repro.obs`: a record's payload *is* its
field list.

Every report and ledger row is a dataclass mixing in :class:`Record`, so
a new payload kind costs a dataclass, not three spellings of its fields.
One whose fields hold records rebuilds them in ``__post_init__`` with
:func:`records`: a payload and a live object construct the same way.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, fields
from typing import ClassVar, Dict, Iterable, List, Optional

from repro.common.errors import ConfigurationError


class Record:
    """Dataclass mixin: ``to_dict``/``from_dict`` derived from the fields.

    Both directions copy, so neither a returned payload nor the dict
    handed to :meth:`from_dict` aliases the record.
    """

    #: The ``kind`` tag the payload carries (``None``: untagged).
    KIND: ClassVar[Optional[str]] = None

    def to_dict(self) -> Dict:
        data = asdict(self)
        if self.KIND is not None:
            data["kind"] = self.KIND
        return data

    @classmethod
    def from_dict(cls, data: Dict):
        """Build a record from its payload; absent optional fields take
        the dataclass defaults, a foreign ``kind`` or a key that is not
        a field is a :class:`ConfigurationError`."""
        data = copy.deepcopy(data)
        if cls.KIND is not None:
            kind = data.pop("kind", None)
            if kind != cls.KIND:
                raise ConfigurationError(
                    f"not a {cls.KIND} payload: kind={kind!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"{cls.__name__} payload has unknown field(s) {unknown}")
        return cls(**data)


def records(cls, items: Iterable) -> List:
    """A list of *cls*, building the ones that are payloads."""
    return [item if isinstance(item, cls) else cls.from_dict(item)
            for item in items]
