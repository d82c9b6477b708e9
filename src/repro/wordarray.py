"""Hardware word tables kept as ``array.array``, pickled as lists.

A list of table words holds an int object per non-trivial word, about
36 bytes against an array's 8; but a pickle stores a small int in 2-5
bytes and an array word in full, so a 100k-prefix engine whose tables
are arrays pickles twice as large (the store's checkpoints carry that
pickle).  Slotted classes holding word arrays mix in
:class:`ArraysPickleAsLists` to get the small form in both places.
"""

from __future__ import annotations

from array import array
from typing import Dict, Tuple


class ArraysPickleAsLists:
    """Pickle a slotted object's ``array`` slots as plain lists."""

    __slots__ = ()

    def __getstate__(self) -> Tuple[Dict[str, object], Dict[str, str]]:
        state: Dict[str, object] = {}
        typecodes: Dict[str, str] = {}
        for cls in type(self).__mro__:
            for name in cls.__dict__.get("__slots__", ()):
                if hasattr(self, name):
                    value = getattr(self, name)
                    if isinstance(value, array):
                        typecodes[name] = value.typecode
                        value = value.tolist()
                    state[name] = value
        return state, typecodes

    def __setstate__(self, pickled: Tuple[Dict[str, object],
                                          Dict[str, str]]) -> None:
        state, typecodes = pickled
        for name, value in state.items():
            if name in typecodes:
                value = array(typecodes[name], value)  # type: ignore[arg-type]
            setattr(self, name, value)
