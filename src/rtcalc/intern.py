"""Weak intern tables: one object per distinct value.

Trees, planted trees, forests, multi-indices and symbols are made in
``__new__``, which returns the live object of equal value if there is one,
so they hash and compare by identity, in C and without recursion.  A table
maps a key to a weak reference to the object, which keeps nothing alive and
holds the key in a slot for its callback to find the entry by; the tables
of an earlier import of rtcalc are freed with its classes.
"""

from weakref import ref


class _Ref(ref):
    """A weak reference that carries its table key.  It has no Python
    ``__new__`` or ``__init__``, so one is made in C and the key set after."""

    __slots__ = ("key",)


class Interned:
    """Base of the interned classes; a copy of a value is the value itself."""

    __slots__ = ("__weakref__",)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__


def table(parent=None, name=None):
    """A new table ``(refs, drop)``: a dict from key to weak reference, and the
    callback of its references, which deletes an entry only if it still
    holds the dying one (an equal object may have been stored since).  A
    sub-table ``parent[name]`` leaves ``parent`` when it empties; ``drop``
    holds the dict, not the pair, so the emptied sub-table is then freed by
    reference counting.
    """
    refs = {}

    def drop(r):
        key = r.key
        if refs.get(key) is r:
            del refs[key]
            if not refs and parent is not None and parent.get(name, (None,))[0] is refs:
                del parent[name]

    return refs, drop


def store(entry, key, obj, parent=None, name=None):
    """Put ``obj`` in ``entry`` under ``key`` and return it; ``entry`` goes into
    ``parent`` if new, or if emptied by a collection run while ``obj`` was made."""
    r = entry[0][key] = _Ref(obj, entry[1])
    r.key = key
    if parent is not None and parent.get(name) is not entry:
        parent[name] = entry
    return obj
