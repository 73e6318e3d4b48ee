"""Outside-in span tracer for the kirchhoff4 package.

The package is not edited.  Functions and methods are wrapped by object
identity: a module-level function is replaced in every ``kirchhoff4.*``
module that binds it (so ``from .energy import energy`` in ``nehari`` and
``verify`` is covered), a method is replaced on its class.  Each wrapped
call records one span: name, start, end and the id of the enclosing span.
Spans live in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Span recorder; ``patch_*`` wrap targets, ``uninstall``/``reinstall`` toggle them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original, patched)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Return a traced version of ``fn``; ``on_return`` sees each result."""
        nid = self._name_id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch_function(self, name: str, fn, on_return=None) -> None:
        """Rebind every ``kirchhoff4.*`` module attribute that is ``fn``."""
        traced = self.wrap(name, fn, on_return)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kirchhoff4" or mod_name.startswith("kirchhoff4.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, fn, traced)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{name}: no kirchhoff4 module binds {fn!r}")

    def patch_method(self, name: str, cls: type, attr: str) -> None:
        """Replace ``cls.attr``; plain and class methods are handled."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__))
        else:
            patched = self.wrap(name, raw)
        self._patch(cls, attr, raw, patched)

    def _patch(self, owner, attr: str, original, patched) -> None:
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original, patched))

    def uninstall(self) -> None:
        """Restore every original; the patches are kept for ``reinstall``."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def reinstall(self) -> None:
        for owner, attr, _, patched in self._patches:
            setattr(owner, attr, patched)

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def ancestor_masks(name: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Bit k of entry i is set when some proper ancestor of span i has name k.

    A parent is always recorded before its children, so the masks settle
    after as many passes as the deepest nesting.
    """
    if len(name) and int(name.max()) >= 63:
        raise ValueError("ancestor masks support at most 63 span names")
    bit = np.left_shift(np.int64(1), name.astype(np.int64))
    has_parent = parent >= 0
    p = np.where(has_parent, parent, 0)
    mask = np.zeros(len(name), dtype=np.int64)
    while True:
        new = np.where(has_parent, mask[p] | bit[p], 0)
        if np.array_equal(new, mask):
            return mask
        mask = new


def aggregate(names: list, name: np.ndarray, parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> dict:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice.  Self time is a span's duration
    minus the durations of its direct children (wrapped calls nest, they do
    not overlap).
    """
    dur = end - start
    child = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    outer = (ancestor_masks(name, parent) >> name.astype(np.int64)) & 1 == 0
    out = {}
    for k, label in enumerate(names):
        sel = name == k
        out[label] = {
            "calls": int(sel.sum()),
            "s": float(dur[sel & outer].sum()),
            "self_s": float(self_time[sel].sum()),
        }
    return out
