"""Group elements for the two acting groups: the integers and the
lamplighter group generated by a shift and a lamp toggle.

A lamplighter element is kept in the normal form  shift^a . toggles(b)
where b is a finite, strictly sorted tuple of toggle sites.  Rendered
as  "s^a t{b1,b2,...}".
"""

from dataclasses import dataclass
from operator import lt

INTEGERS = "integers"
LAMPLIGHTER = "lamplighter"


class GroupMismatchError(ValueError):
    pass


def _check_shift(a):
    if not isinstance(a, int):
        raise TypeError("shift %r is not an int" % (a,))


@dataclass(frozen=True)
class IntShift:
    a: int

    def __post_init__(self):
        _check_shift(self.a)


@dataclass(frozen=True)
class Lamp:
    a: int
    lamps: tuple = ()

    def __post_init__(self):
        _check_shift(self.a)
        lamps = self.lamps
        if type(lamps) is not tuple:
            lamps = tuple(lamps)
            object.__setattr__(self, "lamps", lamps)
        if not all(map(lt, lamps, lamps[1:])):
            raise ValueError("toggle sites must be strictly sorted: %r" % (lamps,))


def multiply(g, h):
    """Compose g.h; the product acts by applying h first, then g."""
    if isinstance(g, IntShift) and isinstance(h, IntShift):
        return IntShift(g.a + h.a)
    if isinstance(g, Lamp) and isinstance(h, Lamp):
        # toggles commute past a shift by moving their sites along:
        # toggles(d) . shift^a = shift^a . toggles(d + a)
        moved = frozenset(d + h.a for d in g.lamps)
        return Lamp(g.a + h.a, tuple(sorted(moved.symmetric_difference(h.lamps))))
    raise GroupMismatchError("cannot multiply %r and %r" % (g, h))


def render(g):
    if isinstance(g, IntShift):
        return str(g.a)
    if isinstance(g, Lamp):
        return "s^%d t{%s}" % (g.a, ",".join(str(d) for d in g.lamps))
    raise TypeError("not a group element: %r" % (g,))


def parse(text, group):
    text = text.strip()
    if group == INTEGERS:
        try:
            return IntShift(int(text))
        except ValueError:
            raise ValueError("bad integer element: %r" % (text,))
    if group != LAMPLIGHTER:
        raise ValueError("unknown group: %r" % (group,))
    if not text.startswith("s^"):
        raise ValueError("bad lamplighter element: %r" % (text,))
    head, _, tail = text[2:].partition(" ")
    a = int(head)
    tail = tail.strip()
    if not (tail.startswith("t{") and tail.endswith("}")):
        raise ValueError("bad lamplighter element: %r" % (text,))
    inner = tail[2:-1].strip()
    sites = tuple(int(p) for p in inner.split(",")) if inner else ()
    return Lamp(a, sites)
