"""Transformations of a finite state set and semigroups generated by them.

States are 0-based internally; every parsing/printing surface is 1-based.
A transformation acts on the right, so the product ``s * t`` means
"first s, then t": ``x^(st) = (x^s)^t``.
"""

from __future__ import annotations

import bisect
import functools
import inspect
from dataclasses import dataclass, field
from operator import itemgetter


class DomainMismatchError(ValueError):
    """Operands act on different state counts."""


class ResourceLimitError(RuntimeError):
    """A configured size cap was exceeded; ``stage`` names the computation."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def multiplier(u):
    """The function taking an image tuple g to that of u*g (first u, then g).

    This is the one tuple product of the package: bound once to u, it is
    applied to every g that u is multiplied by.
    """
    if len(u) == 1:
        x = u[0]
        return lambda g: (g[x],)
    return itemgetter(*u)


@dataclass(frozen=True, repr=False, slots=True)
class Transformation:
    """A total map on {0..n-1}, stored as the tuple of images.

    ``Transformation(images)`` checks every entry.  Only a product of maps
    that were checked already skips the check (``_product``, used by
    ``__mul__`` and ``TransformationSemigroup.generate``): its entries are
    entries of a checked map, so they are in range by construction.

    The hash is computed once.  It is ``hash((images,))``, the value of the
    generated dataclass hash, so sets of maps keep their iteration order.
    """

    images: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"image entry {x!r} outside 0..{n - 1}")
        object.__setattr__(self, "_hash", hash((images,)))

    @classmethod
    def _product(cls, images):
        """A map from the image tuple of a product of checked maps, unchecked."""
        t = object.__new__(cls)
        object.__setattr__(t, "images", images)
        object.__setattr__(t, "_hash", hash((images,)))
        return t

    def __hash__(self):
        return self._hash

    @classmethod
    def from_one_based(cls, seq):
        return cls(tuple(x - 1 for x in seq))

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @property
    def n(self):
        return len(self.images)

    @property
    def one_based(self):
        return tuple(x + 1 for x in self.images)

    def __mul__(self, other):
        if not isinstance(other, Transformation):
            return NotImplemented
        if other.n != self.n:
            raise DomainMismatchError(f"cannot compose maps on {self.n} and {other.n} states")
        return Transformation._product(multiplier(self.images)(other.images))

    def __call__(self, x):
        return self.images[x]

    def is_identity(self):
        return all(v == x for x, v in enumerate(self.images))

    def is_idempotent(self):
        return all(self.images[v] == v for v in self.images)

    def image(self):
        mask = 0
        for v in self.images:
            mask |= 1 << v
        return StateSubset(self.n, mask)

    def __repr__(self):
        return "T[%s]" % " ".join(str(x) for x in self.one_based)

    __str__ = __repr__


@dataclass(frozen=True, repr=False)
class StateSubset:
    """Subset of the n states as a bit mask (bit x set iff state x is in)."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} outside 0..{self.n - 1}")

    @classmethod
    def of(cls, n, members):
        mask = 0
        for x in members:
            mask |= 1 << x
        return cls(n, mask)

    @classmethod
    def from_one_based(cls, n, members):
        return cls.of(n, (x - 1 for x in members))

    @classmethod
    def full(cls, n):
        return cls(n, (1 << n) - 1)

    @classmethod
    def singleton(cls, n, x):
        return cls(n, 1 << x)

    @property
    def members(self):
        return tuple(x for x in range(self.n) if self.mask >> x & 1)

    @property
    def one_based(self):
        return tuple(x + 1 for x in self.members)

    def __len__(self):
        return self.mask.bit_count()

    def __bool__(self):
        # an empty subset is still a meaningful value
        return True

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x):
        return 0 <= x < self.n and self.mask >> x & 1 == 1

    def issubset(self, other):
        if other.n != self.n:
            raise DomainMismatchError("subsets live on different state counts")
        return self.mask & ~other.mask == 0

    def apply(self, t):
        """The action image {x^t : x in self}."""
        if t.n != self.n:
            raise DomainMismatchError("subset and map act on different state counts")
        return StateSubset(self.n, apply_mask(self.mask, t.images))

    def sort_key(self):
        return self.members

    def __repr__(self):
        return "{%s}" % ",".join(str(x) for x in self.one_based)

    __str__ = __repr__


def apply_mask(mask, images):
    """Apply an image tuple to a raw bit mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << images[low.bit_length() - 1]
        mask ^= low
    return out


class TransformationSemigroup:
    """A closed set of transformations of {0..n-1} with a fixed generating set.

    ``elements`` is kept sorted lexicographically by image tuple; that order
    is the canonical element numbering used for all reports and diagrams.

    The constructor removes duplicates, sorts and checks that every map acts
    on n states.  ``generate`` and ``adjoin_identity`` skip that work: their
    elements are products of checked generators (plus the identity), which
    they build distinct, sorted and on n states.
    """

    def __init__(self, n, generators, elements):
        generators = tuple(dict.fromkeys(generators))
        elements = tuple(sorted(set(elements), key=lambda t: t.images))
        if not elements:
            raise ValueError("semigroup needs at least one element")
        for t in generators + elements:
            if t.n != n:
                raise DomainMismatchError(f"element {t} does not act on {n} states")
        self._setup(n, generators, elements)

    def _setup(self, n, generators, elements, gens=None):
        """Index distinct, sorted elements on n states; ``gens`` as ``_gens``."""
        self.n = n
        self.generators = generators
        self.elements = elements
        self._index = {t: i for i, t in enumerate(elements)}
        self.has_identity = Transformation.identity(n) in self._index
        self._one = None
        self._gens = gens
        self._memo = {}

    @classmethod
    def generate(cls, n, generators, max_elements=1_000_000):
        """Close the generators under composition.

        Breadth first: products are taken in order of discovery of the left
        factor, with generator index breaking ties, so the discovery order
        (and everything downstream) is deterministic.
        """
        gens = tuple(dict.fromkeys(generators))
        if not gens:
            raise ValueError("at least one generator required")
        for g in gens:
            if g.n != n:
                raise DomainMismatchError(f"generator {g} does not act on {n} states")
        if len(gens) > max_elements:
            raise ResourceLimitError(
                "enumerate",
                f"element cap {max_elements} exceeded by {len(gens)} distinct generators",
            )
        gen_images = tuple(g.images for g in gens)
        seen = set(gen_images)
        frontier = list(gen_images)
        while frontier:
            fresh = []
            for u in frontier:
                times_u = multiplier(u)
                for g in gen_images:
                    w = times_u(g)
                    if w not in seen:
                        if len(seen) >= max_elements:
                            raise ResourceLimitError(
                                "enumerate",
                                f"element cap {max_elements} exceeded while closing generators",
                            )
                        seen.add(w)
                        fresh.append(w)
            frontier = fresh
        ts = cls.__new__(cls)
        ts._setup(n, gens, tuple(map(Transformation._product, sorted(seen))), gen_images)
        return ts

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t):
        return t in self._index

    def index(self, t):
        """Canonical number of an element."""
        return self._index[t]

    def identity(self):
        return Transformation.identity(self.n)

    def adjoin_identity(self):
        """S^1: this semigroup if the identity is present, else identity adjoined."""
        if self.has_identity:
            return self
        if self._one is None:
            one = Transformation.identity(self.n)
            at = bisect.bisect(self.elements, one.images, key=lambda t: t.images)
            gens = None
            if self._gens == tuple(g.images for g in self.generators):
                gens = self._gens + (one.images,)
            S1 = TransformationSemigroup.__new__(TransformationSemigroup)
            S1._setup(
                self.n,
                tuple(dict.fromkeys(self.generators + (one,))),
                self.elements[:at] + (one,) + self.elements[at:],
                gens,
            )
            S1._one = S1
            self._one = S1
        return self._one

    def generating_images(self):
        """Image tuples of a generating set, declared generators first.

        The declared generators that lie in the semigroup start the set.  A
        breadth-first search of right products by the set found so far
        grows from it; an element the search never reaches joins the set,
        in canonical order, and the search goes on from it.  So every
        element is a product of the returned tuples, even when the declared
        generators do not generate ``elements``.

        The set is found once per semigroup and stored.  ``generate`` stores
        its own generators, which its closure has just shown to generate S.
        When S's set is exactly its declared generators, ``adjoin_identity``
        stores them plus the identity for S^1.  Either way the stored list
        is exactly the one the search would return.
        """
        if self._gens is not None:
            return list(self._gens)
        members = {t.images for t in self.elements}
        gens = [g.images for g in self.generators if g.images in members]
        reached = set(gens)
        frontier = list(gens)
        for s in self.elements:
            while frontier:
                fresh = []
                for u in frontier:
                    times_u = multiplier(u)
                    for g in gens:
                        w = times_u(g)
                        if w in members and w not in reached:
                            reached.add(w)
                            fresh.append(w)
                frontier = fresh
            if s.images not in reached:
                gens.append(s.images)
                reached.add(s.images)
                frontier = [s.images]
        self._gens = tuple(gens)
        return gens

    def __repr__(self):
        return (
            f"TransformationSemigroup(n={self.n}, generators={len(self.generators)}, "
            f"elements={len(self.elements)})"
        )


def per_monoid(func):
    """Compute ``func(S^1, *args)`` once per monoid and argument; store it on S^1.

    ``func`` takes a semigroup first.  The wrapper maps it to S^1 and keys
    the memo on the function and the remaining arguments, with keywords and
    defaults filled in positionally, so ``f(S)``, ``f(S^1)``, ``f(m, False)``
    and ``f(m, extended=False)`` share one entry.  A call that raises stores
    nothing.
    """
    params = tuple((p.name, p.default) for p in inspect.signature(func).parameters.values())[1:]

    @functools.wraps(func)
    def memo(ts, *args, **kwargs):
        if kwargs or len(args) < len(params):
            args += tuple(kwargs.pop(name, default) for name, default in params[len(args) :])
            if kwargs or inspect.Parameter.empty in args:
                names = ", ".join(["ts"] + [name for name, _ in params])
                raise TypeError(f"{func.__name__}() takes ({names})")
        m = ts.adjoin_identity()
        key = (func, args)
        try:
            return m._memo[key]
        except KeyError:
            pass
        value = m._memo[key] = func(m, *args)
        return value

    return memo
