"""Transformations of a finite state set and semigroups generated by them.

States are 0-based internally; every parsing/printing surface is 1-based.
A transformation acts on the right, so the product ``s * t`` means
"first s, then t": ``x^(st) = (x^s)^t``.
"""

import bisect
import functools
from itertools import repeat
from operator import itemgetter


class DomainMismatchError(ValueError):
    """Operands act on different state counts."""


class NotClosedError(ValueError):
    """An element set is not closed: ``pair`` is (s, g) with s*g outside it."""

    def __init__(self, s, g):
        super().__init__(f"element set is not closed: {s} * {g} = {s * g} is missing")
        self.pair = (s, g)


class ResourceLimitError(RuntimeError):
    """A configured size cap was exceeded; ``stage`` names the computation."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def multiplier(u):
    """The function taking an image tuple g to that of u*g (first u, then g).

    This is the tuple product: bound once to u, it is applied to every g
    that u is multiplied by.  A semigroup's own set is closed on keys
    instead (``_times``).
    """
    if len(u) == 1:
        x = u[0]
        return lambda g: (g[x],)
    return itemgetter(*u)


# products are taken in chunks of at most this many left factors
_CHUNK = 4096


def _key_kind(n):
    """The key of an image tuple in a semigroup's set on n states.

    Up to 256 states a key is ``bytes(u)``, whose bytes sort, compare and
    hash as fast as a string; above that a byte cannot hold a state and the
    key is the tuple itself.  Either way ``tuple(key)`` is the image tuple.
    """
    return bytes if n <= 256 else tuple


def _times(n, g):
    """The function taking an iterable of keys of u to an iterable of the keys of u*g.

    On byte keys, ``u.translate(table)[x] = g[u[x]]`` when the table's first
    n bytes are g, so each product is one C-level pass.
    """
    if _key_kind(n) is bytes:
        table = bytes(g) + bytes(256 - n)
        return lambda keys: map(bytes.translate, keys, repeat(table))
    return lambda keys: [multiplier(u)(g) for u in keys]


def _left_times(n, gens):
    """The function taking an iterable of keys of u to, per u, the keys of g*u for g in ``gens``.

    On byte keys, g*u is g's key translated through u's table (u's bytes,
    padded to 256): one C-level pass per product.
    """
    if _key_kind(n) is bytes:
        pad = bytes(256 - n)
        gen_keys = [bytes(g) for g in gens]
        return lambda keys: ([g.translate(u + pad) for g in gen_keys] for u in keys)
    times = [multiplier(g) for g in gens]
    return lambda keys: ([times_g(u) for times_g in times] for u in keys)


def _read_only(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of an immutable record."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


class Transformation:
    """A total map on {0..n-1}, stored as the tuple of images.

    ``Transformation(images)`` checks every entry.  Only a product of maps
    that were checked already skips the check (``_product``, used by
    ``__mul__`` and ``TransformationSemigroup.generate``): its entries are
    entries of a checked map, so they are in range by construction.

    Immutable.  The hash is computed once.  It is ``hash((images,))``, the
    value the class had as a dataclass, so sets of maps keep their
    iteration order.  The repr is computed on first use and kept.
    """

    __slots__ = ("images", "_hash", "_repr")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"image entry {x!r} outside 0..{n - 1}")
        _set_images(self, images)
        _set_hash(self, hash((images,)))
        _set_repr(self, None)

    @classmethod
    def _product(cls, images):
        """A map from the image tuple of a product of checked maps, unchecked."""
        t = object.__new__(cls)
        _set_images(t, images)
        _set_hash(t, hash((images,)))
        _set_repr(t, None)
        return t

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self):
        return self._hash

    __setattr__ = __delattr__ = _read_only

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
        return StateSubset.of(self.n, set(self.images))

    def __repr__(self):
        if self._repr is None:
            _set_repr(self, "T[%s]" % " ".join([str(x + 1) for x in self.images]))
        return self._repr

    __str__ = __repr__


# the slots' own setters: the constructors set the fields through them, past
# the read-only __setattr__, at half the cost of object.__setattr__ by name
_set_images, _set_hash, _set_repr = (
    Transformation.__dict__[name].__set__ for name in ("images", "_hash", "_repr")
)


class StateSubset:
    """Subset of the n states as a bit mask (bit x set iff state x is in).

    Immutable; the hash is ``hash((n, mask))``, as it was for the dataclass.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n, mask):
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} outside 0..{n - 1}")
        _set_n(self, n)
        _set_mask(self, mask)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.mask == other.mask and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.mask))

    __setattr__ = __delattr__ = _read_only

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
        # one pass over the binary digits, lowest first: no shift of the whole mask per state
        return tuple([x for x, bit in enumerate(bin(self.mask)[:1:-1]) if bit == "1"])

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


_set_n, _set_mask = (StateSubset.__dict__[name].__set__ for name in ("n", "mask"))

# masks on more states than this are read from their binary digits
_WIDE = 128


def apply_mask(mask, images):
    """Apply an image tuple to a raw bit mask.

    Up to ``_WIDE`` states the set bits are peeled off one at a time.  Each
    peel copies the whole int, so a wider mask is read once as its binary
    digits instead: ``str.find`` jumps from member to member, and the
    result is written as digits and read back by one ``int(..., 2)``.
    """
    n = len(images)
    if n <= _WIDE:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << images[low.bit_length() - 1]
            mask ^= low
        return out
    digits = bin(mask)
    top = len(digits) - 1
    last = n - 1
    out = bytearray(b"0" * n)
    i = digits.find("1", 2)
    while i >= 0:
        out[last - images[top - i]] = 49  # ord("1")
        i = digits.find("1", i + 1)
    return int(out, 2)


class TransformationSemigroup:
    """A closed set of transformations of {0..n-1} with a fixed generating set.

    ``elements`` is kept sorted lexicographically by image tuple; that order
    is the canonical element numbering used for all reports and diagrams.

    The state is the set of the elements' keys (``_key_kind``: the bytes of
    the image tuple up to 256 states, the tuple above), which ``len``,
    ``in``, ``has_identity``, ``adjoin_identity`` and the search of
    ``generating_images`` read.  The set is never read in its iteration
    order, which follows the per-process hash of bytes.  The constructor
    removes duplicates, sorts, checks that every map acts on n states,
    keeps ``elements`` and their ``keys`` and decides closure: every
    element is a product of ``generating_images()``, so the set is closed
    exactly when s*g lies in it for every element s and every g of that
    list, and the first missing product raises ``NotClosedError``.
    ``generate`` keeps its closure's set, whose keys are products of
    checked generators, and builds ``keys``, ``elements`` and the index on
    first use, as do its S^1 and ``_on_keys``, whose closure is decided
    as the constructor's.  Every instance is therefore closed.
    """

    def __init__(self, n, generators, elements):
        generators = tuple(dict.fromkeys(generators))
        elements = tuple(sorted(set(elements), key=lambda t: t.images))
        if not elements:
            raise ValueError("semigroup needs at least one element")
        for t in generators + elements:
            if t.n != n:
                raise DomainMismatchError(f"element {t} does not act on {n} states")
        key = _key_kind(n)
        keys = [key(t.images) for t in elements]
        self._setup(n, generators, set(keys))
        self.elements = elements
        self.keys = keys
        self._decide_closure()

    @classmethod
    def _on_keys(cls, n, generators, images, gens=None):
        """The semigroup on n states whose elements' keys are the set ``images``.

        Only the set is kept, as ``generate`` keeps its closure's, and
        ``keys`` and ``elements`` are built on first use.  ``gens``, when
        given, is stored as ``generating_images()``: the caller vouches that
        it is the list the search would return.  Closure is decided as the
        constructor decides it.
        """
        ts = cls.__new__(cls)
        ts._setup(n, tuple(dict.fromkeys(generators)), images, gens)
        ts._decide_closure()
        return ts

    def _decide_closure(self):
        """Raise ``NotClosedError`` if some element times a generating image lies outside the set."""
        n, keys = self.n, self.keys
        gens = self.generating_images()
        if all(self._images.issuperset(_times(n, g)(keys)) for g in gens):
            return
        # not closed: name the first missing (s, g), s in element order, then g in list order
        for s in self.elements:
            times_s = multiplier(s.images)
            for g in gens:
                if self._key(times_s(g)) not in self._images:
                    raise NotClosedError(s, Transformation._product(g))

    def _setup(self, n, generators, images, gens=None):
        """State on n states: the keys of the elements, and ``gens`` as ``_gens``."""
        self.n = n
        self.generators = generators
        self._key = _key_kind(n)
        self._images = images
        self.has_identity = self._key(range(n)) in images
        self._one = None
        self._gens = gens
        self._from = None
        self._memo = {}

    @functools.cached_property
    def elements(self):
        """The elements in canonical order, built on first use.

        The S^1 of a semigroup without identity inserts the identity into
        that semigroup's elements, so the two share their element objects.
        """
        if self._from is None:
            return tuple(map(Transformation._product, map(tuple, self.keys)))
        base, one = self._from
        at = bisect.bisect(base.elements, one.images, key=lambda t: t.images)
        return base.elements[:at] + (one,) + base.elements[at:]

    @functools.cached_property
    def keys(self):
        """The elements' keys in canonical order, built on first use.

        Byte strings sort as their image tuples do, so ``keys[i]`` is the key
        of ``elements[i]``.
        """
        return sorted(self._images)

    @functools.cached_property
    def _index(self):
        return {t: i for i, t in enumerate(self.elements)}

    @classmethod
    def generate(cls, n, generators, max_elements=1_000_000):
        """Close the generators under composition.

        Breadth first on keys, in chunks of at most 4,096 left factors: each
        chunk is multiplied by each generator in one pass, and the products
        not seen yet join the next level.  The cap is checked after every
        chunk, so the set never holds more than ``max_elements`` plus the
        products of one chunk.  Only the set of keys is kept; ``elements`` is
        built from it when first read.
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
        times = [_times(n, g) for g in gen_images]
        frontier = list(map(_key_kind(n), gen_images))
        seen = set(frontier)
        while frontier:
            fresh = []
            for at in range(0, len(frontier), _CHUNK):
                chunk = frontier[at : at + _CHUNK]
                for times_g in times:
                    new = set(times_g(chunk)).difference(seen)
                    seen.update(new)
                    fresh.extend(new)
                if len(seen) > max_elements:
                    raise ResourceLimitError(
                        "enumerate",
                        f"element cap {max_elements} exceeded while closing generators",
                    )
            frontier = fresh
        ts = cls.__new__(cls)
        ts._setup(n, gens, seen, gen_images)
        return ts

    def __len__(self):
        return len(self._images)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t):
        return len(t.images) == self.n and self._key(t.images) in self._images

    def index(self, t):
        """Canonical number of an element."""
        return self._index[t]

    def identity(self):
        return Transformation.identity(self.n)

    def adjoin_identity(self):
        """S^1: this semigroup if the identity is present, else identity adjoined.

        S^1's set is this one's plus the identity's key.  Its elements, built
        on first use, are this semigroup's with the identity inserted.
        """
        if self.has_identity:
            return self
        if self._one is None:
            one = Transformation.identity(self.n)
            gens = None
            if self._gens == tuple(g.images for g in self.generators):
                gens = self._gens + (one.images,)
            S1 = TransformationSemigroup.__new__(TransformationSemigroup)
            S1._setup(
                self.n,
                tuple(dict.fromkeys(self.generators + (one,))),
                self._images | {self._key(one.images)},
                gens,
            )
            S1._from = (self, one)
            S1._one = S1
            self._one = S1
        return self._one

    def generating_images(self):
        """Image tuples of a generating set, declared generators first.

        The declared generators in the semigroup join first, then each
        element not yet a product of the set, by decreasing rank (a product
        never outranks its factors), then in canonical order.  When h joins,
        every element reached so far is multiplied by h once, and a
        breadth-first search of right products by the whole set goes on from
        there.  The set is found once and stored; ``generate`` and
        ``adjoin_identity`` store their own generators (plus the identity
        for S^1), which is exactly the list the search would return.
        """
        if self._gens is not None:
            return list(self._gens)
        n, key, members = self.n, self._key, self._images
        gens = []
        times = []
        reached = set()

        def join(h):
            gens.append(h)
            times.append(_times(n, h))
            frontier = {key(h), *times[-1](reached)}
            while frontier:
                fresh = frontier.intersection(members).difference(reached)
                reached.update(fresh)
                frontier = set().union(*[times_g(fresh) for times_g in times])

        for g in self.generators:
            if g in self:
                join(g.images)
        # byte strings sort, and count distinct entries, as their tuples do
        for h in sorted(members - reached, key=lambda u: (-len(set(u)), u)):
            if h not in reached:
                join(tuple(h))
        self._gens = tuple(gens)
        return gens

    def __repr__(self):
        return (
            f"TransformationSemigroup(n={self.n}, generators={len(self.generators)}, "
            f"elements={len(self)})"
        )


# stands in for an argument without a default that a call left out
_REQUIRED = object()


def per_monoid(func):
    """Compute ``func(S^1, *args)`` once per monoid and argument; store it on S^1.

    ``func`` takes a semigroup first.  The wrapper maps it to S^1 and keys
    the memo on the function and the remaining arguments, with keywords and
    defaults filled in positionally, so ``f(S)``, ``f(S^1)``, ``f(m, False)``
    and ``f(m, extended=False)`` share one entry.  The parameter names and
    defaults are read once, from ``func.__code__`` and ``func.__defaults__``.
    A call that raises stores nothing.
    """
    code = func.__code__
    names = code.co_varnames[1 : code.co_argcount]
    given = func.__defaults__ or ()
    defaults = (_REQUIRED,) * (len(names) - len(given)) + given
    params = tuple(zip(names, defaults))

    @functools.wraps(func)
    def memo(ts, *args, **kwargs):
        if kwargs or len(args) < len(names):
            at = len(args)
            if kwargs:
                args += tuple([kwargs.pop(name, d) for name, d in params[at:]])
            else:
                args += defaults[at:]
            if kwargs or _REQUIRED in args:
                raise TypeError(f"{func.__name__}() takes ({', '.join(('ts',) + names)})")
        m = ts.adjoin_identity()
        key = (func, args)
        try:
            return m._memo[key]
        except KeyError:
            pass
        value = m._memo[key] = func(m, *args)
        return value

    return memo
