"""Seedable 64-bit hash families.

Every estimator in this library is *randomized by construction*: the paper's
NIPS/CI algorithm, Flajolet–Martin counting, distinct sampling and sticky
sampling all consume uniformly distributed hash values.  Python's builtin
``hash`` is unsuitable (salted per process for strings, identity for small
ints), so this module provides deterministic, seedable families:

* :class:`SplitMix64Hash` — a full-avalanche mixer (Steele et al.), the
  default everywhere.  Fast, vectorizable over ``uint64`` numpy arrays.
* :class:`MultiplyShiftHash` — the classic 2-universal ``(a*x + b) >> s``
  scheme; cheapest, with provable 2-universality.
* :class:`PolynomialHash` — k-wise independent polynomial over the Mersenne
  prime ``2**61 - 1``; used when analysis requires more than pairwise
  independence (e.g. the (eps, delta) arguments of Section 4.7).
* :class:`TabulationHash` — simple tabulation (3-wise independent, with the
  strong concentration behaviour of Patrascu–Thorup).

Arbitrary hashable Python items (ints, strings, bytes, floats, tuples — i.e.
itemsets) are first canonicalized to a 64-bit integer by :func:`encode_item`,
then mixed by the family.  Integer-encoded streams can bypass encoding via
``hash_array`` which operates on whole numpy arrays at once.
"""

from __future__ import annotations

import abc
import random
import struct
from typing import Hashable, Iterable, Sequence

import numpy as np

from .bitops import HASH_BITS

__all__ = [
    "MASK64",
    "MERSENNE_61",
    "coerce_columns",
    "coerce_encoded",
    "encode_item",
    "HashFunction",
    "SplitMix64Hash",
    "MultiplyShiftHash",
    "PolynomialHash",
    "TabulationHash",
    "HashFamily",
]

MASK64 = (1 << 64) - 1
#: Mersenne prime used by :class:`PolynomialHash`.
MERSENNE_61 = (1 << 61) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Type-discriminating constants folded into composite encodings so that, for
# example, the tuple ("a",) and the bare string "a" do not collide trivially.
_TAG_NONE = 0x9E3779B97F4A7C15
_TAG_TRUE = 0xD1B54A32D192ED03
_TAG_FALSE = 0x8CB92BA72F3D8DD7
_TAG_TUPLE = 0xABF5D3CA3A1B9E27


def _fnv1a(data: bytes) -> int:
    """FNV-1a over a byte string, returning a 64-bit value."""
    acc = _FNV_OFFSET
    for byte in data:
        acc = ((acc ^ byte) * _FNV_PRIME) & MASK64
    return acc


def encode_item(item: Hashable) -> int:
    """Canonicalize a hashable item to a deterministic 64-bit integer.

    The encoding is stable across processes and Python versions (unlike the
    builtin ``hash``), which makes every sketch in the library reproducible
    from its seed alone.

    Supported item kinds: ``int``, ``str``, ``bytes``, ``float``, ``bool``,
    ``None`` and (recursively) tuples of these — tuples are what itemsets
    project to (Section 3.1).  Numpy scalars (``np.integer``, ``np.floating``,
    ``np.bool_``, ``np.str_``, ``np.bytes_``) are normalized first, so a
    value read out of an array encodes identically to its Python
    counterpart.
    """
    if isinstance(item, np.generic):
        # np.uint64(3) -> 3, np.float32(0.5) -> 0.5, np.True_ -> True, …
        item = item.item()
    if item is None:
        return _TAG_NONE
    if item is True:
        return _TAG_TRUE
    if item is False:
        return _TAG_FALSE
    if isinstance(item, int):
        return item & MASK64
    if isinstance(item, str):
        return _fnv1a(item.encode("utf-8"))
    if isinstance(item, bytes):
        return _fnv1a(item)
    if isinstance(item, float):
        return _fnv1a(struct.pack("<d", item))
    if isinstance(item, tuple):
        acc = _TAG_TUPLE
        for element in item:
            acc = ((acc ^ encode_item(element)) * _FNV_PRIME) & MASK64
        return acc
    raise TypeError(f"cannot encode item of type {type(item).__name__}")


def coerce_encoded(values) -> np.ndarray:
    """Coerce a pre-encoded column to ``uint64``, or raise.

    Integer dtypes upcast safely: numpy sign-extends, so a negative
    ``int32`` lands on the same residue the scalar path's ``item & MASK64``
    produces.  Float and bool inputs are rejected — ``asarray(...,
    uint64)`` would silently truncate floats (the scalar path hashes their
    IEEE bytes) and collapse bools onto the integers 0/1 (the scalar path
    encodes them as a distinct type) — wrapping *differently* from the
    scalar ``hash`` path.  Encode such items with :func:`encode_items`.
    """
    array = np.asarray(values)
    if array.dtype == np.uint64:
        return array
    if array.dtype == np.bool_ or not np.issubdtype(array.dtype, np.integer):
        raise TypeError(
            f"hash_array expects a pre-encoded integer column, got dtype "
            f"{array.dtype}; run values through encode_items() first"
        )
    return array.astype(np.uint64)


def coerce_columns(lhs, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a batch's lhs and rhs columns with :func:`coerce_encoded`.

    Both must be 1-D and of equal length.  Batch entry points call this
    before they change any state, so a malformed pair raises
    ``ValueError`` with nothing ingested — a 2-D column would otherwise
    count ``len()`` rows while the kernels read its flattened buffer.
    """
    lhs = coerce_encoded(lhs)
    rhs = coerce_encoded(rhs)
    if lhs.ndim != 1 or lhs.shape != rhs.shape:
        raise ValueError(
            f"lhs and rhs must align as 1-D columns of equal shapes, got "
            f"{lhs.shape} vs {rhs.shape}"
        )
    return lhs, rhs


class HashFunction(abc.ABC):
    """A deterministic map from hashable items to 64-bit integers.

    Subclasses implement :meth:`mix` (scalar integer mixing) and may override
    :meth:`hash_array` with a vectorized equivalent.
    """

    #: Number of output bits; all families produce full 64-bit values.
    bits: int = HASH_BITS

    @abc.abstractmethod
    def mix(self, value: int) -> int:
        """Mix an already-encoded 64-bit integer into a hash value."""

    def __call__(self, item: Hashable) -> int:
        return self.mix(encode_item(item))

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Hash a ``uint64`` array of pre-encoded items.

        The base implementation loops in Python; numeric families override
        it with wrap-around ``uint64`` arithmetic.
        """
        values = coerce_encoded(values)
        return np.fromiter(
            (self.mix(int(v)) for v in values), dtype=np.uint64, count=len(values)
        )


class SplitMix64Hash(HashFunction):
    """SplitMix64 finalizer with a per-instance random increment.

    Full avalanche: each input bit flips each output bit with probability
    close to 1/2, which is what Flajolet–Martin style estimators assume of
    their "uniform" hash function.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # A random odd gamma decorrelates independently-seeded instances.
        self.gamma = (rng.getrandbits(64) | 1) & MASK64
        self.seed = seed

    def mix(self, value: int) -> int:
        z = (value + self.gamma) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        z = coerce_encoded(values) + np.uint64(self.gamma)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def __repr__(self) -> str:
        return f"SplitMix64Hash(seed={self.seed})"


class MultiplyShiftHash(HashFunction):
    """Dietzfelbinger's 2-universal multiply-shift scheme on 64 bits.

    ``h(x) = (a*x + b) mod 2**64`` with ``a`` odd.  The full 64-bit product
    is returned; callers that need ``l`` bits take the *high* bits, where the
    universality guarantee lives.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.a = (rng.getrandbits(64) | 1) & MASK64
        self.b = rng.getrandbits(64) & MASK64
        self.seed = seed

    def mix(self, value: int) -> int:
        return (self.a * value + self.b) & MASK64

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        values = coerce_encoded(values)
        return values * np.uint64(self.a) + np.uint64(self.b)

    def __repr__(self) -> str:
        return f"MultiplyShiftHash(seed={self.seed})"


_M61 = np.uint64(MERSENNE_61)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)


def _mod_m61(values: np.ndarray) -> np.ndarray:
    """Exact ``values % (2**61 - 1)`` over ``uint64`` arrays.

    Folds the high bits down (``2**61 ≡ 1 mod p``) and applies one
    conditional subtract; exact for the full ``uint64`` range.
    """
    folded = (values & _M61) + (values >> np.uint64(61))
    return np.where(folded >= _M61, folded - _M61, folded)


def _mulmod_m61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b) % (2**61 - 1)`` for arrays of residues ``< 2**61 - 1``.

    numpy has no 128-bit integers, so the product is assembled from 32-bit
    limbs: ``a*b = ah*bh*2**64 + (ah*bl + al*bh)*2**32 + al*bl`` with every
    partial product fitting in ``uint64``, then each term is reduced with
    the Mersenne identities ``2**64 ≡ 8`` and ``2**61 ≡ 1 (mod p)``.
    """
    ah, al = a >> np.uint64(32), a & _MASK32
    bh, bl = b >> np.uint64(32), b & _MASK32
    high = _mod_m61((ah * bh) << np.uint64(3))
    mid = _mod_m61(ah * bl + al * bh)
    mid = _mod_m61((mid >> np.uint64(29)) + ((mid & _MASK29) << np.uint64(32)))
    low = _mod_m61(al * bl)
    return _mod_m61(high + mid + low)


def _poly_kernel():
    """The compiled poly-hash kernel, or ``None`` to use the numpy path.

    Honours ``REPRO_KERNEL_BACKEND=python`` (the contract's way to pin the
    reference) without going through :func:`repro.kernels.backend.resolve`,
    which counts auto-mode fallbacks — a per-call hash helper must not
    inflate that counter.
    """
    import os

    if os.environ.get("REPRO_KERNEL_BACKEND") == "python":
        return None
    from ..kernels import compiled

    try:
        compiled.load_library()
    except compiled.KernelBuildError:
        return None
    return compiled


class PolynomialHash(HashFunction):
    """k-wise independent polynomial hash over GF(2**61 - 1).

    ``h(x) = (c_{k-1} x^{k-1} + … + c_1 x + c_0) mod p`` with random
    coefficients gives exact k-wise independence over ``[0, p)``.  The output
    is widened back to 64 bits with a SplitMix finalization pass so the full
    bit range is populated (FM cells index low-order bits).
    """

    def __init__(self, seed: int, degree: int = 4) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        rng = random.Random(seed)
        self.degree = degree
        self.coefficients: tuple[int, ...] = tuple(
            rng.randrange(1 if i == degree - 1 else 0, MERSENNE_61)
            for i in range(degree)
        )
        self.seed = seed
        self._finalizer = SplitMix64Hash(seed ^ 0x5DEECE66D)

    def mix(self, value: int) -> int:
        x = value % MERSENNE_61
        acc = 0
        for coefficient in reversed(self.coefficients):
            acc = (acc * x + coefficient) % MERSENNE_61
        return self._finalizer.mix(acc)

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized Horner evaluation over GF(2**61 - 1).

        Bit-for-bit identical to :meth:`mix` applied element-wise; the
        modular products run on 32-bit limbs (see :func:`_mulmod_m61`) —
        or, when the compiled kernel backend is available, in one C Horner
        loop over 128-bit products (pinned to this path by test and
        contract).
        """
        values = coerce_encoded(values)
        kernel = _poly_kernel()
        if kernel is not None and len(values):
            return kernel.poly_hash_array(
                values, self.coefficients, self._finalizer.gamma
            )
        x = _mod_m61(values)
        acc = np.zeros_like(values)
        for coefficient in reversed(self.coefficients):
            acc = _mod_m61(_mulmod_m61(acc, x) + np.uint64(coefficient))
        return self._finalizer.hash_array(acc)

    def __repr__(self) -> str:
        return f"PolynomialHash(seed={self.seed}, degree={self.degree})"


class TabulationHash(HashFunction):
    """Simple tabulation hashing over the 8 bytes of the encoded item.

    XORs eight random 64-bit table entries, one per input byte.  3-wise
    independent, with Chernoff-style concentration far beyond what 3-wise
    independence alone implies (Patrascu & Thorup, 2012).
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.tables: list[list[int]] = [
            [rng.getrandbits(64) for _ in range(256)] for _ in range(8)
        ]
        self.seed = seed

    def mix(self, value: int) -> int:
        acc = 0
        for byte_index in range(8):
            acc ^= self.tables[byte_index][(value >> (8 * byte_index)) & 0xFF]
        return acc

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        values = coerce_encoded(values)
        acc = np.zeros(values.shape, dtype=np.uint64)
        for byte_index in range(8):
            table = np.array(self.tables[byte_index], dtype=np.uint64)
            byte = ((values >> np.uint64(8 * byte_index)) & np.uint64(0xFF)).astype(
                np.int64
            )
            acc ^= table[byte]
        return acc

    def __repr__(self) -> str:
        return f"TabulationHash(seed={self.seed})"


_FAMILY_KINDS = {
    "splitmix": SplitMix64Hash,
    "multiply-shift": MultiplyShiftHash,
    "polynomial": PolynomialHash,
    "tabulation": TabulationHash,
}


class HashFamily:
    """Factory of independent hash functions of a given kind.

    A family is identified by ``(kind, seed)``; :meth:`spawn` derives
    reproducible child functions, so an estimator built from
    ``HashFamily("splitmix", seed=7)`` is bit-for-bit identical across runs.
    """

    def __init__(self, kind: str = "splitmix", seed: int = 0) -> None:
        if kind not in _FAMILY_KINDS:
            raise ValueError(
                f"unknown hash family {kind!r}; choose from {sorted(_FAMILY_KINDS)}"
            )
        self.kind = kind
        self.seed = seed
        self._rng = random.Random((seed << 1) ^ 0xA5A5A5A5)

    def spawn(self, count: int = 1) -> list[HashFunction]:
        """Create ``count`` independent hash functions from this family."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return [
            _FAMILY_KINDS[self.kind](self._rng.getrandbits(62)) for _ in range(count)
        ]

    def one(self) -> HashFunction:
        """Create a single hash function (shorthand for ``spawn(1)[0]``)."""
        return self.spawn(1)[0]

    def __repr__(self) -> str:
        return f"HashFamily(kind={self.kind!r}, seed={self.seed})"


def encode_items(items: Iterable[Hashable]) -> np.ndarray:
    """Encode an iterable of items into a ``uint64`` array via
    :func:`encode_item`.  Convenience for feeding object streams into the
    vectorized ``hash_array`` path."""
    encoded = [encode_item(item) for item in items]
    return np.array(encoded, dtype=np.uint64)


def combine_encoded(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Combine several pre-encoded ``uint64`` arrays column-wise.

    This is the vectorized analogue of :func:`encode_item` on tuples: row
    ``i`` of the result encodes the tuple ``(parts[0][i], …)`` — exactly how
    compound itemsets (multi-attribute ``A``) are formed.
    """
    if not parts:
        raise ValueError("combine_encoded requires at least one column")
    acc = np.full(parts[0].shape, _TAG_TUPLE, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in parts:
        acc = (acc ^ np.asarray(column, dtype=np.uint64)) * prime
    return acc
