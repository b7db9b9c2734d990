"""Deterministic hierarchical seed derivation.

A single root seed is split into independent named streams (init, shuffle,
noise, data, ...) so that no two stages ever share generator state. Path
labels are hashed with sha256, so derived streams depend only on the root
seed and the label path, never on call order or platform.

`derive_seeds` and `pcg64_states` compute, for whole arrays of paths at
once, what `derive_seed` and `np.random.default_rng(derived_seed)` compute
one stream at a time. They follow NumPy's documented SeedSequence mixing
(numpy/random/bit_generator.pyx) and PCG64's seeding (numpy/random/src/
pcg64), in uint32 arithmetic that wraps as the C code does. `PhaseStreams`
sets those states on one reused generator per root and falls back to
`default_rng(derive_seed(...))` if this NumPy seeds otherwise.
"""

from __future__ import annotations

import functools
import hashlib
import warnings

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4
# the multiplier of PCG64's 128-bit linear congruential step
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


@functools.cache
def _label_token(label: str) -> int:
    """The token of a string path part, hashed once per label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _token(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return _label_token(part)
    raise TypeError(f"seed path parts must be int or str, got {type(part).__name__}")


def seed_sequence(root: int, *path: int | str) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by (root, *path)."""
    return np.random.SeedSequence((_token(root), *(_token(p) for p in path)))


def rng_for(root: int, *path: int | str) -> np.random.Generator:
    """Fresh Generator for the stream identified by (root, *path)."""
    return np.random.default_rng(seed_sequence(root, *path))


def derive_seed(root: int, *path: int | str) -> int:
    """64-bit integer seed for APIs that take a plain int."""
    return int(seed_sequence(root, *path).generate_state(1, np.uint64)[0])


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """The hash constant each of `count` successive hashes uses: it starts
    at `init` and is multiplied by `mult` before every use but the first
    xor, exactly as SeedSequence advances it."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return [np.uint32(c) for c in consts]


def _hash(value: np.ndarray, consts: list[np.uint32], k: int) -> np.ndarray:
    """SeedSequence's hash of a word column with the k-th hash constant:
    xor with it, multiply by the next one, fold the high half down."""
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ (value >> np.uint32(16))


def _mixed_pools(words: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy of entropy words given as columns (N,) of
    uint32 (every row has the same word count): the 4 pool words of each
    row."""
    rows = words[0].shape
    # the hash constant advances once per hashmix call, so the calls are
    # laid out in their order first: pool fill, all-pairs mixing, the rest
    fill = [words[i] if i < len(words) else np.zeros(rows, np.uint32)
            for i in range(_POOL_SIZE)]
    pairs = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst]
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + len(pairs)
                             + _POOL_SIZE * max(len(words) - _POOL_SIZE, 0))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> np.uint32(16))

    pool = [_hash(value, consts, k) for k, value in enumerate(fill)]
    k = _POOL_SIZE
    for src, dst in pairs:
        pool[dst] = mix(pool[dst], _hash(pool[src], consts, k))
        k += 1
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], _hash(words[src], consts, k))
            k += 1
    return pool


def _generate_state(pool: list[np.ndarray], n_words64: int) -> list[np.ndarray]:
    """SeedSequence.generate_state(n_words64, np.uint64) of each row's pool:
    n_words64 columns (N,) of uint64."""
    consts = _hash_constants(_INIT_B, _MULT_B, 2 * n_words64)
    out32 = [_hash(pool[k % _POOL_SIZE], consts, k) for k in range(2 * n_words64)]
    return [out32[2 * j].astype(np.uint64) | (out32[2 * j + 1].astype(np.uint64) << np.uint64(32))
            for j in range(n_words64)]


def _seed_sequence_states(values: np.ndarray, n_words64: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words64, np.uint64) for each
    row of `values` (N, k) uint64, the entropy being the row's ints: an int
    below 2**32 is one entropy word, a larger one two (low word first).
    Rows are grouped by that word layout and each group is vectorised.
    Returns (N, n_words64) uint64."""
    low = (values & np.uint64(_MASK32)).astype(np.uint32)
    high = (values >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    layouts = wide @ (1 << np.arange(values.shape[1]))
    out = np.empty((len(values), n_words64), dtype=np.uint64)
    for layout in np.flatnonzero(np.bincount(layouts)):  # np.unique would load numpy.ma
        rows = np.flatnonzero(layouts == layout)
        words = []
        for c in range(values.shape[1]):
            words.append(low[rows, c])
            if layout >> c & 1:
                words.append(high[rows, c])
        out[rows] = np.stack(_generate_state(_mixed_pools(words), n_words64), axis=-1)
    return out


def derive_seeds(root: int | np.ndarray, *path: int | str | np.ndarray) -> np.ndarray:
    """derive_seed(root, *path) for every element of the broadcast parts,
    as uint64 of the broadcast shape. A part is an int, a str or an array
    of ints (negative ones wrap to 64 bits, as derive_seed masks them)."""
    parts = []
    for part in (root, *path):
        if isinstance(part, np.ndarray):
            if not np.issubdtype(part.dtype, np.integer):
                raise TypeError(f"seed path arrays must hold ints, got {part.dtype}")
            parts.append(part.astype(np.uint64))
        else:
            parts.append(np.uint64(_token(part)))
    shape = np.broadcast_shapes(*(np.shape(p) for p in parts))
    values = np.stack([np.broadcast_to(p, shape).ravel() for p in parts], axis=-1)
    return _seed_sequence_states(values, 1).reshape(shape)


def pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) of np.random.default_rng(int(seed)).bit_generator
    for each uint64 seed: PCG64 takes SeedSequence(seed).generate_state(4,
    np.uint64) as (initstate high, low, initseq high, low), sets inc =
    2 * initseq + 1, then steps its LCG from 0, adds initstate and steps
    again."""
    words = _seed_sequence_states(np.asarray(seeds, dtype=np.uint64).reshape(-1, 1), 4)
    states = []
    for s_high, s_low, i_high, i_low in words.tolist():
        inc = ((i_high << 65) | (i_low << 1) | 1) & _MASK128
        states.append((((inc + ((s_high << 64) | s_low)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


@functools.cache
def _derivation_matches() -> bool:
    """Whether derive_seeds and pcg64_states give this NumPy's streams,
    checked on one stream at first use; warns once if they do not."""
    root, path = 2**63 + 2**40 + 7, ("noise", 3, 1)
    # derive_seed(root, *path) spelled out, so that the check builds no
    # stream through the functions a traced run counts
    entropy = (_token(root), *(_token(p) for p in path))
    seed = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
    state = np.random.default_rng(seed).bit_generator.state["state"]
    if pcg64_states(derive_seeds(root, *path)) == [(state["state"], state["inc"])]:
        return True
    warnings.warn(f"NumPy {np.__version__} seeds PCG64 streams otherwise than "
                  "boundary_distill.seeding derives them; every noise stream is built "
                  "with default_rng(derive_seed(...)) instead", RuntimeWarning, stacklevel=3)
    return False


class PhaseStreams:
    """The generators default_rng(derive_seed(root, label, epoch, batch)) of
    each root, for epochs 1..epochs and batches 0..batches-1, with every
    state derived in one pass. `at` sets the states of one (epoch, batch)
    on one reused generator per root, so a generator is valid until the
    next call. If this NumPy seeds otherwise (see _derivation_matches),
    `at` builds each generator with default_rng(derive_seed(...))."""

    def __init__(self, roots: list[int], label: str, epochs: int, batches: int):
        self.roots, self.label, self.batches = roots, label, batches
        self.states = None
        if _derivation_matches():
            tokens = np.array([_token(r) for r in roots], dtype=np.uint64)
            seeds = derive_seeds(tokens[:, None, None], label, np.arange(1, epochs + 1)[:, None],
                                 np.arange(batches))
            states = pcg64_states(seeds)
            per_root = epochs * batches
            self.states = [states[r * per_root : (r + 1) * per_root] for r in range(len(roots))]
            self.generators = [np.random.Generator(np.random.PCG64(0)) for _ in roots]

    def at(self, epoch: int, batch: int) -> list[np.random.Generator]:
        if self.states is None:
            return [np.random.default_rng(derive_seed(root, self.label, epoch, batch))
                    for root in self.roots]
        k = (epoch - 1) * self.batches + batch
        for generator, states in zip(self.generators, self.states):
            state, inc = states[k]
            generator.bit_generator.state = {"bit_generator": "PCG64",
                                             "state": {"state": state, "inc": inc},
                                             "has_uint32": 0, "uinteger": 0}
        return self.generators
