"""Displacement distributions and reproducible field sampling.

Sampling is counter-based: every (master_seed, sample_index, site_index)
triple owns a dedicated Philox stream, so fields are bit-reproducible no
matter how samples are scheduled, and adding sites or samples never perturbs
existing draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .potentials import FieldChunk
from .supports import SupportSet, ball, unit_vector

DISTRIBUTION_KINDS = ("uniform-ball", "uniform-sphere", "polar", "product-box")

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class DisplacementDistribution:
    """A per-site displacement law together with its support set.

    kind:
      uniform-ball    uniform on a solid ball (radial density (k+1) r^k / R^{k+1}
                      with k = d-1)
      uniform-sphere  uniform on the boundary shell (atomic radial law)
      polar           isotropic direction, radial density (k+1) r^k / R^{k+1}
                      for a chosen exponent k >= 0
      product-box     independent uniform coordinates on an axis-aligned box
    """

    kind: str
    support: SupportSet
    radial_exponent: float | None = None

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in ("uniform-ball", "polar") and self.support.kind != "ball":
            raise ValueError(f"{self.kind} needs a ball support")
        if self.kind == "uniform-sphere" and self.support.kind != "sphere":
            raise ValueError("uniform-sphere needs a sphere support")
        if self.kind == "product-box":
            if self.support.kind != "polytope" or not self.support.is_box:
                raise ValueError("product-box needs an axis-aligned box support")
        if self.kind == "polar":
            if self.radial_exponent is None or self.radial_exponent < 0:
                raise ValueError("polar needs radial_exponent >= 0")

    @property
    def d(self):
        return self.support.d

    def draw(self, rng):
        """One displacement from this law using the given generator."""
        d = self.d
        if self.kind == "product-box":
            lo = self.support.vertices.min(axis=0)
            hi = self.support.vertices.max(axis=0)
            return rng.uniform(lo, hi)
        center, radius = self.support.center, self.support.radius
        direction = unit_vector(rng, d)
        if self.kind == "uniform-sphere":
            return center + radius * direction
        k = float(d - 1) if self.kind == "uniform-ball" else float(self.radial_exponent)
        r = radius * rng.uniform() ** (1.0 / (k + 1.0))
        return center + r * direction


def site_rng(master_seed, sample_index, site_index):
    """Dedicated Philox stream for one site of one sample."""
    bg = np.random.Philox(key=[master_seed & _U64, sample_index])
    bg.advance(site_index << 16)
    return np.random.Generator(bg)


# Sites settled by the vector path and sites handed to the per-site loop,
# summed over every ``sample_fields`` call in this process.
SITE_COUNTS = {"vector": 0, "loop": 0}

# Below about this many (sample, site) pairs in a chunk the vector path's
# fixed cost (≈0.5 ms) exceeds the per-site loop's.
_VECTOR_MIN_SITES = 33

# Most (sample, site) pairs in one vector pass: a chunk's pairs go in blocks
# of this many, so the pass's working arrays stay near a 2001-site field's.
_PHILOX_PAIRS = 2048


def sample_fields(dist, n, master_seed, samples):
    """Draw the displacement fields of a chunk of samples on the lattice
    {-n..n}^d: a ``FieldChunk`` whose row k is sample ``samples[k]``'s field,
    sites in canonical order.

    Site k of sample s draws from ``site_rng(master_seed, s, k)``:
    Philox4x64-10 with the key NumPy builds from
    ``[master_seed & (2**64 - 1), s]`` (read back from that generator, since
    NumPy passes such a list through float64 when an entry is 2**63 or more)
    and counters ``(k << 16) + 1, + 2, ...``, four 64-bit words per counter.
    Philox is counter-based, so the first block of every (sample, site) pair
    of the chunk is computed in NumPy ``uint64`` arithmetic, ``_PHILOX_PAIRS``
    pairs per pass with one key per pair, and turned into draws with NumPy's
    own formulas:

    - the d = 1 uniform-ball and polar laws use only the sign of one
      ``standard_normal``, which the ziggurat takes from bit 8 of the first
      word.  It returns at the first try iff ``rabs = (w >> 9) & (2**52 - 1)``
      is below its layer's (unexposed) ``ki[w & 0xff]``; a site is settled
      when ``rabs`` is at or below ``_FIRST_TRY_BOUND`` for its layer;
    - the radius is ``R * u**(1 / (k + 1))`` with the uniform
      ``u = (w >> 11) * 2**-53`` of the second word.

    The per-site loop (the sample's Philox reset to its key's start and
    advanced to the site) draws every pair the vector path does not settle:
    chunks below ``_VECTOR_MIN_SITES`` pairs, every other kind and dimension,
    d = 1 sites above their layer's bound or with ``rabs < 2**40``, and every
    pair when the first-use self-check fails.  Either way each field is
    bitwise the per-site streams' draws, whatever the chunk.
    """
    d = dist.d
    n_sites = (2 * n + 1) ** d
    gens = [np.random.Philox(key=[master_seed & _U64, s]) for s in samples]
    starts = [bg.state for bg in gens]
    values = np.empty((len(gens), n_sites, d))
    flat = values.reshape(-1, d)
    n_pairs = flat.shape[0]
    loop_pairs = range(n_pairs)
    if n_pairs >= _VECTOR_MIN_SITES and _vectorizable(dist) and _vector_path_ok():
        keys = np.array([start["state"]["key"] for start in starts]).reshape(-1, 2)
        loop_pairs = []
        for lo in range(0, n_pairs, _PHILOX_PAIRS):
            pairs = np.arange(lo, min(lo + _PHILOX_PAIRS, n_pairs))
            owner = pairs // n_sites
            drawn, settled = _block_draws(dist, keys[owner].T, pairs - owner * n_sites)
            flat[pairs] = drawn
            loop_pairs += (lo + np.flatnonzero(~settled)).tolist()
    SITE_COUNTS["vector"] += n_pairs - len(loop_pairs)
    SITE_COUNTS["loop"] += len(loop_pairs)
    rngs = [np.random.Generator(bg) for bg in gens]
    for pair in loop_pairs:
        k, site = divmod(pair, n_sites)
        gens[k].state = starts[k]
        gens[k].advance(site << 16)
        flat[pair] = dist.draw(rngs[k])
    return FieldChunk(n=n, d=d, values=values)


# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Largest ziggurat ``rabs`` per layer (``w & 0xff``) seen to return from
# ``standard_normal`` at the first try among the 2**20 sites of the stream key
# (999, 0); -1 where none did (NumPy's ``ki[1]`` is 0).  Acceptance is
# ``rabs < ki[layer]``, monotone in ``rabs``, so every ``rabs`` at or below
# its layer's bound returns at the first try while this NumPy's ``ki`` is
# the one probed; ``_FIRST_TRY_WITNESS`` lets the self-check confirm that.
_FIRST_TRY_PROBE = (999, 0)
_FIRST_TRY_BOUND = np.array([
    0xEF2EBAB1F5E48, -1, 0xC089DBF603ACE, 0xDA26374794348,
    0xE50F4F2DC926C, 0xEB0415192EBE8, 0xEEDDB5EED8423, 0xF19425D0BB432,
    0xF37B9582623FF, 0xF4EB04990BDA2, 0xF6118334B3205, 0xF6FF8C0CE9F31,
    0xF7B4FFC111CFB, 0xF85A689EDD976, 0xF8C7BAA9D315B, 0xF965146625654,
    0xF9C624BE17872, 0xFA35FF92B6598, 0xFA7AF6694E3E9, 0xFABC1E6DA6F4A,
    0xFB0DF25195E42, 0xFB46DDD941853, 0xFB7A01DB7F262, 0xFBA9FBCB74288,
    0xFBD14DEB64470, 0xFC0266682B11F, 0xFC256C3865398, 0xFC3CAF0E3492B,
    0xFC5C760F4FFF2, 0xFC8533E555699, 0xFC8D7B0A7B675, 0xFC873F7B816E2,
    0xFCCB33E9C0A9F, 0xFCD9653ACC88D, 0xFCE693C055EB9, 0xFD000A2233468,
    0xFD06B9F17ADCE, 0xFD3447A8FE836, 0xFD47005A2DDE5, 0xFD27F161E3750,
    0xFD53DA27B634C, 0xFD614DA9F7537, 0xFD6D2577C3863, 0xFD8BF93C68FF3,
    0xFD8A9F021D730, 0xFD968BACAF9C0, 0xFD732FF06ADF2, 0xFD71F452DF7DB,
    0xFDC4BD7660227, 0xFDBF7CDAB1CD7, 0xFDD7C3EFF7031, 0xFDDD2178F5EA5,
    0xFDEBA60018159, 0xFDF289E679A95, 0xFDFBD6634A903, 0xFDD6945217A8B,
    0xFE0AC5785DFD4, 0xFDF0E4BEE7B8F, 0xFE1133771EF43, 0xFE03B43D111A9,
    0xFE1D5734D51B3, 0xFE2EF99440E9B, 0xFE31AFE5AF856, 0xFE279E46DB232,
    0xFE3539BF818B6, 0xFE42C400284E9, 0xFE4A7FEF463F5, 0xFE3F4D00FBA5F,
    0xFE4F2ABB4F919, 0xFE4D465BF3B59, 0xFE4A284A6E0F2, 0xFE40FBFC55862,
    0xFE5165A4CCAF0, 0xFE69A57B07BB9, 0xFE6DFCBF1E1F8, 0xFE6988AED27AF,
    0xFE76AED2A42D7, 0xFE70313D92840, 0xFE76CB4440994, 0xFE7AB0AA7431A,
    0xFE65013CD75B9, 0xFE75E85F55545, 0xFE7CB3F53D43A, 0xFE8C4170218AA,
    0xFE89E461C1897, 0xFE9023A90FB9F, 0xFE905928E6A17, 0xFE9161B555996,
    0xFE8C513F02B5E, 0xFE9C2F8B597EC, 0xFE9F92F80F271, 0xFE98B121CF090,
    0xFE840ABDB932A, 0xFEA724C3DE753, 0xFEA7307125B6D, 0xFEA310A04E564,
    0xFE9EB25DE22C3, 0xFEB260119E5C8, 0xFEA9E45E1CD0F, 0xFEB1C1F6DB074,
    0xFE9D623F68CFB, 0xFEB70732E3A2D, 0xFEB3ABF23938C, 0xFEBC36E774D9E,
    0xFEAF8A9AFCA39, 0xFEC2053C5C79E, 0xFEAC22BEA8658, 0xFEBB8320746B7,
    0xFE9BAF19008BF, 0xFEA186153E03D, 0xFECA313ACCE31, 0xFEC101DAE3779,
    0xFECC4F1300BFA, 0xFEB7FD8E0E075, 0xFECABE6586F65, 0xFECE633737072,
    0xFEA478DE13DBB, 0xFED101AA66C55, 0xFED184D73867B, 0xFECB3DBAF528A,
    0xFECB7A5568E0C, 0xFE9C26880F388, 0xFED13D1248B0E, 0xFECE3DE15E28F,
    0xFED8A2245CD77, 0xFEB8DA5A13780, 0xFEDB9257B9A47, 0xFED4916ADE501,
    0xFEBA56C4522C0, 0xFEC6495968926, 0xFECD9471258B7, 0xFEC81F0E39D4B,
    0xFEDD35975A5A9, 0xFEE16E9B9560C, 0xFEDCEDE9BEA58, 0xFED10B5A0ECD1,
    0xFEC71C99EA549, 0xFED8D044C71CE, 0xFECE2D289F60B, 0xFED0DA71D820B,
    0xFEE4BDA968AED, 0xFED5C634A0DE3, 0xFEE3DB74D4B8D, 0xFEDD4B92101E8,
    0xFED89A2BBAB19, 0xFEE5162E227D1, 0xFEBACEB9A032E, 0xFEE292302F804,
    0xFEE55DC2CA01F, 0xFEDAE41B9AE8D, 0xFEDA982A8819E, 0xFED846A9369AA,
    0xFECED9337E642, 0xFEBF1BD9A4D44, 0xFEDF8FC6CF15E, 0xFEDDCA1D69F18,
    0xFEE4BFB596D3B, 0xFEE51FF38CC14, 0xFEE626457E070, 0xFED5B8F978DD4,
    0xFEE218EF90252, 0xFEBDB0EBB8032, 0xFEDC01C652342, 0xFED41D3153BBD,
    0xFEE97EA04B526, 0xFEE6188C2E81D, 0xFEE76035085D0, 0xFEE3960631828,
    0xFEDCFCAE4909B, 0xFEDC4AAFDED62, 0xFEE473026920D, 0xFEE6D0BD6D070,
    0xFEBB4B9ED3FCA, 0xFEBFB2136EA0E, 0xFEE52405A9CB8, 0xFEC6CB434402A,
    0xFEB53385FED74, 0xFEB9BA6988DFF, 0xFEC25AE688506, 0xFEE0AD2AA07E8,
    0xFEC8E747C6D0E, 0xFEDCA50ECD79D, 0xFED2E73D25AC4, 0xFECC6C224633F,
    0xFED6F36686A01, 0xFED37F41C2662, 0xFEAB52D67FBCD, 0xFED14ED93A07D,
    0xFEB61C5CFB9A9, 0xFEC358CCE193D, 0xFEC6CE1CE5196, 0xFEBE5D069102E,
    0xFED3165CD744C, 0xFECE5DB42D438, 0xFEC732771C9A3, 0xFECC3D2D3278A,
    0xFEBD8DC639520, 0xFEBF9D8D49F3F, 0xFEC41B9FEF25E, 0xFE9CB612609F0,
    0xFEBF834AB2872, 0xFEBD575AE269B, 0xFEB9D5E86F830, 0xFEBC3E2DDAFE9,
    0xFE7A5D4D14102, 0xFEB08037301AD, 0xFE94AD614FED7, 0xFE925CFA4B19A,
    0xFEAF7F0A5B1FD, 0xFEACC06D910F8, 0xFEA863ED5D9AA, 0xFE860301A1975,
    0xFEA1DEE54F599, 0xFE99954A213E4, 0xFE63849019705, 0xFE7F12E5A7FB4,
    0xFE92AD9C79A7B, 0xFE8BE420B2BEF, 0xFE88AC79DEE58, 0xFE66C158C8FC9,
    0xFE51AE646B058, 0xFE756DBE4C7E8, 0xFE680827BB217, 0xFDFAD7903BEFB,
    0xFE6448C9919F6, 0xFE453EBEA24D3, 0xFE403E0F4D4F7, 0xFE511FDF80537,
    0xFE378627BD28A, 0xFE115A341B4B3, 0xFE13C7F9A2DB0, 0xFE1CC7C0A3A79,
    0xFE086CFEC1631, 0xFE0D20646CE2A, 0xFDFF3F95BB2F7, 0xFDEDF22E85FBB,
    0xFDDC40E55734A, 0xFDC4F7A7FE9EF, 0xFDC2B1307F31D, 0xFDAE2EBE3B32B,
    0xFD8581B0E1994, 0xFD7C9B36A3F7B, 0xFD58E156E0305, 0xFD3F248409AC4,
    0xFD17100645DDA, 0xFCE53F8B29A5C, 0xFCBA1EB1E3BDD, 0xFC5E9BF0F3767,
    0xFC116637E1D84, 0xFBD0D2B29EDEA, 0xFB4C58493AD8B, 0xFABAB555E6D01,
    0xF9D3252222120, 0xF887E720BBD73, 0xF663311EBE17B, 0xF1A34443B974F,
])

# Per layer, the probe site whose ``rabs`` is that layer's bound (-1 where
# the bound is -1).
_FIRST_TRY_WITNESS = np.array([
    957839, -1, 376668, 442537, 957998, 318777, 364445, 754196,
    644337, 155617, 474665, 300928, 126362, 89327, 543594, 709078,
    720578, 675688, 421006, 793389, 16492, 260144, 556785, 152772,
    495771, 712670, 169478, 858575, 893277, 286962, 275481, 1038453,
    638931, 6573, 68326, 349891, 1012355, 172420, 165249, 643722,
    912712, 656159, 552754, 638618, 156900, 485291, 229954, 27225,
    958318, 930924, 1003018, 694438, 586254, 389961, 831936, 783004,
    282529, 480923, 817349, 29810, 231580, 357876, 912882, 774622,
    1022582, 491372, 567199, 241162, 829960, 117204, 40477, 400793,
    411212, 157943, 713236, 276349, 1004120, 894519, 187942, 155542,
    1042215, 854301, 327171, 99318, 1041162, 902449, 796068, 690714,
    483006, 662367, 418375, 371460, 231, 703874, 1015227, 572041,
    362858, 598362, 11930, 225524, 543292, 180624, 243160, 322094,
    957762, 630301, 137372, 526350, 91203, 223489, 648464, 801093,
    630729, 756078, 711970, 872895, 11045, 2832, 692402, 972681,
    728866, 849841, 945274, 265815, 508810, 630802, 125894, 575016,
    79863, 448720, 567926, 235161, 428056, 96188, 60989, 350422,
    314166, 9688, 399734, 145535, 860024, 96046, 1047741, 58113,
    665802, 78923, 572802, 362720, 896526, 1025123, 967985, 802054,
    674745, 706214, 209311, 272034, 105777, 631186, 728876, 766428,
    11610, 1045074, 815452, 770738, 100255, 778909, 157208, 491337,
    632471, 508789, 11203, 931274, 988318, 1025040, 69584, 12521,
    598663, 87240, 482164, 568769, 298288, 572352, 671013, 703815,
    122415, 139400, 949093, 786785, 457939, 4666, 687014, 663933,
    402965, 901734, 815894, 230309, 462413, 626556, 241118, 1008374,
    609971, 515672, 835070, 574546, 860398, 159856, 486088, 758903,
    912971, 992586, 929570, 617974, 375524, 658720, 481251, 950979,
    57916, 252354, 43609, 217578, 1012889, 790934, 797350, 459014,
    1030046, 206390, 24729, 563950, 101697, 713936, 1027777, 979097,
    888782, 766798, 332317, 524059, 186510, 467855, 940264, 817346,
    487360, 451818, 512234, 1005547, 163687, 433847, 900857, 401875,
    852228, 537717, 46271, 952576, 945851, 899295, 957969, 53957,
])


def _mulhi(a, m):
    """High 64 bits of ``a * m`` (uint64 array, int constant), by 32-bit halves."""
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & lo32, a >> s32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = ((a_lo * m_lo) >> s32) + (lh & lo32) + (hl & lo32)
    return a_hi * m_hi + (lh >> s32) + (hl >> s32) + (mid >> s32)


def _philox_block(key, sites):
    """First Philox4x64-10 block (counter ``(site << 16) + 1``) of each site's stream.

    ``key`` is the pair ``(k0, k1)`` of one stream key, as NumPy's Philox
    state holds it, or of two uint64 arrays shaped like ``sites``: one key per
    site.
    """
    c0 = (sites.astype(np.uint64) << np.uint64(16)) + np.uint64(1)
    c1 = c2 = c3 = np.zeros_like(c0)
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    k0, k1 = (np.broadcast_to(np.asarray(k, dtype=np.uint64), c0.shape) for k in key)
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhi(c0, m0), c0 * np.uint64(m0)
        hi1, lo1 = _mulhi(c2, m1), c2 * np.uint64(m1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + np.uint64(w0), k1 + np.uint64(w1)
    return c0, c1, c2, c3


def _vectorizable(dist):
    return dist.d == 1 and dist.kind in ("uniform-ball", "polar")


def _layer_rabs(w):
    """Ziggurat layer and ``rabs`` that ``standard_normal`` reads from word w."""
    layer = (w & np.uint64(0xFF)).astype(np.intp)
    return layer, ((w >> np.uint64(9)) & np.uint64(2**52 - 1)).astype(np.int64)


def _first_try(seed, sample, sites):
    """Per site, whether one ``standard_normal`` on its stream returns from its
    first word: one word used, of the stream's first block."""
    bg = np.random.Philox(key=[seed & _U64, sample])
    start, rng = bg.state, np.random.Generator(bg)
    accepted = []
    for site in sites:
        bg.state = start
        bg.advance(site << 16)
        rng.standard_normal()
        state = bg.state
        counter = int(state["state"]["counter"][0])
        accepted.append(state["buffer_pos"] == 1 and counter == (site << 16) + 1)
    return np.array(accepted, dtype=bool)


def _block_draws(dist, key, sites):
    """``dist.draw`` (a d = 1 uniform-ball or polar law) at each site from its
    first Philox block (``key`` as ``_philox_block`` takes it), and the mask
    of sites where that is provably the per-site stream's draw (rows outside
    the mask are meaningless)."""
    w, w1 = _philox_block(key, sites)[:2]
    layer, rabs = _layer_rabs(w)
    # rabs >= 2**40 keeps |g| = rabs * wi[layer] >= 2**-14, far above
    # unit_vector's 1e-12 norm test (every ziggurat width wi exceeds 2**-54).
    settled = (rabs <= _FIRST_TRY_BOUND[layer]) & (rabs >= 2**40)
    direction = np.where(w & np.uint64(0x100), -1.0, 1.0)
    center, radius = dist.support.center, dist.support.radius
    k = float(dist.d - 1) if dist.kind == "uniform-ball" else float(dist.radial_exponent)
    exponent = 1.0 / (k + 1.0)
    # NumPy's next_double, then Python's float ** per site, so the radius is
    # bitwise the loop's (np.power may round differently).
    u = (w1 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    powed = np.array([x**exponent for x in u.tolist()])
    r = radius * powed
    return (center + r * direction)[:, None], settled


# The self-check's stream key and site count.
_SELF_CHECK_STREAM = (6, 2**32 + 1)
_SELF_CHECK_SITES = 32


@functools.cache
def _vector_path_ok():
    """First-use check that the vector path reproduces ``site_rng`` draws with
    this NumPy; if it does not, ``sample_fields`` draws every site by loop.

    Two parts: the settled sites of one stream must equal ``dist.draw`` on
    their ``site_rng`` (key, word layout and draw formulas), and each layer's
    witness must have its bound as ``rabs`` and return at the first try (the
    bound table against this NumPy's ziggurat).
    """
    (seed, sample), sites = _SELF_CHECK_STREAM, np.arange(_SELF_CHECK_SITES)
    key = np.random.Philox(key=[seed, sample]).state["state"]["key"]
    for dist in (
        DisplacementDistribution("uniform-ball", ball(np.full(1, 0.25), 0.9)),
        DisplacementDistribution("polar", ball(np.full(1, 0.25), 0.9), radial_exponent=2.5),
    ):
        values, settled = _block_draws(dist, key, sites)
        want = [dist.draw(site_rng(seed, sample, k)) for k in sites[settled].tolist()]
        if not np.array_equal(values[settled], np.reshape(want, (-1, 1))):
            return False
    seed, sample = _FIRST_TRY_PROBE
    key = np.random.Philox(key=[seed, sample]).state["state"]["key"]
    layers = np.flatnonzero(_FIRST_TRY_BOUND >= 0)
    witness = _FIRST_TRY_WITNESS[layers]
    layer, rabs = _layer_rabs(_philox_block(key, witness)[0])
    if not (np.array_equal(layer, layers) and np.array_equal(rabs, _FIRST_TRY_BOUND[layers])):
        return False
    return bool(_first_try(seed, sample, witness.tolist()).all())
