"""Reference values the engine verifies itself against.

These are the published tables and relations for the four spaces: graded
dimensions, linear relations between boundary classes, the intersection
pairings of boundary divisors with codimension-2 strata, the base-space
pairings, Hilbert functions of the three ring presentations, and the
theta-characteristic counts.  Two entries are documented deviations where
the printed source value fails its own consistency identities; see the
``DEVIATIONS`` notes.
"""

from fractions import Fraction

KEEL_DIMS = {4: [1, 1], 5: [1, 5, 1], 6: [1, 16, 16, 1]}

INVARIANT_DIMS = {
    "R2": [1, 4, 4, 1],
    "S2plus": [1, 3, 3, 1],
    "S2minus": [1, 3, 3, 1],
    "M2": [1, 2, 2, 1],
}

GROUP_ORDERS = {"R2": 48, "S2plus": 72, "S2minus": 120, "M2": 720}

LINEAR_RELATIONS = {
    "R2": {("d0p",): 1, ("d0pp",): 6, ("d0r",): -3, ("d1",): 12, ("d11",): -8},
    "S2plus": {("a0p",): 3, ("b0p",): -4, ("a1p",): -8, ("b1p",): 72},
    "S2minus": {},
}

# rows: codimension-2 strata; columns follow BOUNDARY_ORDER.
BOUNDARY_ORDER = {
    "R2": ["d0p", "d0pp", "d0r", "d1", "d11"],
    "S2plus": ["a0p", "b0p", "a1p", "b1p"],
    "S2minus": ["a0m", "b0m", "a1m"],
}

A4_TABLES = {
    "R2": {
        "Ep_p":  ["-1/2", "1/4", "0", "0", "1/8"],
        "Ep_pp": ["0", "-1/2", "0", "1/4", "0"],
        "Ep_r":  ["-1", "0", "0", "1/4", "1/4"],
        "Er_r":  ["1/4", "0", "-1/4", "0", "1/8"],
        "F1p":   ["0", "1/4", "1/4", "-3/48", "0"],
        "F1pp":  ["1/4", "0", "0", "-1/48", "0"],
        "F1r":   ["1/4", "0", "0", "-1/48", "0"],
        "F11p":  ["1/4", "0", "1/4", "0", "-3/48"],
        "F11r":  ["1/4", "0", "1/4", "0", "-3/48"],
    },
    "S2plus": {
        "Cp": ["-1", "1/4", "1/16", "1/16"],
        "Dp": ["0", "-1/4", "1/8", "0"],
        "E":  ["0", "-1/8", "1/16", "0"],
        "Xp": ["1/8", "1/8", "-3/192", "0"],
        "Yp": ["1/8", "0", "0", "-1/192"],
        "Zp": ["1/8", "1/8", "-3/192", "0"],
    },
    "S2minus": {
        "Cm": ["-1", "1/4", "1/8"],
        "Dm": ["0", "-1/4", "1/8"],
        "Xm": ["1/8", "0", "-1/192"],
        "Ym": ["1/8", "1/8", "-3/192"],
        "Zm": ["1/8", "0", "-1/192"],
    },
}

A4_RANKS = {"R2": 4, "S2plus": 3, "S2minus": 3}

A4_KERNELS = {
    "R2": [[1, 6, -3, 12, -8]],
    "S2plus": [[3, -4, -8, 72]],
    "S2minus": [],
}

MUMFORD_VALUES = {
    "delta0.Delta00": Fraction(-1, 4),
    "delta1.Delta00": Fraction(1, 8),
    "delta0.Delta01": Fraction(1, 4),
    "delta1.Delta01": Fraction(-1, 48),
}

M05_RELATIONS = [
    ("R2", {("d0p", "d0pp"): 2, ("d0p", "d1"): 4,
            ("d0p", "d11"): -4, ("d0p", "d0r"): -1}),
    ("S2minus", {("Xm",): 16, ("Cm",): 1,
                 ("a0m", "a1m"): -4, ("a0m", "b0m"): -1}),
    ("R2", {("Ep_p",): 2, ("Ep_pp",): 1, ("Ep_r",): -1}),
]

HILBERT = {
    "I": [1, 4, 4, 1, 0, 0, 0],
    "J": [1, 3, 3, 1, 0, 0, 0],
    "K": [1, 3, 3, 1, 0, 0, 0],
}

PRESENTATION_SPACES = {"I": "R2", "J": "S2plus", "K": "S2minus"}

# Individual relations of the three presentations plus named extra checks.
EXTRA_RELATIONS = {
    "R2": ["d0p*d0r^2", "d1*d11", "d0pp*d11", "d0pp*d0r", "d0p^2*d0pp"],
    "S2plus": ["a0p^2*b0p", "a1p*b1p", "b0p*b1p", "a0p*a1p - b0p*a1p"],
    "S2minus": ["24*a1m^2 + a0m*a1m + 2*b0m*a1m"],
}

# The Hodge class of the base in its boundary classes: 10 lambda = delta0 +
# 2 delta1 (Mumford, "Towards an enumerative geometry of the moduli space of
# curves", 1983).  Every space's lambda is this combination pulled back.
MUMFORD_LAMBDA = {"delta0": Fraction(1, 10), "delta1": Fraction(1, 5)}

THETA_G2 = {"prym_total": 15, "spin_even": 10, "spin_odd": 6}

# The quadratic base relation holds; the two cross-check variants are
# evaluated and REPORTED, never assumed (the engine's verdicts are that the
# first variant is a transcription slip of the true relation and fails,
# while the cubic one holds).
M2_RELATION = "12*delta1^2 + delta0*delta1"
M2_VARIANTS = ("delta0*delta1 + 12*delta0^2", "528*delta1^3 + delta0^3")

# M2_RELATION pulled back to each cover, written in its boundary classes:
# each text is a nonzero multiple of M2_RELATION with delta0 and delta1
# replaced by their pullbacks, which the loader derives by orbit containment
# (space_registry.pullback_tables).
PULLBACK_RELATIONS = {
    "R2": "12*(d1 + d11)^2 + (d0p + d0pp + 2*d0r)*(d1 + d11)",
    "S2plus": "12*(2*a1p + 2*b1p)^2 + (a0p + 2*b0p)*(2*a1p + 2*b1p)",
    "S2minus": "24*a1m^2 + a0m*a1m + 2*b0m*a1m",
}

DEVIATIONS = {
    "F11r_pushforward": (
        "the printed pushforward column gives 1 for F1:1^r, which breaks "
        "the degree-15 sum rule and the fiber-count identity; the engine "
        "computes and ships 3"),
    "I_independence": (
        "the ten generators of preset I are labeled independent, but the "
        "degree-2 piece of the ideal is 11-dimensional and spanned by 12 "
        "of their multiples; certificate: (1/2)*d11*(linear generator) "
        "- 3*(d0pp*d11) - 6*(d1*d11) - (1/2)*(d11*(d0p-d0r)) "
        "+ (4*d11^2 + d0r*d11) = 0"),
}
