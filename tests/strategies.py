"""Hypothesis strategies of valid mechanism files.

parsed_mechanisms() draws ParsedMechanism objects that are valid by
construction, as parse_lines builds them: materials with and without an
explicit G, hinges and beams that limbs share, limbs of 1-5 members, their
placements, and an optional [sweep] and [measured] section.  Member and limb
angles are drawn as the decimal degree text that files carry.
mechanism_texts() is their serialized text, a base for tests that mutate
whole files line by line.  creep_traces() draws noisy relaxation traces for
the creep fit.
"""

import math
from decimal import Decimal

import numpy as np
from hypothesis import strategies as st

from flexmech.analysis import SWEEP_PARAMETERS, WEIGHT_TERMS, SweepObjective, SweepSpec
from flexmech.elements import BeamGeometry, HingeGeometry
from flexmech.materials import Material, derive_shear_modulus
from flexmech.mechanism import AXIS_ROW, SWEEP_EDITS, Limb, Mechanism
from flexmech.mechfile import MEASURED_AXES, ParsedMechanism, serialize
from flexmech.spatial import FramePlacement

# a name the writer can write: one token with no '=', '[', ']' or '#'.
# Every whitespace and line-break character is in a control (C) or
# separator (Z) category
NAMES = st.text(st.characters(codec="utf-8", exclude_categories=("C", "Z"),
                              exclude_characters="=[]#"), min_size=1, max_size=8)
# free text on one line with no '#' and no whitespace at either end
REFERENCES = st.text(st.characters(codec="utf-8", exclude_categories=("C", "Zl", "Zp"),
                                   exclude_characters="#"), min_size=1, max_size=24) \
    .map(str.strip).filter(bool)
FINITE = st.floats(-1e300, 1e300)
POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
NU = st.floats(-1.0, 0.5, exclude_min=True, exclude_max=True)
# an angle as a file writes it: decimal degrees inside (-360, 360), where
# every angle has a degree value that reads back to it exactly
DEGREES = st.decimals(Decimal("-359.999999"), Decimal("359.999999"), places=6).map(float)


@st.composite
def _materials(draw):
    out = {}
    for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        g = draw(st.none() | POSITIVE)
        # a G derived from E and nu must not underflow to 0 or overflow
        e, nu = draw(st.tuples(POSITIVE, NU).filter(
            lambda v: g is not None or 0.0 < derive_shear_modulus(*v) < math.inf))
        out[name] = Material(name, e, nu, g)
    return out


@st.composite
def _elements(draw, materials):
    out = {}
    for name in draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)):
        material = draw(st.sampled_from(materials))
        if draw(st.booleans()):
            out[name] = HingeGeometry(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), draw(FINITE),
                                      material)
        else:
            out[name] = BeamGeometry(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), material)
    return out


@st.composite
def _member(draw, elements):
    # a member's tip lies in its x-y plane
    r = (draw(FINITE), draw(FINITE), 0.0)
    return draw(st.sampled_from(elements)), FramePlacement.from_degrees(draw(DEGREES), r)


@st.composite
def _range(draw, name):
    """(lo, hi, n) of sweep parameter `name`, inside what its edit takes."""
    target, _ = SWEEP_EDITS[name]
    values = {"hinge": POSITIVE, "member": st.floats(0.0, 90.0, exclude_min=True,
                                                     exclude_max=True)}.get(target, FINITE)
    lo, hi = sorted(draw(st.lists(values, min_size=2, max_size=2)))
    return lo, hi, draw(st.integers(1, 5))


@st.composite
def _sweep(draw):
    names = draw(st.lists(st.sampled_from(SWEEP_PARAMETERS), min_size=1, max_size=3, unique=True))
    diag = draw(st.dictionaries(st.sampled_from(list(AXIS_ROW)), FINITE.filter(bool), max_size=3))
    rcc = draw(st.none() | FINITE)
    ratio = draw(st.booleans())
    # the reader keeps a weight only for a term that has a line
    lines = {"rcc": rcc is not None, "ratio": ratio, "diag": bool(diag)}
    weights = {term: draw(FINITE) for term in WEIGHT_TERMS if lines[term] and draw(st.booleans())}
    return SweepSpec({name: draw(_range(name)) for name in names},
                     SweepObjective(rcc, ratio, diag or None, weights))


def _measured():
    value = POSITIVE | st.tuples(POSITIVE, POSITIVE)
    return st.dictionaries(st.sampled_from(MEASURED_AXES), value, max_size=3)


@st.composite
def parsed_mechanisms(draw):
    """A ParsedMechanism as parse_lines builds it from a valid file."""
    materials = draw(_materials())
    elements = draw(_elements(list(materials.values())))
    geometries = list(elements.values())
    limbs = [Limb(name, tuple(draw(st.lists(_member(geometries), min_size=1, max_size=5))))
             for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))]
    slots = draw(st.lists(st.tuples(st.sampled_from(limbs), DEGREES,
                                    st.tuples(FINITE, FINITE, FINITE)), min_size=2, max_size=4))
    mechanism = Mechanism(tuple((limb, FramePlacement.from_degrees(theta, r))
                                for limb, theta, r in slots), draw(REFERENCES))
    return ParsedMechanism(mechanism, materials, elements, draw(st.none() | _sweep()),
                           draw(st.none() | _measured()))


def mechanism_texts():
    """The text of a drawn valid mechanism file."""
    return parsed_mechanisms().map(serialize)


@st.composite
def creep_traces(draw):
    """(times, forces) of a relaxation trace F_ss + A e^{-t/tau} plus noise:
    8-80 samples at uniform or random times from t = 0, a span of 0.3-50
    tau, a rising or decaying step A and Gaussian noise of 0-5% of |A|.
    Forces are reflected at zero, so every trace is a valid creep file."""
    n = draw(st.integers(8, 80))
    tau = draw(st.floats(1e-3, 1e4))
    span = tau * draw(st.floats(0.3, 50.0))
    f_ss = draw(st.floats(0.5, 50.0))
    step = f_ss * draw(st.floats(-0.9, 5.0).filter(lambda v: abs(v) > 1e-3))
    noise = abs(step) * draw(st.floats(0.0, 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        t = np.linspace(0.0, span, n)
    else:
        t = np.sort(np.r_[0.0, rng.uniform(0.0, span, n - 1)])
    f = np.abs(f_ss + step * np.exp(-t / tau) + noise * rng.standard_normal(n))
    return t.tolist(), f.tolist()
