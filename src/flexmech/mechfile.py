"""Line-oriented text input: every data file flexmech reads, and the
canonical serialization of mechanism files.

All files share one set of rules: '#' starts a comment, blank lines are
skipped, tokens split on whitespace, options are key=value, numbers must be
finite, and every error names its line and field (MechanismFileError).

Every record line of every file is read by one reader (_records) against
one table (GRAMMAR) of each head's positional tokens and options; the
section parsers look up names, convert numbers and build objects.  Every
name, in a limb section header and at a record's name position, follows
one rule (NAME_RULE) and is an error at its own line otherwise.  Creep
traces and the reference matrix are number columns (numeric_rows).

Mechanism file layout (units fixed to mm / degrees / N, declared in a
mandatory header)::

    flexmech mechanism format 1
    units mm deg N

    [materials]
    material copolyester E=43.8 nu=0.48

    [elements]
    hinge notch material=copolyester r=1.25 t=2.82 w=5 h1=0
    beam  column material=copolyester l=10.4 w=5 s=5.32

    [limb left]
    member notch  r=42.85,14.765,0 theta=0
    member column r=10.4,0,0       theta=20
    member notch  r=9.15,0,0       theta=0

    [mechanism]
    reference middle of upper platform
    limb left  r=-2.5,10.325,-8.65
    ...

    [sweep]            # optional
    vary t 2.0 4.0 3
    target rcc_height 28.6 weight=1

    [measured]         # optional
    measured z 2.54
    measured y 8.3 10

Each limb has a section of its own, headed by the word limb and its name.
Placements r point member -> limb tip (limb sections) and limb tip ->
reference (mechanism section); angles are degrees in files, radians inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import (SweepObjective, SweepSpec, check_stiffness_axis, check_stiffness_target,
                       check_sweep_range)
from .elements import BeamGeometry, HingeGeometry
from .errors import MechanismFileError
from .materials import Material, MeasuredJointRecord, derive_shear_modulus
from .mechanism import Limb, Mechanism, check_member
from .spatial import FramePlacement

FORMAT_HEADER = "flexmech mechanism format 1"
UNITS_HEADER = "units mm deg N"
CREEP_COLUMNS = ("time_s", "force_n")
MEASURED_AXES = ("x", "y", "z")     # measured stiffnesses are translational, in N/mm

# every record line: head -> (usage, (fewest, most) positional tokens after
# the head, required options, optional options).  README "Mechanism files"
# lists the same grammar.
GRAMMAR = {
    "material": ("material <name> E=<N/mm2> nu=<ratio> [G=<N/mm2>]", (1, 1), ("E", "nu"), ("G",)),
    "joint": ("joint <variant> joint=<Nm/rad> max_load=<Nm> [cross=<Nm/rad|->]", (1, 1),
              ("joint", "max_load"), ("cross",)),
    "hinge": ("hinge <name> material=<name> r=<mm> t=<mm> w=<mm> [h1=<mm>]", (1, 1),
              ("material", "r", "t", "w"), ("h1",)),
    "beam": ("beam <name> material=<name> l=<mm> w=<mm> s=<mm>", (1, 1),
             ("material", "l", "w", "s"), ()),
    "member": ("member <element> r=<x>,<y>,<z> [theta=<deg>]", (1, 1), ("r",), ("theta",)),
    "limb": ("limb <name> r=<x>,<y>,<z> [theta=<deg>]", (1, 1), ("r",), ("theta",)),
    "vary": ("vary <name> <lo> <hi> <n>", (4, 4), (), ()),
    "target": ("target rcc_height <mm> [weight=<w>]", (2, 2), (), ("weight",)),
    "maximize": ("maximize stiffness_ratio [weight=<w>]", (1, 1), (), ("weight",)),
    "target_k": ("target_k <axis> <N/mm> [weight=<w>]", (2, 2), (), ("weight",)),
    "measured": ("measured <axis> <value> [<high>]", (2, 3), (), ()),
}


# the one rule for a name, in a [limb <name>] header and at a record's name
# position (GRAMMAR's <name>, <variant> and <element>); README states it
NAME_RULE = "one token, with no '=', '[' or ']'"
_NAME_BANNED = frozenset("=[]")
# each head's positional token positions that hold a name
_NAME_AT = {head: tuple(i for i, token in enumerate(usage.split()[1:])
                        if token in ("<name>", "<variant>", "<element>"))
            for head, (usage, *_) in GRAMMAR.items()}


def _name(text, lineno):
    """`text`, or an error at the line if it breaks NAME_RULE."""
    if len(text.split()) != 1 or not _NAME_BANNED.isdisjoint(text):
        raise MechanismFileError(f"name {text!r} is not {NAME_RULE}", lineno)
    return text


@dataclass(frozen=True)
class ParsedMechanism:
    """Full object graph of one mechanism file."""

    mechanism: Mechanism
    materials: dict
    elements: dict
    sweep: SweepSpec | None
    measured: dict | None


def read_lines(path):
    """Lines of a UTF-8 text file; an unreadable or undecodable file is an
    input error naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise MechanismFileError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise MechanismFileError(f"cannot read {path}: {exc}") from None


def text_entries(lines):
    """(line number, text) of every line left with content once comments are cut."""
    return [(lineno, text) for lineno, raw in enumerate(lines, start=1)
            if (text := raw.split("#", 1)[0].strip())]


def _num(token, lineno, field):
    try:
        v = float(token)
    except ValueError:
        raise MechanismFileError(f"not a number: {token!r}", lineno, field) from None
    if not math.isfinite(v):
        raise MechanismFileError(f"non-finite number: {token!r}", lineno, field)
    return v


def _checked(build, lineno, field, *args):
    """build(*args), its ValueError an input error at the line and field."""
    try:
        return build(*args)
    except ValueError as exc:
        raise MechanismFileError(str(exc), lineno, field) from None


def _records(entries, section, heads):
    """(line number, head, positional tokens, options dict) of each line of
    a section whose heads are `heads`; a line that breaks its GRAMMAR entry
    is an error at the line, naming the option or the head where one is."""
    records = []
    for lineno, line in entries:
        head, *tokens = line.split()
        if head not in heads:
            raise MechanismFileError(f"unexpected {section} line {line!r}", lineno)
        usage, (fewest, most), required, optional = GRAMMAR[head]
        words = []
        options = {}
        for token in tokens:
            key, eq, value = token.partition("=")
            if not eq:
                words.append(token)
            elif key in options:
                raise MechanismFileError(f"repeated option {key!r}", lineno, key)
            elif key in required or key in optional:
                options[key] = value
            elif required or optional:
                raise MechanismFileError(f"unknown option {key!r}; expected '{usage}'", lineno, key)
            else:
                raise MechanismFileError(f"'{head}' takes no options, got {key}=", lineno, key)
        if len(words) < fewest:
            raise MechanismFileError(f"expected '{usage}', got {line!r}", lineno)
        if len(words) > most:
            raise MechanismFileError(f"unexpected token {words[most]!r} in {line!r}", lineno, head)
        for key in required:
            if key not in options:
                raise MechanismFileError(f"{head} needs {' and '.join(required)}", lineno, key)
        for i in _NAME_AT[head]:
            if i < len(words):
                _name(words[i], lineno)
        records.append((lineno, head, words, options))
    return records


def numeric_rows(entries, columns):
    """One tuple of finite numbers per entry; `columns` names the fixed columns."""
    rows = []
    for lineno, text in entries:
        parts = text.split()
        if len(parts) != len(columns):
            raise MechanismFileError(
                f"expected {len(columns)} columns: {' '.join(columns)}", lineno)
        rows.append(tuple([_num(p, lineno, c) for p, c in zip(parts, columns)]))
    return rows


def _parse_materials(entries, source="<materials>"):
    out = {}
    for lineno, _, (name,), options in _records(entries, "materials", ("material",)):
        v = {key: _num(value, lineno, key) for key, value in options.items()}
        if name in out:
            raise MechanismFileError(f"duplicate material {name!r}", lineno, name)
        out[name] = _checked(Material, lineno, name, name, v["E"], v["nu"], v.get("G"))
    if not out:
        raise MechanismFileError(f"no materials found in {source}")
    return out


def load_materials(lines, source="<materials>"):
    """Parse material lines into a name -> Material dict.

    Format, one material per line::

        material <name> E=<N/mm^2> nu=<ratio> [G=<N/mm^2>]
    """
    return _parse_materials(text_entries(lines), source)


def load_joint_catalog(lines):
    """Parse the measured joint catalog (read-only comparison data).

    Format, one record per line::

        joint <variant> cross=<Nm/rad|-> joint=<Nm/rad> max_load=<Nm>

    Only the cross stiffness may be '-' (not measured) or left out.
    """
    records = []
    for lineno, _, (variant,), options in _records(text_entries(lines), "catalog", ("joint",)):
        values = {}
        for key, value in options.items():
            if value == "-" and key != "cross":
                raise MechanismFileError("only cross may be '-' (unmeasured)", lineno, key)
            values[key] = None if value == "-" else _num(value, lineno, key)
        records.append(_checked(MeasuredJointRecord, lineno, variant, variant,
                                values.get("cross"), values["joint"], values["max_load"]))
    return records


def _placement(options, lineno):
    parts = options["r"].split(",")
    if len(parts) != 3:
        raise MechanismFileError(f"r needs three components, got {options['r']!r}", lineno, "r")
    r = tuple([_num(p, lineno, "r") for p in parts])
    theta = _num(options["theta"], lineno, "theta") if "theta" in options else 0.0
    return FramePlacement.from_degrees(theta, r)


def _split_sections(entries):
    """Header check plus section splitting; keeps line numbers for errors."""
    if not entries or entries[0][1] != FORMAT_HEADER:
        raise MechanismFileError(
            f"first line must declare the format: {FORMAT_HEADER!r}",
            line=entries[0][0] if entries else 1)
    if len(entries) < 2 or entries[1][1] != UNITS_HEADER:
        raise MechanismFileError(
            f"unit header missing: second line must be {UNITS_HEADER!r}",
            line=entries[1][0] if len(entries) > 1 else entries[0][0])
    sections = []
    current = None
    for lineno, line in entries[2:]:
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), lineno, [])
            sections.append(current)
        elif current is None:
            raise MechanismFileError(f"content outside any section: {line!r}", lineno)
        else:
            current[2].append((lineno, line))
    return sections


def _parse_elements(entries, materials):
    elements = {}
    for lineno, kind, (name,), options in _records(entries, "elements", ("hinge", "beam")):
        if name in elements:
            raise MechanismFileError(f"duplicate element {name!r}", lineno, name)
        mat_name = options.pop("material")
        if mat_name not in materials:
            raise MechanismFileError(f"unknown material {mat_name!r}", lineno, name)
        v = {key: _num(value, lineno, key) for key, value in options.items()}
        if kind == "hinge":
            elements[name] = _checked(HingeGeometry, lineno, name, v["r"], v["t"], v["w"],
                                      v.get("h1", 0.0), materials[mat_name])
        else:
            elements[name] = _checked(BeamGeometry, lineno, name, v["l"], v["w"], v["s"],
                                      materials[mat_name])
    return elements


def _parse_limb(name, entries, elements, section_line):
    members = []
    for lineno, _, (elem_name,), options in _records(entries, "limb", ("member",)):
        if elem_name not in elements:
            raise MechanismFileError(f"dangling element reference {elem_name!r}", lineno, name)
        member = (elements[elem_name], _placement(options, lineno))
        # a member no limb may hold is named at its own line
        _checked(check_member, lineno, name, name, *member)
        members.append(member)
    # an empty limb is named at its section header
    return _checked(Limb, section_line, name, name, tuple(members))


def _parse_mechanism_section(entries, limbs, section_line):
    # the reference line is free text, so it is taken out before the records
    references = []
    records = []
    for lineno, line in entries:
        words = line.split(None, 1)
        if words[0] != "reference":
            records.append((lineno, line))
        elif references:
            raise MechanismFileError("duplicate reference line", lineno, "reference")
        else:
            references.append(words[1] if len(words) > 1 else "reference point")
    placed = []
    for lineno, _, (limb_name,), options in _records(records, "mechanism", ("limb",)):
        if limb_name not in limbs:
            raise MechanismFileError(f"unknown limb {limb_name!r}", lineno, limb_name)
        placed.append((limbs[limb_name], _placement(options, lineno)))
    return _checked(Mechanism, section_line, None, tuple(placed), *references)


def _parse_sweep(entries, section_line):
    parameters = {}
    target_rcc = None
    ratio_max = False
    diag_targets = {}
    weights = {}
    objectives = set()
    for lineno, head, (key, *values), options in _records(
            entries, "sweep", ("vary", "target", "maximize", "target_k")):
        if head == "vary":
            lo, hi, n = (_num(token, lineno, key) for token in values)
            _checked(check_sweep_range, lineno, key, key, lo, hi, n)
            if key in parameters:
                raise MechanismFileError(f"duplicate sweep parameter {key!r}", lineno, key)
            parameters[key] = (lo, hi, n)
            continue
        if (head, key) in objectives:
            raise MechanismFileError(f"duplicate objective '{head} {key}'", lineno, key)
        objectives.add((head, key))
        if head == "target_k":
            term = "diag"
            _checked(check_stiffness_axis, lineno, key, key)
            diag_targets[key] = _num(values[0], lineno, key)
            _checked(check_stiffness_target, lineno, key, key, diag_targets[key])
        elif (head, key) == ("target", "rcc_height"):
            term = "rcc"
            target_rcc = _num(values[0], lineno, key)
        elif (head, key) == ("maximize", "stiffness_ratio"):
            term = "ratio"
            ratio_max = True
        else:
            raise MechanismFileError(f"unknown objective '{head} {key}'", lineno, key)
        weight = _num(options["weight"], lineno, "weight") if "weight" in options else 1.0
        # the target_k lines share one weight term, so they must agree on it
        shared = weights.get("diag", 1.0)
        if head == "target_k" and len(diag_targets) > 1 and weight != shared:
            raise MechanismFileError(f"target_k weight {weight:g} differs from the earlier "
                                     f"target_k weight {shared:g}; one weight applies to all "
                                     "target_k lines", lineno, "weight")
        if "weight" in options:
            weights[term] = weight
    objective = _checked(SweepObjective, section_line, None, target_rcc, ratio_max,
                         diag_targets or None, weights)
    return _checked(SweepSpec, section_line, None, parameters, objective)


def parse_measured(entries):
    """Measured directional stiffnesses: 'measured <axis> <value> [<high>]' lines.

    Reads a [measured] section or a standalone measured-data file.
    """
    measured = {}
    for lineno, _, (axis, *tokens), _ in _records(entries, "measured", ("measured",)):
        if axis not in MEASURED_AXES:
            raise MechanismFileError(f"unknown measured axis {axis!r}; expected one of "
                                     f"{', '.join(MEASURED_AXES)}", lineno, axis)
        if axis in measured:
            raise MechanismFileError(f"duplicate measured axis {axis!r}", lineno, axis)
        values = tuple(_num(token, lineno, axis) for token in tokens)
        for v in values:
            if v <= 0.0:
                raise MechanismFileError(f"measured stiffness must be positive, got {v:g}",
                                         lineno, axis)
        measured[axis] = values if len(values) == 2 else values[0]
    return measured


def parse_lines(lines) -> ParsedMechanism:
    sections = _split_sections(text_entries(lines))
    materials = {}
    elements = {}
    limbs = {}
    mechanism = None
    sweep = None
    measured = None
    seen = set()
    for name, lineno, entries in sections:
        words = name.split(None, 1)
        if name == "materials":
            materials = _parse_materials(entries)
        elif name == "elements":
            elements = _parse_elements(entries, materials)
        elif words[:1] == ["limb"]:
            if len(words) == 1:
                raise MechanismFileError("limb section needs a name: [limb <name>]", lineno)
            limb_name = _name(words[1], lineno)
            if limb_name in limbs:
                raise MechanismFileError(f"duplicate limb section {limb_name!r}", lineno)
            limbs[limb_name] = _parse_limb(limb_name, entries, elements, lineno)
        elif name == "mechanism":
            mechanism = _parse_mechanism_section(entries, limbs, lineno)
        elif name == "sweep":
            sweep = _parse_sweep(entries, lineno)
        elif name == "measured":
            measured = parse_measured(entries)
        else:
            raise MechanismFileError(f"unknown section [{name}]", lineno)
        # a repeat would replace the earlier section; its own lines are checked first
        if name in seen:
            raise MechanismFileError(f"duplicate section [{name}]", lineno, name)
        seen.add(name)
    if mechanism is None:
        raise MechanismFileError("file has no [mechanism] section")
    return ParsedMechanism(mechanism, materials, elements, sweep, measured)


def parse_mechanism(path) -> ParsedMechanism:
    """Parse a mechanism file; every error names its line and field."""
    return parse_lines(read_lines(path))


# ---------------------------------------------------------------------------
# canonical serialization (round-trip stable)

def _fmt(x):
    """A token as written: a number in its shortest exact round-trip form,
    text as it is.  Text must read back as one token: it must follow
    NAME_RULE, checked by the reader's own _name, and hold no '#', which
    would start a comment."""
    if not isinstance(x, str):
        return repr(float(x))
    if "#" in x:
        raise ValueError(f"{x!r} holds '#', which would start a comment")
    try:
        return _name(x, None)
    except MechanismFileError as exc:
        raise ValueError(str(exc)) from None


def _record(head, words, options):
    """One record line: the head, the positional words, then the options in
    GRAMMAR's required-then-optional order; an option given as None is left
    out."""
    _, _, required, optional = GRAMMAR[head]
    given = [f"{k}={_fmt(options[k])}" for k in required + optional if options.get(k) is not None]
    return " ".join([head, *map(_fmt, words), *given])


def _placed(p: FramePlacement):
    """The options of a member or limb line: r, and as theta the shortest
    degree value FramePlacement.from_degrees reads back to exactly p, looked
    for within 4 ulps of p.theta_deg.  An angle with none there (one fmod
    normalized) is written as the angle its nearest degree value reads back
    to, whose text is then a fixed point."""
    near = p.theta_deg
    exact = [d for d in (near + k * math.ulp(near) for k in (0, -1, 1, -2, 2, -3, 3, -4, 4))
             if FramePlacement.from_degrees(d, p.r) == p]
    if not exact:
        return _placed(FramePlacement.from_degrees(near, p.r))
    return {"r": ",".join(map(_fmt, p.r)), "theta": min(exact, key=lambda d: len(repr(d)))}


def _material_record(name, m):
    # G is written only where it is not the one E and nu give
    g = None if m.g_modulus == derive_shear_modulus(m.e_modulus, m.nu) else m.g_modulus
    return _record("material", [name], {"E": m.e_modulus, "nu": m.nu, "G": g})


def _element_record(name, g):
    # a hinge's or beam's options are its fields, the material by name
    head = "hinge" if isinstance(g, HingeGeometry) else "beam"
    return _record(head, [name], {**vars(g), "material": g.material.name})


def _sweep_records(spec):
    """The [sweep] records: each range, then each objective line with the
    weight of its term where one is set."""
    obj = spec.objective
    rows = [("vary", [p, lo, hi, str(n)], None) for p, (lo, hi, n) in spec.parameters.items()]
    if obj.rcc_height_target is not None:
        rows.append(("target", ["rcc_height", obj.rcc_height_target], "rcc"))
    if obj.stiffness_ratio_max:
        rows.append(("maximize", ["stiffness_ratio"], "ratio"))
    rows += [("target_k", [a, k], "diag") for a, k in (obj.diag_stiffness_target or {}).items()]
    return [_record(head, words, {"weight": obj.weights.get(term)}) for head, words, term in rows]


def serialize(parsed: ParsedMechanism) -> str:
    """Canonical text form; parse(serialize(x)) == x.  Every record line is
    written by _record, so in GRAMMAR's option order.  An angle is written
    exactly where some degree value reads back to it (_placed); for one that
    fmod normalized there may be none, and then only the fixed point holds:
    serialize(parse(serialize(x))) == serialize(x).

    Raises ValueError, naming the object, where the text would read back as
    something else: a name or reference the reader would read differently,
    two different limbs of one name, a member whose geometry is not one of
    `parsed.elements`, an element whose material is not the `materials`
    entry of its name, or a `materials` entry under a key other than its
    material's name."""
    for name, g in parsed.elements.items():
        if parsed.materials.get(g.material.name) != g.material:
            raise ValueError(f"element {name!r}: material {g.material.name!r} is not the "
                             "materials entry of that name")
    for key, m in parsed.materials.items():
        if m.name != key:
            raise ValueError(f"materials entry {key!r} holds a material named {m.name!r}")
    mech = parsed.mechanism
    elements = {id(g): name for name, g in parsed.elements.items()}
    limbs = {}
    for limb, _ in mech.limbs:
        if limbs.setdefault(limb.name, limb) != limb:
            raise ValueError(f"two different limbs are named {limb.name!r}")
        if any(id(geom) not in elements for geom, _ in limb.members):
            raise ValueError(f"limb {limb.name!r}: a member's geometry is not an element")
    # the reader cuts a comment off the reference line, strips it and reads
    # the rest after the head, or the default reference where none is left
    if mech.reference.split("#")[0].strip().splitlines() != [mech.reference]:
        raise ValueError(f"reference {mech.reference!r} would not read back as itself")
    # each section's records, in file order; None for an absent optional section
    sections = {
        "materials": [_material_record(name, m) for name, m in sorted(parsed.materials.items())],
        "elements": [_element_record(name, g) for name, g in sorted(parsed.elements.items())],
        **{f"limb {name}": [_record("member", [elements[id(geom)]], _placed(p))
                            for geom, p in limb.members] for name, limb in limbs.items()},
        "mechanism": [f"reference {mech.reference}"]
                     + [_record("limb", [limb.name], _placed(p)) for limb, p in mech.limbs],
        "sweep": None if parsed.sweep is None else _sweep_records(parsed.sweep),
        "measured": None if parsed.measured is None else [
            _record("measured", [axis, *(value if isinstance(value, tuple) else (value,))], {})
            for axis, value in parsed.measured.items()],
    }
    out = [FORMAT_HEADER, UNITS_HEADER]
    for section, records in sections.items():
        if records is not None:
            out += ["", f"[{section}]", *records]
    return "\n".join(out) + "\n"
