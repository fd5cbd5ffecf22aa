"""Line-oriented text input: every data file flexmech reads, and the
canonical serialization of mechanism files.

All files share one set of rules: '#' starts a comment, blank lines are
skipped, tokens split on whitespace, options are key=value, numbers must be
finite, and every error names its line and field (MechanismFileError).

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
from .materials import Material, MeasuredJointRecord
from .mechanism import Limb, Mechanism
from .spatial import FramePlacement

FORMAT_HEADER = "flexmech mechanism format 1"
UNITS_HEADER = "units mm deg N"
CREEP_COLUMNS = ("time_s", "force_n")
MEASURED_AXES = ("x", "y", "z")     # measured stiffnesses are translational, in N/mm


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
    cut = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(lines, start=1))
    return [(lineno, text) for lineno, text in cut if text]


def _num(token, lineno, field):
    try:
        v = float(token)
    except ValueError:
        raise MechanismFileError(f"not a number: {token!r}", lineno, field) from None
    if not math.isfinite(v):
        raise MechanismFileError(f"non-finite number: {token!r}", lineno, field)
    return v


def _kv(tokens, lineno, context):
    out = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise MechanismFileError(f"expected key=value, got {tok!r}", lineno, context)
        out[key] = val
    return out


def numeric_rows(entries, columns):
    """One tuple of finite numbers per entry; `columns` names the fixed columns."""
    rows = []
    for lineno, text in entries:
        parts = text.split()
        if len(parts) != len(columns):
            raise MechanismFileError(
                f"expected {len(columns)} columns: {' '.join(columns)}", lineno)
        rows.append(tuple(_num(p, lineno, c) for p, c in zip(parts, columns)))
    return rows


def _parse_materials(entries, source="<materials>"):
    out = {}
    for lineno, line in entries:
        parts = line.split()
        if parts[0] != "material" or len(parts) < 2:
            raise MechanismFileError(f"expected 'material <name> E=.. nu=..', got {line!r}",
                                     lineno)
        name = parts[1]
        kv = {k: _num(v, lineno, k) for k, v in _kv(parts[2:], lineno, name).items()}
        if "E" not in kv or "nu" not in kv:
            raise MechanismFileError("material needs E and nu", lineno, name)
        if name in out:
            raise MechanismFileError(f"duplicate material {name!r}", lineno, name)
        try:
            out[name] = Material(name, kv["E"], kv["nu"], kv.get("G"))
        except ValueError as exc:
            raise MechanismFileError(str(exc), lineno, name) from None
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

    Only the cross stiffness may be '-' (not measured).
    """
    records = []
    for lineno, line in text_entries(lines):
        parts = line.split()
        if parts[0] != "joint" or len(parts) < 2:
            raise MechanismFileError(
                f"expected 'joint <variant> cross=.. joint=.. max_load=..', got {line!r}", lineno)
        variant = parts[1]
        kv = {}
        for key, value in _kv(parts[2:], lineno, variant).items():
            if value == "-" and key != "cross":
                raise MechanismFileError("only cross may be '-' (unmeasured)", lineno, key)
            kv[key] = None if value == "-" else _num(value, lineno, key)
        try:
            records.append(MeasuredJointRecord(variant, kv.get("cross"),
                                               kv["joint"], kv["max_load"]))
        except KeyError as exc:
            raise MechanismFileError(f"missing field {exc}", lineno, variant) from None
        except ValueError as exc:
            raise MechanismFileError(str(exc), lineno, variant) from None
    return records


def _placement(kv, lineno, context):
    if "r" not in kv:
        raise MechanismFileError("missing displacement r=x,y,z", lineno, context)
    parts = kv["r"].split(",")
    if len(parts) != 3:
        raise MechanismFileError(f"r needs three components, got {kv['r']!r}", lineno, context)
    r = tuple(_num(p, lineno, "r") for p in parts)
    theta = _num(kv["theta"], lineno, "theta") if "theta" in kv else 0.0
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
    for lineno, line in entries:
        parts = line.split()
        if len(parts) < 3 or parts[0] not in ("hinge", "beam"):
            raise MechanismFileError(
                f"expected 'hinge <name> ...' or 'beam <name> ...', got {line!r}", lineno)
        kind, name = parts[0], parts[1]
        if name in elements:
            raise MechanismFileError(f"duplicate element {name!r}", lineno, name)
        kv = _kv(parts[2:], lineno, name)
        if "material" not in kv:
            raise MechanismFileError("element needs material=<name>", lineno, name)
        mat_name = kv.pop("material")
        if mat_name not in materials:
            raise MechanismFileError(f"unknown material {mat_name!r}", lineno, name)
        nums = {k: _num(v, lineno, k) for k, v in kv.items()}
        try:
            if kind == "hinge":
                elements[name] = HingeGeometry(nums["r"], nums["t"], nums["w"],
                                               nums.get("h1", 0.0), materials[mat_name])
            else:
                elements[name] = BeamGeometry(nums["l"], nums["w"], nums["s"],
                                              materials[mat_name])
        except KeyError as exc:
            raise MechanismFileError(f"missing field {exc}", lineno, name) from None
        except ValueError as exc:
            raise MechanismFileError(str(exc), lineno, name) from None
    return elements


def _parse_limb(name, entries, elements, section_line):
    members = []
    for lineno, line in entries:
        parts = line.split()
        if parts[0] != "member" or len(parts) < 3:
            raise MechanismFileError(f"expected 'member <element> r=.. theta=..', got {line!r}",
                                     lineno, name)
        elem_name = parts[1]
        if elem_name not in elements:
            raise MechanismFileError(f"dangling element reference {elem_name!r}", lineno, name)
        member = (elements[elem_name],
                  _placement(_kv(parts[2:], lineno, elem_name), lineno, elem_name))
        # a member a limb of it alone refuses is named at its own line
        _checked(Limb, lineno, name, name, (member,))
        members.append(member)
    try:
        return Limb(name, tuple(members))
    except ValueError as exc:  # an empty limb
        raise MechanismFileError(str(exc), section_line, name) from None


def _parse_mechanism_section(entries, limbs, section_line):
    reference = "reference point"
    placed = []
    for lineno, line in entries:
        parts = line.split()
        if parts[0] == "reference":
            reference = line.split(None, 1)[1] if len(parts) > 1 else reference
        elif parts[0] == "limb":
            if len(parts) < 3:
                raise MechanismFileError(f"expected 'limb <name> r=..', got {line!r}", lineno)
            limb_name = parts[1]
            if limb_name not in limbs:
                raise MechanismFileError(f"unknown limb {limb_name!r}", lineno, limb_name)
            placed.append((limbs[limb_name], _placement(_kv(parts[2:], lineno, limb_name),
                                                        lineno, limb_name)))
        else:
            raise MechanismFileError(f"unexpected mechanism line {line!r}", lineno)
    try:
        return Mechanism(tuple(placed), reference)
    except ValueError as exc:
        raise MechanismFileError(str(exc), section_line) from None


def _checked(check, lineno, field, *args):
    try:
        check(*args)
    except ValueError as exc:
        raise MechanismFileError(str(exc), lineno, field) from None


# objective lines: head -> (second token, weight term, token count)
_OBJECTIVE_LINES = {"target": ("rcc_height", "rcc", 3),
                    "maximize": ("stiffness_ratio", "ratio", 2),
                    "target_k": (None, "diag", 3)}


def _parse_sweep(entries, section_line):
    parameters = {}
    target_rcc = None
    ratio_max = False
    diag_targets = {}
    weights = {}
    objectives = set()
    for lineno, line in entries:
        parts = line.split()
        bare = [p for p in parts if "=" not in p]
        kv = _kv([p for p in parts if "=" in p], lineno, "sweep")
        head = bare[0] if bare else None
        if head == "vary":
            if kv:
                key = next(iter(kv))
                raise MechanismFileError(f"'vary' takes no options, got {key}=", lineno, key)
            if len(bare) != 5:
                raise MechanismFileError(f"expected 'vary <name> <lo> <hi> <n>', got {line!r}", lineno)
            name = bare[1]
            lo, hi, n = (_num(tok, lineno, name) for tok in bare[2:])
            _checked(check_sweep_range, lineno, name, name, lo, hi, n)
            if name in parameters:
                raise MechanismFileError(f"duplicate sweep parameter {name!r}", lineno, name)
            parameters[name] = (lo, hi, n)
            continue
        objective = _OBJECTIVE_LINES.get(head)
        if objective is None or len(bare) < objective[2] or objective[0] not in (None, bare[1]):
            raise MechanismFileError(f"unexpected sweep line {line!r}", lineno)
        _, term, count = objective
        if len(bare) > count:
            raise MechanismFileError(f"unexpected token {bare[count]!r} in {line!r}",
                                     lineno, head)
        for key in kv:
            if key != "weight":
                raise MechanismFileError(f"unknown option {key!r}; the only option is weight=",
                                         lineno, key)
        if (head, bare[1]) in objectives:
            raise MechanismFileError(f"duplicate objective '{head} {bare[1]}'", lineno, bare[1])
        objectives.add((head, bare[1]))
        if head == "target":
            target_rcc = _num(bare[2], lineno, "rcc_height")
        elif head == "maximize":
            ratio_max = True
        else:
            _checked(check_stiffness_axis, lineno, bare[1], bare[1])
            diag_targets[bare[1]] = _num(bare[2], lineno, bare[1])
            _checked(check_stiffness_target, lineno, bare[1], bare[1], diag_targets[bare[1]])
        weight = _num(kv["weight"], lineno, "weight") if "weight" in kv else 1.0
        # the target_k lines share one weight term, so they must agree on it
        shared = weights.get("diag", 1.0)
        if head == "target_k" and len(diag_targets) > 1 and weight != shared:
            raise MechanismFileError(f"target_k weight {weight:g} differs from the earlier "
                                     f"target_k weight {shared:g}; one weight applies to all "
                                     "target_k lines", lineno, "weight")
        if "weight" in kv:
            weights[term] = weight
    try:
        return SweepSpec(parameters,
                         SweepObjective(target_rcc, ratio_max, diag_targets or None, weights))
    except ValueError as exc:
        raise MechanismFileError(str(exc), section_line) from None


def parse_measured(entries):
    """Measured directional stiffnesses: 'measured <axis> <value> [<high>]' lines.

    Reads a [measured] section or a standalone measured-data file.
    """
    measured = {}
    for lineno, line in entries:
        parts = line.split()
        if parts[0] != "measured" or len(parts) not in (3, 4):
            raise MechanismFileError(
                f"expected 'measured <axis> <value> [<high>]', got {line!r}", lineno)
        axis = parts[1]
        if axis not in MEASURED_AXES:
            raise MechanismFileError(f"unknown measured axis {axis!r}; expected one of "
                                     f"{', '.join(MEASURED_AXES)}", lineno, axis)
        if axis in measured:
            raise MechanismFileError(f"duplicate measured axis {axis!r}", lineno, axis)
        values = tuple(_num(token, lineno, axis) for token in parts[2:])
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
            limb_name = words[1]
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
    return repr(float(x))  # shortest exact round-trip form


def _fmt_placement(p: FramePlacement):
    r = ",".join(_fmt(c) for c in p.r)
    return f"r={r} theta={_fmt(p.theta_deg)}"


def serialize(parsed: ParsedMechanism) -> str:
    """Canonical text form; parse(serialize(x)) == x."""
    out = [FORMAT_HEADER, UNITS_HEADER, ""]

    out.append("[materials]")
    for name in sorted(parsed.materials):
        m = parsed.materials[name]
        line = f"material {name} E={_fmt(m.e_modulus)} nu={_fmt(m.nu)}"
        if m.g_modulus != m.e_modulus / (2.0 * (1.0 + m.nu)):
            line += f" G={_fmt(m.g_modulus)}"
        out.append(line)
    out.append("")

    out.append("[elements]")
    for name in sorted(parsed.elements):
        g = parsed.elements[name]
        if isinstance(g, HingeGeometry):
            out.append(f"hinge {name} material={g.material.name} r={_fmt(g.r)} "
                       f"t={_fmt(g.t)} w={_fmt(g.w)} h1={_fmt(g.h1)}")
        else:
            out.append(f"beam {name} material={g.material.name} l={_fmt(g.l)} "
                       f"w={_fmt(g.w)} s={_fmt(g.s)}")
    out.append("")

    elem_names = {id(g): n for n, g in parsed.elements.items()}
    seen = {}
    for limb, _ in parsed.mechanism.limbs:
        if limb.name in seen:
            continue
        seen[limb.name] = limb
        out.append(f"[limb {limb.name}]")
        for geom, placement in limb.members:
            out.append(f"member {elem_names[id(geom)]} {_fmt_placement(placement)}")
        out.append("")

    out.append("[mechanism]")
    out.append(f"reference {parsed.mechanism.reference}")
    for limb, placement in parsed.mechanism.limbs:
        out.append(f"limb {limb.name} {_fmt_placement(placement)}")
    out.append("")

    if parsed.sweep is not None:
        out.append("[sweep]")
        for name, (lo, hi, n) in parsed.sweep.parameters.items():
            out.append(f"vary {name} {_fmt(lo)} {_fmt(hi)} {n}")
        obj = parsed.sweep.objective
        if obj.rcc_height_target is not None:
            out.append(f"target rcc_height {_fmt(obj.rcc_height_target)}"
                       + (f" weight={_fmt(obj.weights['rcc'])}" if "rcc" in obj.weights else ""))
        if obj.stiffness_ratio_max:
            out.append("maximize stiffness_ratio"
                       + (f" weight={_fmt(obj.weights['ratio'])}" if "ratio" in obj.weights else ""))
        for axis, target in (obj.diag_stiffness_target or {}).items():
            out.append(f"target_k {axis} {_fmt(target)}"
                       + (f" weight={_fmt(obj.weights['diag'])}" if "diag" in obj.weights else ""))
        out.append("")

    if parsed.measured is not None:
        out.append("[measured]")
        for axis, value in parsed.measured.items():
            if isinstance(value, tuple):
                out.append(f"measured {axis} {_fmt(value[0])} {_fmt(value[1])}")
            else:
                out.append(f"measured {axis} {_fmt(value)}")
        out.append("")

    return "\n".join(out).rstrip() + "\n"
