"""Command line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 budget exceeded.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import averaging, density, folner, gallery, measures, spaces
from .folner import BudgetError, LampBox, ZCentered, ZInitial, ZShifted
from .groups import LAMPLIGHTER, parse, render
from .relations import encode

FAMILIES = {
    "z-initial": ZInitial,
    "z-centered": ZCentered,
    "z-shifted": ZShifted,
    "lamp-box": LampBox,
}


class SystemExit2(Exception):
    """A usage error: bad input from the command line (exit code 2)."""


def _family(name, space=None):
    fam = FAMILIES[name]()
    if (space is not None and folner.group_of_family(fam) == LAMPLIGHTER
            and space.group != LAMPLIGHTER):
        raise SystemExit2("family %r does not act on %s" % (name, space.name))
    return fam


def _parsed(parser, text, *args):
    """Read one piece of command-line text; malformed text is a usage
    error, reported with the parser's reason."""
    try:
        return parser(text, *args)
    except ValueError as e:
        raise SystemExit2("cannot read %r: %s" % (text, e))


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _index(text):
    """argparse type of a Folner index."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if n < 1:
        raise argparse.ArgumentTypeError("Folner index must be >= 1, got %d" % n)
    return n


def _radius(text):
    """argparse type of a ball radius: the exact rational it names, > 0."""
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % text)
    if r <= 0:
        raise argparse.ArgumentTypeError("a ball needs a radius > 0, got %s" % r)
    return r


def _window(args):
    lo, hi = args.window
    if lo > hi:
        raise SystemExit2("empty window %d..%d" % (lo, hi))
    return lo, hi


def _space(args):
    return _parsed(gallery.build, args.system)


def _point(space, text):
    return _parsed(spaces.parse_point, text, space)


def _pair(space, text):
    p = _point(space, text)
    if not isinstance(p, tuple):
        raise SystemExit2("expected a pair like 'a;b', got %r" % (text,))
    return p


def cmd_folner(args):
    fam = _family(args.family)
    out = {"family": args.family, "n": args.n,
           "cardinality": folner.cardinality(fam, args.n, args.budget)}
    if args.list:
        out["elements"] = [render(g) for g in
                           folner.elements(fam, args.n, args.budget)]
    if args.defect:
        group = folner.group_of_family(fam)
        K = [_parsed(parse, t, group) for t in args.defect.split(";")]
        out["defect"] = encode(folner.defect(fam, args.n, K, args.budget))
    if args.bound:
        g = _parsed(parse, args.bound, LAMPLIGHTER)
        out["lamp_defect_bound"] = encode(folner.lamp_defect_bound(g, args.n))
    _emit(out)
    return 0


def cmd_avg(args):
    space = _space(args)
    x = _point(space, args.x)
    y = _point(space, args.y)
    fam = _family(args.family, space)
    prof = averaging.besicovitch_profile(space, x, y, fam, _window(args),
                                         args.budget)
    if args.csv:
        try:
            averaging.profile_to_csv(prof, args.csv)
        except OSError as e:
            raise SystemExit2("cannot write --csv %r: %s"
                              % (args.csv, e.strerror or e))
    _emit({"system": args.system, "family": args.family,
           "window": list(prof.window),
           "values": encode(prof.values),
           "tail_sup": encode(prof.tail_sup),
           "stabilized": prof.stabilized})
    return 0


def cmd_density(args):
    space = _space(args)
    pair = _pair(space, args.pair)
    nbhd = spaces.Ball(_pair(space, args.center), args.radius)
    fam = _family(args.family, space)
    prof = density.ua_dens_estimate(space, pair, nbhd, fam, _window(args),
                                    args.budget)
    _emit({"system": args.system, "window": list(prof.window),
           "ratios": encode(prof.ratios),
           "tail_max": encode(prof.tail_max)})
    return 0


def cmd_measure(args):
    space = _space(args)
    start = _point(space, args.start)
    fam = _family(args.family, space)
    m = measures.empirical(space, start, fam, args.n, args.budget)
    _emit({"system": args.system, "n": args.n,
           "measure": measures.measure_to_json(m)})
    return 0


def cmd_detect(args):
    space = _space(args)
    pair = _pair(space, args.pair)
    system = gallery.SYSTEMS[args.system]
    case = system.case(pair)
    if case is None:
        raise SystemExit2("no registered witnesses for %r" % (args.pair,))
    certs = case.run(space, system.schedule(gallery.PROFILES[args.profile]),
                     args.budget)
    if args.relation != "all":
        if args.relation not in certs:
            raise SystemExit2("no %s certificate for this pair" % args.relation)
        certs = {args.relation: certs[args.relation]}
    _emit({"system": args.system, "pair": args.pair, "profile": args.profile,
           "certificates": {k: c.to_json() for k, c in certs.items()}})
    return 0


def cmd_icer(args):
    system = gallery.SYSTEMS.get(args.system)
    if system is None or system.model is None:
        raise SystemExit2("no finite model registered for %r" % args.system)
    hull = system.hull()
    _emit({"system": args.system, "classes": sorted({a for a, _ in hull}),
           "hull": sorted(list(p) for p in hull)})
    return 0


def cmd_reproduce(args):
    if args.system == "all":
        names = sorted(gallery.SYSTEMS)
    else:
        _space(args)
        names = [args.system]
    ok = True
    reports = []
    for name in names:
        rep = gallery.verify(name, args.profile)
        ok = ok and rep.ok
        reports.append(rep)
    if args.format == "table":
        for rep in reports:
            for row in rep.rows:
                line = "%-14s %-45s %s" % (rep.system, row.name, row.status)
                if row.detail and row.status == "MISMATCH":
                    line += "  " + row.detail
                print(line)
        print("overall: %s" % ("MATCH" if ok else "MISMATCH"))
    else:
        _emit({"profile": args.profile,
               "overall": "MATCH" if ok else "MISMATCH",
               "systems": [{"system": r.system,
                            "rows": [{"name": w.name, "status": w.status,
                                      "detail": w.detail} for w in r.rows]}
                           for r in reports]})
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="meandyn")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("folner", help="enumerate sets and exact defects")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=_index, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--defect", help="';'-separated elements for K")
    p.add_argument("--bound",
                   help="element of the lamplighter group for the defect bound")
    p.set_defaults(fn=cmd_folner)

    p = sub.add_parser("avg", help="Cesaro average profile of a pair")
    p.add_argument("--system", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--window", type=_index, nargs=2, default=[1, 60])
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_avg)

    p = sub.add_parser("density", help="upper density profile of a hitting set")
    p.add_argument("--system", required=True)
    p.add_argument("--pair", required=True, help="pair 'a;b'")
    p.add_argument("--center", required=True, help="ball center pair 'a;b'")
    p.add_argument("--radius", type=_radius, default=Fraction(1, 4))
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--window", type=_index, nargs=2, default=[1, 120])
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("measure", help="empirical measure along a family")
    p.add_argument("--system", required=True)
    p.add_argument("--start", required=True, help="point or pair")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=_index, required=True)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("detect", help="run registered relation detectors")
    p.add_argument("--system", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--relation", default="all",
                   choices=["all", *gallery.DETECTORS])
    p.add_argument("--profile", default="quick", choices=sorted(gallery.PROFILES))
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("icer", help="hull on the finite model")
    p.add_argument("--system", required=True)
    p.set_defaults(fn=cmd_icer)

    p = sub.add_parser("reproduce", help="replay a system's expected table")
    p.add_argument("--system", default="all")
    p.add_argument("--profile", default="quick", choices=sorted(gallery.PROFILES))
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.set_defaults(fn=cmd_reproduce)

    for cmd in ("folner", "avg", "density", "measure", "detect"):
        sub.choices[cmd].add_argument("--budget", type=int,
                                      default=folner.ATOM_BUDGET)
    return ap


# options whose value is a point or a pair, such as '-inf^1;+inf^1'
POINT_OPTIONS = ("--pair", "--center", "--start", "--x", "--y")


def _joined(argv):
    """argv with the separate value of a point option joined to it by
    '=': argparse would take a value that begins with '-' for an
    option.  A value that begins with '--' is left alone, so a missing
    value is still reported as one."""
    out = []
    for arg in argv:
        if (out and out[-1] in POINT_OPTIONS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except BudgetError as e:
        print("budget error: %s" % e, file=sys.stderr)
        return 3
    except SystemExit2 as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
