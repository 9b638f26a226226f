"""
Command-line frontend: knot-table ingestion, structured run reports, and the
alex / talex / symun / obstruct / table commands orchestrating the library.

Knots are referred to by table name (bundled table in data/knots.csv, or a
user table via --table / the KNOTFORGE_TABLE environment variable), by the
literal name "unknot", or by an inline PD code.  Every command produces a
RunReport, printed as human-readable text or, with --json, as JSON whose
re-serialization is byte-identical.

Exit codes: 0 success (an "obstructed" verdict is a successful verdict),
1 domain error, 2 usage error, 3 search budget / feasibility error.

`main` and `run` build one argument parser per process and parse a knot
table once per content: the table file is still read on every call, so an
edited file or a changed KNOTFORGE_TABLE is seen, but the same text under
the same origin is validated once; its diagrams keep their presentations
and polynomials as long as that parse.  No representation or verdict is kept.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import time

from ._record import Record
from .diagram import (InvalidDiagram, MarkedDiagram, PDCode, SymUnionSpec,
                      format_pd, parse_pd, symmetric_union_pd)
from .presentation import build_symun_presentation, format_presentation
from .reps import (RepSearchConfig, SearchBudgetExceeded, enumerate_sl2,
                   rep_from_json)
from .twisted import (_deficiency_one, _rep_polynomials, _symun_presentations,
                      _wirtinger, classical_alexander,
                      even_symun_obstruction, even_symun_quick_obstructions,
                      format_fraction, higher_alexander, knot_determinant,
                      trivial_rep, twisted_alexander, verify_theorem)
from .algebra import format_poly


class DomainError(ValueError):
    """User-facing error in the problem domain (unknown knot, bad rep...)."""


# -- knot table --------------------------------------------------------------

class KnotTable:
    """Named PD codes loaded from a name,pd CSV; leading #-comment lines are
    kept as the provenance string."""

    def __init__(self, entries, provenance=""):
        self.entries = dict(entries)
        self.provenance = provenance

    @classmethod
    def load(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError("unreadable table %s: %s" % (path, exc.strerror))
        except UnicodeDecodeError as exc:
            raise DomainError("table %s is not valid UTF-8: %s"
                              % (path, exc)) from exc
        return cls.parse(text, origin=str(path))

    @classmethod
    def parse(cls, text, origin="<table>"):
        # a new entries dict per call, over PD codes shared between calls
        return cls(*_parse_table(text, origin))

    def __len__(self):
        return len(self.entries)

    def __contains__(self, name):
        return name in self.entries

    def __getitem__(self, name):
        try:
            return self.entries[name]
        except KeyError:
            raise DomainError("unknown knot name %r (table has: %s)"
                              % (name, ", ".join(sorted(self.entries)) or
                                 "nothing")) from None


# one entry for each table a process is likely to switch between: the
# bundled one, the user's, a --table and a KNOTFORGE_TABLE.  lru_cache keeps
# no call that raised, so a bad table fails on every call
@functools.lru_cache(maxsize=4)
def _parse_table(text, origin):
    """(((name, PDCode), ...), provenance) of a table's text; DomainError
    names the origin and line of the first bad row."""
    provenance = []
    rows = []  # (lineno, raw_line)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            provenance.append(line[1:].strip())
            continue
        if not line.strip():
            continue
        rows.append((lineno, line))
    entries = {}
    if not rows:
        return (), "\n".join(provenance)
    header_no, header = rows[0]
    cols = next(csv.reader([header]))
    if [c.strip() for c in cols] != ["name", "pd"]:
        raise DomainError("%s:%d: expected header 'name,pd', got %r"
                          % (origin, header_no, header))
    seen = {}
    for lineno, line in rows[1:]:
        fields = next(csv.reader([line]))
        if len(fields) != 2:
            raise DomainError("%s:%d: expected 2 columns, got %d"
                              % (origin, lineno, len(fields)))
        name, pd_text = fields[0].strip(), fields[1]
        if name in seen:
            raise DomainError(
                "%s:%d: duplicate knot name %r (first defined at line %d)"
                % (origin, lineno, name, seen[name]))
        try:
            entries[name] = parse_pd(pd_text)
        except InvalidDiagram as exc:
            raise DomainError("%s:%d: invalid PD for %r: %s"
                              % (origin, lineno, name, exc)) from exc
        seen[name] = lineno
    return tuple(entries.items()), "\n".join(provenance)


# the bundled knots.csv and rho0.json, read from the package directory
_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _read_bundled(name):
    with open(os.path.join(_DATA, name), encoding="utf-8") as fh:
        return fh.read()


def user_table_path():
    return os.path.join(os.path.expanduser("~"), ".knotforge", "knots.csv")


def default_table(explicit=None):
    """Table resolution order: --table flag, KNOTFORGE_TABLE, the user table
    installed by `table import`, then the bundled table."""
    if explicit:
        return KnotTable.load(explicit)
    env = os.environ.get("KNOTFORGE_TABLE")
    if env:
        return KnotTable.load(env)
    user = user_table_path()
    if os.path.exists(user):
        return KnotTable.load(user)
    return KnotTable.parse(_read_bundled("knots.csv"),
                           origin="bundled knots.csv")


def resolve_knot(spec, table):
    """A knot argument: table name, 'unknot', or an inline PD code."""
    s = spec.strip()
    if s == "unknot":
        return PDCode([])
    if "X[" in s or s.startswith("["):
        try:
            return parse_pd(s)
        except InvalidDiagram as exc:
            raise DomainError("malformed PD code: %s" % exc) from exc
    return table[s]


# -- run reports -------------------------------------------------------------

class RunReport(Record):
    """A command's report; unlike the package's other records it is mutable
    and unhashable."""
    __slots__ = _fields = ("command", "inputs", "results", "timing_ms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, command, inputs, results, timing_ms):
        self._init(command, inputs, results, timing_ms)

    def to_json(self):
        payload = {"command": self.command, "inputs": self.inputs,
                   "results": self.results, "timing_ms": self.timing_ms}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(command=data["command"], inputs=data["inputs"],
                   results=data["results"], timing_ms=data["timing_ms"])

    def to_text(self):
        out = io.StringIO()
        out.write("command: %s\n" % " ".join(str(c) for c in self.command))
        for section, data in (("inputs", self.inputs),
                              ("results", self.results)):
            out.write("%s:\n" % section)
            _render(out, data, "  ")
        out.write("timing: %.3f ms\n" % self.timing_ms)
        return out.getvalue()


def _render(out, value, indent):
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                out.write("%s%s:\n" % (indent, k))
                _render(out, v, indent + "  ")
            else:
                out.write("%s%s: %s\n" % (indent, k, _scalar(v)))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            if isinstance(v, (dict, list)) and v:
                out.write("%s[%d]:\n" % (indent, i))
                _render(out, v, indent + "  ")
            else:
                out.write("%s- %s\n" % (indent, _scalar(v)))
    else:
        out.write("%s%s\n" % (indent, _scalar(value)))


def _scalar(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# -- shared helpers ----------------------------------------------------------

def _load_rep(rep_arg, pres, p):
    """--rep argument: 'trivial', built on the presentation pres, or a JSON
    file with the generator images on the knot's Wirtinger generators, which
    the command checks on its presentation."""
    if rep_arg == "trivial":
        return trivial_rep(pres, p)
    try:
        with open(rep_arg, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError("rep file %r is not valid UTF-8: %s"
                          % (rep_arg, exc)) from exc
    except OSError as exc:
        if os.path.isfile(os.path.join(_DATA, rep_arg)):
            text = _read_bundled(rep_arg)
        else:
            raise DomainError("cannot read rep file %r: %s" % (rep_arg, exc))
    try:
        rho = rep_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError("invalid rep file %r: %s" % (rep_arg, exc)) from exc
    if rho.p != p:
        raise DomainError("rep file is over F_%s but --p %d was given"
                          % (rho.p, p))
    return rho


def _parse_ints(text, what):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise DomainError("expected comma-separated integers for %s, got %r"
                          % (what, text)) from None


def _search_config(args):
    kw = {"p": args.p}
    if getattr(args, "max_nodes", None) is not None:
        kw["max_nodes"] = args.max_nodes
    return RepSearchConfig(**kw)


# -- commands ----------------------------------------------------------------

def cmd_alex(args, table):
    pd = resolve_knot(args.knot, table)
    delta = classical_alexander(pd)
    results = {"alexander": format_poly(delta)}
    for k in sorted(set(args.ideal or ())):
        results["alexander_%d" % k] = format_poly(higher_alexander(pd, k))
    if args.det:
        results["determinant"] = knot_determinant(pd)
    return {"knot": args.knot, "pd": format_pd(pd),
            "crossings": pd.n}, results


def cmd_talex(args, table):
    pd = resolve_knot(args.knot, table)
    pres = _deficiency_one(_wirtinger(pd))
    inputs = {"knot": args.knot, "p": args.p, "crossings": pd.n}
    if args.enumerate:
        reps = enumerate_sl2(pres, _search_config(args))
        polys = [{"trace": rho.trace(),
                  "polynomial": format_fraction(tw.value),
                  "degree": tw.degree}
                 for rho, tw in zip(reps, _rep_polynomials(pres, reps))]
        return inputs, {"num_reps": len(reps), "polynomials": polys}
    if not args.rep:
        raise DomainError("talex needs --rep FILE|trivial or --enumerate")
    rho = _load_rep(args.rep, pres, args.p)
    tw = twisted_alexander(pres, rho)
    inputs["rep"] = args.rep
    return inputs, {"polynomial": format_fraction(tw.value),
                    "degree": tw.degree, "d": tw.d,
                    "is_polynomial": tw.is_polynomial}


def _symun_spec(args, table):
    pd = resolve_knot(args.partial, table)
    marks = _parse_ints(args.marks, "--marks")
    twists = _parse_ints(args.twists, "--twists") if args.twists else ()
    try:
        return SymUnionSpec(MarkedDiagram(pd, marks), twists)
    except InvalidDiagram as exc:
        raise DomainError(str(exc)) from exc


def cmd_symun(args, table):
    spec = _symun_spec(args, table)
    inputs = {"mode": args.mode, "partial": args.partial,
              "marks": list(spec.partial.marked_edges),
              "twists": list(spec.twists)}
    if args.mode == "build":
        union_pres, partial_pres, phi = build_symun_presentation(spec)
        results = {
            "union_presentation": format_presentation(union_pres),
            "partial_presentation": format_presentation(partial_pres),
            "phi": phi.format(),
        }
        if spec.partial.base.n > 0:
            union_pd = symmetric_union_pd(spec)
            results["union_pd"] = format_pd(union_pd)
            results["union_crossings"] = union_pd.n
            results["union_alexander"] = format_poly(
                classical_alexander(union_pd))
            results["partial_alexander"] = format_poly(
                classical_alexander(spec.partial.base))
        return inputs, results
    # verify
    if not spec.is_even:
        raise DomainError("verify needs even twist counts, got %s"
                          % (list(spec.twists),))
    if args.p is None:
        raise DomainError("verify needs --p")
    if args.trials < 1:
        raise DomainError("--trials must be at least 1, got %d"
                          % args.trials)
    inputs["p"] = args.p
    inputs["trials"] = args.trials
    # the template kept on spec, which verify_theorem reads
    _, partial_pres, _ = _symun_presentations(spec)
    reps = enumerate_sl2(partial_pres, _search_config(args))
    chosen = reps[:args.trials]  # deterministic: by enumeration index
    runs = []
    all_hold = True
    for rho in chosen:
        res = verify_theorem(spec, rho)
        degree_law = (res["deg_lhs"] == res["deg_rhs"])
        all_hold = all_hold and res["equal"] and degree_law
        runs.append({"trace": rho.trace(), "equal": res["equal"],
                     "deg_lhs": res["deg_lhs"], "deg_rhs": res["deg_rhs"],
                     "lhs": res["lhs"], "rhs": res["rhs"]})
    return inputs, {"num_reps_available": len(reps),
                    "num_reps_checked": len(chosen),
                    "runs": runs,
                    "all_identities_hold": all_hold}


def cmd_obstruct(args, table):
    K = resolve_knot(args.knot, table)
    cand = resolve_knot(args.candidate, table)
    inputs = {"knot": args.knot, "candidate": args.candidate}
    quick = even_symun_quick_obstructions(K, cand, genus=args.genus)
    results = {"quick_checks": {k: bool(v) for k, v in quick.items()},
               # the geometric classification of admissible partial knots
               # (branched double covers, Seifert fibered spaces) is assumed
               # background and never computed here; only the polynomial and
               # representation-theoretic conditions are checked
               "assumed_not_computed": "geometric classification of "
                                       "admissible partial knots"}
    if not quick["all_pass"]:
        results["verdict"] = "obstructed"
        results["reason"] = "quick obstruction failed: " + ", ".join(
            k for k, v in quick.items() if k != "all_pass" and not v)
        return inputs, results
    if not args.rep:
        results["verdict"] = "inconclusive"
        results["reason"] = ("quick checks pass; supply --rep and --p for "
                            "the representation-based obstruction")
        return inputs, results
    if args.p is None:
        raise DomainError("--rep needs --p")
    inputs["p"] = args.p
    inputs["rep"] = args.rep
    rho = _load_rep(args.rep, _wirtinger(cand), args.p)
    try:
        verdict = even_symun_obstruction(K, cand, rho, args.max_nodes)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    results["verdict"] = verdict["verdict"]
    results["target"] = verdict["target"]
    results["num_reps"] = verdict["num_reps"]
    results["evidence"] = [
        {"trace": e["trace"], "polynomial": e["polynomial"]}
        for e in verdict["evidence"]]
    return inputs, results


def cmd_table(args, table):
    if args.action != "import":
        raise DomainError("unknown table action %r" % args.action)
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError("cannot read %r: %s" % (args.path, exc))
    except UnicodeDecodeError as exc:
        raise DomainError("table %r is not valid UTF-8: %s"
                          % (args.path, exc)) from exc
    imported = KnotTable.parse(text, origin=args.path)
    dest = os.environ.get("KNOTFORGE_TABLE") or user_table_path()
    os.makedirs(os.path.dirname(os.path.abspath(dest)) or ".", exist_ok=True)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
    results = {"entries_loaded": len(imported),
               "names": sorted(imported.entries),
               "persisted_to": dest}
    if len(imported) == 0:
        results["warning"] = "empty table"
    return {"path": args.path}, results


# -- argument parsing --------------------------------------------------------

def build_parser():
    # the options every command takes, before or after its name; with no
    # default, a command that is not given one keeps the value given before
    # the command's name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", default=argparse.SUPPRESS,
                        help="path to a name,pd CSV knot table")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the run report as JSON")
    ap = argparse.ArgumentParser(
        prog="knotforge", parents=[common],
        description="Exact twisted Alexander polynomials, symmetric unions "
                    "and SL(2,F_p) representations of knot groups.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_command(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add_command("alex", "classical and higher Alexander polynomials")
    p.add_argument("knot")
    p.add_argument("--ideal", action="append", type=int, metavar="K",
                   help="also compute the K-th Alexander polynomial")
    p.add_argument("--det", action="store_true",
                   help="also compute the knot determinant")
    p.set_defaults(func=cmd_alex)

    p = add_command("talex", "twisted Alexander (Wada) invariants")
    p.add_argument("knot")
    p.add_argument("--p", type=int, required=True,
                   help="prime for SL(2,F_p) / GL(1,F_p) coefficients")
    p.add_argument("--rep", help="JSON rep file on the Wirtinger "
                                 "generators, or 'trivial'")
    p.add_argument("--enumerate", action="store_true",
                   help="enumerate nonabelian SL(2,F_p) reps up to conjugacy")
    p.add_argument("--max-nodes", type=int, dest="max_nodes")
    p.set_defaults(func=cmd_talex)

    p = add_command("symun", "symmetric-union construction and "
                             "verification")
    p.add_argument("mode", choices=("build", "verify"))
    p.add_argument("--partial", required=True)
    p.add_argument("--marks", required=True,
                   help="comma-separated marked edges e0,e1,...")
    p.add_argument("--twists", default="",
                   help="comma-separated twist counts n1,...")
    p.add_argument("--p", type=int)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--max-nodes", type=int, dest="max_nodes")
    p.set_defaults(func=cmd_symun)

    p = add_command("obstruct", "even symmetric-union obstruction")
    p.add_argument("knot")
    p.add_argument("--candidate", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--rep")
    p.add_argument("--genus", type=int,
                   help="genus witness for the parity quick check")
    p.add_argument("--max-nodes", type=int, dest="max_nodes")
    p.set_defaults(func=cmd_obstruct)

    p = add_command("table", "knot-table management")
    p.add_argument("action", choices=("import",))
    p.add_argument("path")
    p.set_defaults(func=cmd_table)
    return ap


def _attach_list_values(argv):
    """Write `--twists -2,2` as `--twists=-2,2` (likewise --marks): argparse
    takes a separate value that starts with '-' and is not one number for
    an option, and would reject the command."""
    out = []
    for arg in argv:
        if (out and out[-1] in ("--twists", "--marks")
                and re.match(r"-\d+,", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def _shared_parser():
    # parsing reads a parser and writes only the namespace it returns, so
    # one parser serves every call in the process
    return build_parser()


def _parse(argv):
    """(argv with list values attached, parsed arguments)."""
    argv = _attach_list_values(argv)
    return argv, _shared_parser().parse_args(argv)


def _execute(argv, args):
    table = (None if args.cmd == "table"
             else default_table(getattr(args, "table", None)))
    t0 = time.perf_counter()
    inputs, results = args.func(args, table)
    dt = (time.perf_counter() - t0) * 1000.0
    return RunReport(command=["knotforge"] + list(argv), inputs=inputs,
                     results=results, timing_ms=round(dt, 3))


def run(argv):
    return _execute(*_parse(argv))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, args = _parse(argv)
        report = _execute(argv, args)
    except SearchBudgetExceeded as exc:
        print("error: search budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:  # DomainError and InvalidDiagram among them
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    emit = (report.to_json() if getattr(args, "json", False)
            else report.to_text())
    sys.stdout.write(emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
