"""Command-line front end: run scenario files and print verdict reports.

Exit codes: 0 on success (including FAIL verdicts, unless --strict and an
expectation is missed), 2 on scenario schema errors, 3 on execution
errors.
"""

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .report import run_scenario, run_suite

__all__ = ["main"]


def _scenario_dir():
    return resources.files("invariance") / "scenarios"


def _shipped_names():
    return sorted(p.name[:-5] for p in _scenario_dir().iterdir()
                  if p.name.endswith(".json"))


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    if "error" in report:
        print("%-40s ERROR (%s): %s" % (report.get("scenario", "?"),
                                        report.get("error_kind", "?"),
                                        report["error"]))
        return
    for part in sorted(report["parts"]):
        flag = "PASS" if report["parts"][part] else "FAIL"
        print("%-40s %-24s %s  residual=%.3e"
              % (report["scenario"], part, flag,
                 report["residuals"][part]))
    if not report["expectation_met"]:
        print("%-40s EXPECTATION MISSED: %s"
              % (report["scenario"], ", ".join(report["mismatches"])))


def _strict_code(reports, exit_code, strict):
    if strict and exit_code == 0:
        for r in reports:
            if "error" in r or not r.get("expectation_met", False):
                return 1
    return exit_code


def _add_common(p):
    p.add_argument("--tol", type=float, default=None,
                   help="override the scenario tolerance")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario sampling seed")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit when an expectation is missed")
    p.add_argument("--no-timestamp", action="store_true",
                   help="zero timestamps/runtimes for reproducible output")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="invariance",
        description="Numerical checks separating form-invariance from "
                    "frame-indifference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one scenario file")
    p_check.add_argument("scenario", help="path to a scenario JSON file")
    _add_common(p_check)

    p_suite = sub.add_parser("suite", help="run every scenario in a "
                                           "directory")
    p_suite.add_argument("directory", help="directory of scenario files")
    p_suite.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run scenarios in up to N worker processes "
                              "(at most one per CPU and per scenario)")
    _add_common(p_suite)

    p_demo = sub.add_parser("demo", help="run a shipped scenario by name")
    p_demo.add_argument("name", nargs="?", default=None,
                        help="shipped scenario name (omit to list)")
    _add_common(p_demo)

    args = parser.parse_args(argv)

    if args.command == "check":
        report, code = run_scenario(args.scenario, args.tol, args.seed,
                                    args.no_timestamp)
        _print_report(report, args.json)
        return _strict_code([report], code, args.strict)

    if args.command == "suite":
        root = Path(args.directory)
        if not root.is_dir():
            print("not a directory: %s" % root, file=sys.stderr)
            return 2
        paths = sorted(root.glob("*.json"))
        if not paths:
            print("no scenario files in %s" % root, file=sys.stderr)
            return 2
        reports, code = run_suite(paths, args.tol, args.seed,
                                  args.no_timestamp, max(1, args.jobs))
        if args.json:
            print(json.dumps(reports, indent=2, sort_keys=True))
        else:
            for report in reports:
                _print_report(report, False)
            met = sum(1 for r in reports if r.get("expectation_met"))
            print("%d/%d scenarios matched expectations" % (met,
                                                            len(reports)))
        return _strict_code(reports, code, args.strict)

    if args.command == "demo":
        names = _shipped_names()
        if args.name is None:
            print("\n".join(names))
            return 0
        if args.name not in names:
            print("unknown demo %r; available: %s"
                  % (args.name, ", ".join(names)), file=sys.stderr)
            return 2
        path = _scenario_dir() / (args.name + ".json")
        report, code = run_scenario(str(path), args.tol, args.seed,
                                    args.no_timestamp)
        _print_report(report, args.json)
        return _strict_code([report], code, args.strict)

    return 2


if __name__ == "__main__":
    sys.exit(main())
