"""Command-line front end: check, run, explore, dump.

`kdb check` needs only the parser and the checker, so the engine's modules,
`kdb.semantics` and `kdb.net`, are imported by the commands that use them,
when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

from kdb.parser import ParseError, parse_system
from kdb.typesys import check_system

EXIT_OK = 0
EXIT_TYPE_ERRORS = 1
EXIT_PARSE_ERROR = 2
EXIT_ERR_NET = 3
EXIT_STEP_LIMIT = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a program that SIGPIPE ended

MAX_EXPLORE_BOUND = 10**6


def _color_enabled() -> bool:
    return os.environ.get("KDB_COLOR", "0") == "1"


def _error_line(path: str, text: str) -> str:
    msg = f"{path}:{text}"
    if _color_enabled():
        return f"\x1b[31m{msg}\x1b[0m"
    return msg


def _load(path: str):
    """Returns (system, None) or (None, exit_code) after printing errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = (f"not UTF-8 at byte {exc.start}" if isinstance(exc, UnicodeDecodeError)
                  else exc.strerror or exc)
        print(_error_line(path, f" cannot read file: {reason}"), file=_sys.stderr)
        return None, EXIT_PARSE_ERROR
    try:
        return parse_system(source), None
    except ParseError as exc:
        print(_error_line(path, str(exc)), file=_sys.stderr)
        return None, EXIT_PARSE_ERROR


def _print_diags(path: str, diags, as_json: bool) -> None:
    if as_json:
        print(json.dumps([d.to_json() for d in diags], indent=2))
    else:
        for d in diags:
            where = f"{d.span}" if d.span else "-"
            print(_error_line(path, f"{where}: {d.message}"), file=_sys.stderr)


def cmd_check(args) -> int:
    system, code = _load(args.file)
    if system is None:
        return code
    diags = check_system(system)
    if diags:
        _print_diags(args.file, diags, args.json)
        return EXIT_TYPE_ERRORS
    if args.json:
        print("[]")
    else:
        print(f"{args.file}: ok")
    return EXIT_OK


def _checked_system(args):
    system, code = _load(args.file)
    if system is None:
        return None, code
    if not args.unchecked:
        diags = check_system(system)
        if diags:
            _print_diags(args.file, diags, False)
            print(f"{args.file}: refusing to run an ill-typed system "
                  f"(pass --unchecked to run anyway)", file=_sys.stderr)
            return None, EXIT_TYPE_ERRORS
    return system, None


def _write_lines(path: str, lines: list) -> bool:
    """Write the lines to path; on failure print why and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(_error_line(path, f" cannot write file: {exc.strerror or exc}"), file=_sys.stderr)
        return False
    return True


def _lid_json(cn) -> list:
    from kdb import net as netmod

    pairs = []
    for (loc, tid), n in sorted(netmod.lid(cn).items()):
        pairs.extend([[loc, tid]] * n)
    return pairs


def _write_trace(path: str, trace: semantics.Trace) -> bool:
    from kdb import net as netmod

    lines = []
    for i, (label, cn) in enumerate(trace.steps):
        lines.append(json.dumps({
            "index": i,
            "rule": label.rule,
            "actor": label.actor,
            "detail": label.detail,
            "lid": _lid_json(cn),
            "ok": netmod.ok(cn),
        }, sort_keys=True))
    lines.append(json.dumps({
        "terminal": trace.terminal,
        "tables": netmod.dump_tables(trace.final()),
        "disabled": trace.disabled(),
    }, sort_keys=True))
    return _write_lines(path, lines)


def cmd_run(args) -> int:
    from kdb import net as netmod
    from kdb import semantics

    system, code = _checked_system(args)
    if system is None:
        return code
    trace = semantics.run(system, seed=args.seed, max_steps=args.max_steps)
    if args.trace and not _write_trace(args.trace, trace):
        return EXIT_PARSE_ERROR
    final = trace.final()
    print(f"terminal: {trace.terminal} after {len(trace.steps)} step(s)")
    for stuck in trace.disabled():
        print(f"disabled: {stuck}")
    print(netmod.dump_json(final))
    if trace.terminal == "err":
        return EXIT_ERR_NET
    if trace.terminal == "step-limit":
        return EXIT_STEP_LIMIT
    return EXIT_OK


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _write_dot(path: str, result: semantics.ExploreResult) -> bool:
    lines = ["digraph states {"]
    for i, cn in enumerate(result.state_list):
        shape = "doubleoctagon" if cn.err else "ellipse"
        lines.append(f'  s{i} [label="s{i}", shape={shape}];')
    for i, label, j in result.edges:
        lines.append(f'  s{i} -> s{j} [label="{_dot_escape(label.rule)}"];')
    lines.append("}")
    return _write_lines(path, lines)


def cmd_explore(args) -> int:
    from kdb import net as netmod
    from kdb import semantics

    if args.bound > MAX_EXPLORE_BOUND:
        print(f"bound capped at {MAX_EXPLORE_BOUND}", file=_sys.stderr)
        args.bound = MAX_EXPLORE_BOUND
    system, code = _checked_system(args)
    if system is None:
        return code
    result = semantics.explore(system, bound=args.bound)
    print(f"states: {result.states}" + (" (truncated)" if result.truncated else ""))
    print(f"ERR reachable: {'yes' if result.err_reachable else 'no'}")
    print(f"quiescent states: {len(result.quiescent)}")
    dumps = sorted(netmod.dump_json(cn) for cn in result.quiescent)
    for i, d in enumerate(dumps):
        print(f"--- quiescent {i} ---")
        print(d)
    if args.dot and not _write_dot(args.dot, result):
        return EXIT_PARSE_ERROR
    return EXIT_OK


def cmd_dump(args) -> int:
    from kdb import net as netmod

    system, code = _load(args.file)
    if system is None:
        return code
    cn = netmod.canonicalize(system.main_net)
    print(netmod.dump_json(cn))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kdb",
        description="Type check and execute coordination-language database systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type check a source file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print diagnostics as JSON")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="execute a system under a seeded scheduler")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--trace", metavar="PATH", help="write a JSON-lines trace")
    p.add_argument("--unchecked", action="store_true",
                   help="run even if the type checker rejects the file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="bounded search of the reachable states")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=10000)
    p.add_argument("--dot", metavar="PATH", help="write the state graph in DOT form")
    p.add_argument("--unchecked", action="store_true")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("dump", help="print the initial tables as JSON")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dump)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "max_steps", 0) < 0:
        print("--max-steps must be nonnegative", file=_sys.stderr)
        return EXIT_PARSE_ERROR
    if getattr(args, "bound", 1) < 1:
        print("--bound must be at least 1", file=_sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        code = args.fn(args)
        _sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader of stdout has gone, as in `kdb run ... | head -n 1`.
        # Python flushes stdout again at exit: point it at devnull, as the
        # `signal` module's documentation advises, so that no traceback follows.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
