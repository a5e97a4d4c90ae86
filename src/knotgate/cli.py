"""Operator command line: serve, replay, query, validate, export.

Exit codes: 0 ok, 1 validation/replay failure, 2 usage or config error,
3 port bind error.  The config path comes from --config or the
KNOTGATE_CONFIG environment variable.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path

from .config import AppConfig, ConfigError, load_config
from .gateway import DecodeError, decode_reading
from .lexer import GrammarError
from .model import TripleParseError, compact_term, data_lines, parse_triples, serialize_triples, triple_to_line
from .query import UnsafeQuery, evaluate_query, parse_query
from .rules import RuleSafetyError, parse_rulepack
from .services import Runtime

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BIND = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knotgate")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the gateway until interrupted")
    serve.add_argument("--config", help="config file (or KNOTGATE_CONFIG)")

    replay = sub.add_parser("replay", help="feed a recorded reading log through the pipeline")
    replay.add_argument("log", help="CSV reading log")
    replay.add_argument("--config", help="config file (or KNOTGATE_CONFIG)")
    replay.add_argument("--speed", choices=["realtime", "max"], default="max")
    replay.add_argument("--verbose", action="store_true")

    query = sub.add_parser("query", help="run one query against the configured state")
    query.add_argument("text", help="query text")
    query.add_argument("--config", help="config file (or KNOTGATE_CONFIG)")

    validate = sub.add_parser("validate", help="check a rule pack or triple file")
    validate.add_argument("pack", help="file to validate")

    export = sub.add_parser("export", help="write the store as a canonical triple file")
    export.add_argument("output", help="destination path")
    export.add_argument("--config", help="config file (or KNOTGATE_CONFIG)")
    export.add_argument("--replay", help="reading log to ingest before exporting")

    return parser


def _config_path(arg: str | None) -> str | None:
    return arg or os.environ.get("KNOTGATE_CONFIG")


def _build_runtime(config_arg: str | None) -> Runtime:
    path = _config_path(config_arg)
    if path is None:
        return Runtime(AppConfig())
    cfg, base = load_config(path)
    return Runtime.from_config(cfg, base)


class _ReplayAbort(Exception):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


def _replay_log(runtime: Runtime, log_path: Path, speed: str) -> dict:
    """Feed each data line through ingest in order; abort on the first bad line."""
    try:
        text = log_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read log {log_path}: {exc}") from None
    readings = []
    for lineno, line in data_lines(text):
        try:
            readings.append((lineno, decode_reading(line.encode("utf-8"), "csv")))
        except DecodeError as exc:
            raise _ReplayAbort(lineno, str(exc)) from None
    summary = {"readings": 0, "triples": 0, "derived": 0}
    previous_ts: int | None = None
    for lineno, reading in readings:
        if speed == "realtime" and previous_ts is not None:
            delta_s = max(0, reading.timestamp - previous_ts) / 1000.0
            time.sleep(delta_s)
        previous_ts = reading.timestamp
        try:
            receipt = runtime.gateway.ingest(reading)
        except Exception as exc:
            raise _ReplayAbort(lineno, str(exc)) from None
        summary["readings"] += 1
        summary["triples"] += receipt.triples_added
        summary["derived"] += len(receipt.derived)
    return summary


def _print_summary(runtime: Runtime, summary: dict) -> None:
    print(f"readings {summary['readings']}")
    print(f"triples {summary['triples']}")
    print(f"derived {summary['derived']}")
    for rule_id, count in sorted(runtime.gateway.per_rule.items()):
        print(f"rule {rule_id} {count}")


def cmd_serve(args: argparse.Namespace) -> int:
    path = _config_path(args.config)
    if path is None:
        print("serve requires --config or KNOTGATE_CONFIG", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg, base = load_config(path)
        runtime = Runtime.from_config(cfg, base)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # handle SIGTERM before announcing the listeners: a client may stop us at once
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        runtime.start()
    except OSError as exc:
        print(f"bind error: {exc}", file=sys.stderr)
        return EXIT_BIND
    if runtime.http_server is not None:
        host, port = runtime.http_server.server_address[:2]
        print(f"http listening on {host}:{port}", flush=True)
    if runtime.coap_server is not None:
        print(f"coap listening on {runtime.coap_server.host}:{runtime.coap_server.port}", flush=True)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    runtime.stop()
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        runtime = _build_runtime(args.config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        summary = _replay_log(runtime, Path(args.log), args.speed)
    except _ReplayAbort as exc:
        print(f"replay aborted: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    finally:
        runtime.gateway.shutdown()
    _print_summary(runtime, summary)
    if args.verbose:
        print(f"elapsed {time.monotonic() - started:.3f}s")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    try:
        runtime = _build_runtime(args.config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        query = parse_query(args.text)
        table = evaluate_query(query, runtime.store)
    except (GrammarError, UnsafeQuery) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        runtime.gateway.shutdown()
    cells = [list(table.columns)] + [
        [compact_term(term) for term in row] for row in table.rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(table.columns))]
    for row in cells:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.pack).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.pack}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a rule pack opens with PACK, after any blank and comment lines
    if next((line for _, line in data_lines(text)), "").startswith("PACK"):
        try:
            pack = parse_rulepack(text)
        except RuleSafetyError as exc:
            print(f"unsafe rule {exc.rule_id}: unbound {', '.join('?' + v for v in exc.variables)}")
            return EXIT_FAILURE
        except GrammarError as exc:
            print(f"syntax error: {exc}")
            return EXIT_FAILURE
        print(f"ok: rule pack {pack.pack_id}, {len(pack.rules)} rule(s)")
        return EXIT_OK
    try:
        triples = parse_triples(text)
    except TripleParseError as exc:
        print(f"parse error: {exc}")
        return EXIT_FAILURE
    print(f"ok: triple file, {len(triples)} triple(s)")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    try:
        runtime = _build_runtime(args.config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.replay:
            _replay_log(runtime, Path(args.replay), "max")
        triples = sorted(runtime.store, key=triple_to_line)
        Path(args.output).write_text(serialize_triples(triples), encoding="utf-8")
    except _ReplayAbort as exc:
        print(f"replay aborted: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        runtime.gateway.shutdown()
    print(f"exported {len(runtime.store)} triple(s) to {args.output}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    commands = {
        "serve": cmd_serve,
        "replay": cmd_replay,
        "query": cmd_query,
        "validate": cmd_validate,
        "export": cmd_export,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
