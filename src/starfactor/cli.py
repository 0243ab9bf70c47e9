"""Command-line interface.

Exit codes: 0 member/success, 2 not a member, 3 vacuous (no star-factors),
4 factor cap exceeded, 1 usage or parse error or stdout closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Sequence, TextIO

from . import __version__
from .census import MAX_BUILTIN_N, cross_validate, report
from .classifier import classification_to_json, classify
from .factors import (
    DEFAULT_CAP,
    CapExceeded,
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    factor_stars,
)
from .graph import Graph, GraphError, girth, parse_edge_list, parse_graph6
from .solver import Verdict, Weighting, certificate_json, omega_oracle, witness_json

EXIT_MEMBER = 0
EXIT_USAGE = 1
EXIT_NOT_MEMBER = 2
EXIT_VACUOUS = 3
EXIT_CAP = 4

_VERDICT_EXIT = {
    Verdict.MEMBER: EXIT_MEMBER,
    Verdict.NOT_MEMBER: EXIT_NOT_MEMBER,
    Verdict.VACUOUS: EXIT_VACUOUS,
    Verdict.CAP_EXCEEDED: EXIT_CAP,
}


class CliError(Exception):
    pass


def _default_cap() -> int:
    env = os.environ.get("STARFACTOR_CAP")
    if env is not None:
        try:
            cap = int(env)
            if cap >= 1:
                return cap
        except ValueError:
            pass
        raise CliError(f"invalid STARFACTOR_CAP value {env!r}")
    return DEFAULT_CAP


def _non_ascii(source: str, exc: UnicodeDecodeError) -> CliError:
    byte = exc.object[exc.start]
    return CliError(f"cannot read {source}: non-ASCII byte 0x{byte:02x} at offset {exc.start}")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _non_ascii(path, exc) from exc
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_stdin(stdin: TextIO) -> str:
    """All of stdin, held to ASCII as a file is.  Strict UTF-8 fails in
    ``read``; surrogateescape (the POSIX locale) keeps a bad byte as a
    lone surrogate, which encodes back to that byte."""
    try:
        text = stdin.read()
        if not text.isascii():
            text.encode("utf-8", "surrogateescape").decode("ascii")
    except UnicodeDecodeError as exc:
        raise _non_ascii("stdin", exc) from exc
    return text


def _load_graph(path: str, fmt: str | None, stdin: TextIO) -> Graph:
    text = _read_stdin(stdin) if path == "-" else _read_file(path)
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edgelist"
    if fmt == "graph6":
        return parse_graph6(text.strip().splitlines()[0] if text.strip() else "")
    return parse_edge_list(text)


def _parse_range(spec: str) -> list[int]:
    lo, sep, hi = spec.partition("..")
    try:
        first, last = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise CliError(f"census range {spec!r} is not N or MIN..MAX") from exc
    if first > last:
        raise CliError(f"census range {spec!r} is empty: MIN exceeds MAX")
    if first < 1 or last > MAX_BUILTIN_N:
        raise CliError(f"built-in census supports n in 1..{MAX_BUILTIN_N}, got {spec}")
    return list(range(first, last + 1))


class _Parser(argparse.ArgumentParser):
    """An argument parser that prints its help, version, usage and error
    messages to the given streams instead of ``sys.stdout``/``sys.stderr``;
    its exits still raise SystemExit."""

    def __init__(self, *args, out: TextIO, err: TextIO, **kwargs):
        super().__init__(*args, **kwargs)
        self.out, self.err = out, err

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        # argparse names sys.stdout for help and version text and
        # sys.stderr (or nothing) for usage errors
        if message:
            (self.out if file is sys.stdout else self.err).write(message)


def build_parser(out: TextIO | None = None, err: TextIO | None = None) -> argparse.ArgumentParser:
    streams = {"out": out or sys.stdout, "err": err or sys.stderr}
    parser = _Parser(
        prog="starfactor",
        description="Decide whether a graph admits a uniform star-factor weighting.",
        **streams,
    )
    parser.add_argument("--version", action="version", version=f"starfactor {__version__}")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=functools.partial(_Parser, **streams)
    )

    def add_graph_command(name: str, help_text: str, handler: Callable[..., int]) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input file, or '-' for stdin")
        p.add_argument("--format", choices=("edgelist", "graph6"), default=None)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.set_defaults(
            handler=lambda args, cap, inp, out: handler(
                _load_graph(args.input, args.format, inp), cap, args.output, out
            )
        )

    add_graph_command("girth", "print the girth", _run_girth)
    add_graph_command("factors", "list and count star-factors", _run_factors)
    add_graph_command("oracle", "brute-force membership decision", _run_oracle)
    add_graph_command("classify", "structural classification (oracle fallback)", _run_classify)
    add_graph_command(
        "witness",
        "classify and print the witness weighting only",
        functools.partial(_run_classify, witness_only=True),
    )

    c = sub.add_parser("census", help="cross-validate classifier vs oracle")
    c.add_argument("-n", dest="nrange", default=None, help="size range MIN..MAX (built-in, n <= 7)")
    c.add_argument("--girth-min", type=int, default=None)
    c.add_argument("--graph6-file", default=None, help="extra graphs, one graph6 per line")
    c.add_argument("--cap", type=int, default=None)
    c.add_argument("--workers", type=int, default=0, help="0 = available parallelism")
    c.add_argument("--output", choices=("text", "json", "tsv"), default="text")
    c.set_defaults(handler=_run_census)
    return parser


def run(
    argv: Sequence[str],
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
    stdin: TextIO | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    inp = stdin if stdin is not None else sys.stdin
    parser = build_parser(out, err)
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cap = args.cap if args.cap is not None else _default_cap()
        if cap < 1:
            raise CliError("cap must be >= 1")
        return args.handler(args, cap, inp, out)
    except (CliError, GraphError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


def _print_json(payload: dict, out: TextIO) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def _cap_exceeded(cap: int, output: str, out: TextIO) -> int:
    if output == "json":
        _print_json({"verdict": Verdict.CAP_EXCEEDED.value, "cap": cap}, out)
    else:
        print(f"CapExceeded (more than {cap} star-factors)", file=out)
    return EXIT_CAP


def _run_girth(g: Graph, cap: int, output: str, out: TextIO) -> int:
    gg = girth(g)
    if output == "json":
        _print_json({"girth": gg.value}, out)
    else:
        print(gg, file=out)
    return 0


def _run_factors(g: Graph, cap: int, output: str, out: TextIO) -> int:
    try:
        factors = enumerate_star_factors(g, cap=cap)
    except VacuousGraph:
        if output == "json":
            _print_json({"verdict": Verdict.VACUOUS.value}, out)
        else:
            print("Vacuous (isolated vertex: no star-factors)", file=out)
        return EXIT_VACUOUS
    except CapExceeded:
        return _cap_exceeded(cap, output, out)

    def edges(mask: int) -> list[tuple[int, int]]:
        return [e for i, e in enumerate(g.edges) if mask >> i & 1]

    if output == "json":
        payload = {
            "count": len(factors),
            "spectrum": sorted(edge_count_spectrum(factors).items()),
            "factors": [
                {
                    "edges": [list(e) for e in edges(f)],
                    "stars": [{"center": c, "leaves": list(ls)} for c, ls in factor_stars(g, f)],
                }
                for f in factors
            ],
        }
        _print_json(payload, out)
    else:
        plural = "" if len(factors) == 1 else "s"
        print(f"{len(factors)} star-factor{plural}", file=out)
        for f in factors:
            print("  " + " ".join(f"{u}-{v}" for u, v in edges(f)), file=out)
    return EXIT_MEMBER


def _print_witness(g: Graph, weighting: Weighting, out: TextIO) -> None:
    detail = " ".join(f"{u}-{v}:{w}" for (u, v), w in zip(g.edges, weighting.integral))
    print(f"  witness: {detail}", file=out)


def _run_oracle(g: Graph, cap: int, output: str, out: TextIO) -> int:
    result = omega_oracle(g, cap=cap)
    weighting = result.witness.weighting if result.witness is not None else None
    if output == "json":
        payload: dict = {"verdict": result.verdict.value, "factorCount": result.factor_count}
        if weighting is not None:
            payload["witness"] = witness_json(g, weighting)
        if result.refutation is not None:
            payload["refutation"] = certificate_json(result.refutation)
        _print_json(payload, out)
    else:
        print(result.verdict.value, file=out)
        if weighting is not None:
            _print_witness(g, weighting, out)
    return _VERDICT_EXIT[result.verdict]


def _run_classify(g: Graph, cap: int, output: str, out: TextIO, witness_only: bool = False) -> int:
    cls = classify(g, cap=cap)
    if cls.verdict is Verdict.CAP_EXCEEDED:
        return _cap_exceeded(cap, output, out)
    if output == "json":
        if witness_only:
            witness = witness_json(g, cls.witness) if cls.witness is not None else None
            payload = {"verdict": cls.verdict.value, "witness": witness}
        else:
            payload = classification_to_json(g, cls)
        _print_json(payload, out)
    elif witness_only:
        if cls.witness is None:
            print(cls.verdict.value, file=out)
        else:
            for (u, v), w in zip(g.edges, cls.witness.integral):
                print(f"{u} {v} {w}", file=out)
    else:
        tag = f" ({cls.case_tag.value})" if cls.case_tag is not None else ""
        print(f"{cls.verdict.value}{tag}", file=out)
        if cls.witness is not None:
            _print_witness(g, cls.witness, out)
    return _VERDICT_EXIT[cls.verdict]


def _run_census(args: argparse.Namespace, cap: int, inp: TextIO, out: TextIO) -> int:
    if args.workers < 0:
        raise CliError(f"--workers must be >= 0, got {args.workers}")
    ns = _parse_range(args.nrange) if args.nrange else []
    if not ns and args.graph6_file is None:
        raise CliError("census needs -n MIN..MAX and/or --graph6-file")
    # a file with no graph in it, empty or blank, gives an empty report
    lines = _read_file(args.graph6_file).splitlines() if args.graph6_file is not None else []
    result = cross_validate(
        ns=ns, girth_min=args.girth_min, cap=cap, workers=args.workers, graph6_lines=lines
    )
    out.write(report(result, fmt=args.output, cap=cap))
    return EXIT_NOT_MEMBER if result.disagreements else 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (as under `| head`): point it at devnull so
        # the interpreter's flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
