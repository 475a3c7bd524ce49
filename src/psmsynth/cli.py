"""Command-line driver binding the pipeline stages.

Commands: check, sim, schedule, synth, explore, report.
Exit codes: 0 success, 1 validation failure, 2 infeasibility, 3 I/O error.
`main` is the one place that maps an error to its exit code (`_EXIT_CODES`).
Every output-writing run also writes a run manifest with input digests and
all resolved parameters so reported numbers are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, cost, dfg, dse, expr, fds, fsm, model
from .dsl import ParseError, parse_text
from .model import (
    PsmComponent,
    PsmSystem,
    TraceEvent,
    simulate,
    single_component_system,
    validate_component,
    validate_system,
)
from .timeunits import UNITS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class CliError(Exception):
    """An input fault that only the command layer can name; `main` ends it
    with EXIT_VALIDATION, like the library's validation errors."""


# --- Shared helpers -----------------------------------------------------------

def write_manifest(out_dir: str, command: str, inputs, parameters: dict) -> None:
    """`out_dir/manifest.json`: the sha256 of each input file and every
    resolved parameter, so reported numbers are reproducible."""
    digests = {}
    for path in inputs:
        with open(path, "rb") as handle:
            digests[path] = hashlib.sha256(handle.read()).hexdigest()
    payload = {
        "command": command,
        "version": __version__,
        "inputs": digests,
        "parameters": parameters,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise CliError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") from None


def _parse_models(paths) -> tuple[dict[str, PsmComponent], list[PsmSystem]]:
    components: dict[str, PsmComponent] = {}
    sources: dict[str, str] = {}  # component name -> the file declaring it
    systems: list[PsmSystem] = []
    for path in paths:
        parsed = parse_text(_read_text(path), path)
        if isinstance(parsed, PsmSystem):
            systems.append(parsed)
        elif parsed.name in sources:
            raise CliError(
                f"component {parsed.name} is declared in both {sources[parsed.name]} and {path}"
            )
        else:
            components[parsed.name] = parsed
            sources[parsed.name] = path
    return components, systems


def _one_system(args) -> tuple[dict[str, PsmComponent], PsmSystem]:
    """The components of `args.paths` and the system to run: the one system
    file, or, with no system file, the one component on its own."""
    components, systems = _parse_models(args.paths)
    if len(systems) == 1:
        return components, systems[0]
    if not systems and len(components) == 1:
        return components, single_component_system(next(iter(components.values())))
    raise CliError(f"{args.command} needs one system or exactly one component")


def parse_scalar(text: str) -> Fraction:
    """A plain decimal (seconds) or a number with a time-unit suffix."""
    text = text.strip()
    for unit in sorted(UNITS, key=len, reverse=True):
        if text.endswith(unit):
            head = text[: -len(unit)].strip()
            if head:
                return Fraction(head) * UNITS[unit]
    return Fraction(text)


def parse_frequency(text: str) -> Fraction:
    text = text.strip().lower()
    for suffix, mult in (("ghz", 10**9), ("mhz", 10**6), ("khz", 10**3), ("hz", 1)):
        if text.endswith(suffix):
            return Fraction(text[: -len(suffix)].strip()) * mult
    return Fraction(text)


def load_config(path: str) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment; later keys win."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _value(what: str, text: str, parse, positive: bool = False):
    """`parse(text)` for the flag, stimulus field or config key `what`; a
    value that does not parse, or is not positive where it must be, ends the
    run in one error line."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{what}: invalid value {text!r}") from None
    if positive and not value > 0:
        raise CliError(f"{what}: must be positive, got {text!r}")
    return value


def _config_value(values: dict[str, str], key: str, parse, default: str):
    return _value(f"config key '{key}'", values.get(key, default), parse)


def envelope_from_config(values: dict[str, str], mccs) -> dict[str, dse.EnvelopeEntry]:
    """Timing envelope of an explore config; a key explore does not read is
    an error."""
    unknown = sorted(
        set(values) - {"window", "static_fraction"}
        - {f"{prefix}.{mcc}" for prefix in ("period", "invocations", "reserved") for mcc in mccs}
    )
    if unknown:
        raise CliError(f"unknown config key(s): {', '.join(unknown)}")
    entries = {}
    for mcc in mccs:
        period_key = f"period.{mcc}"
        if period_key not in values:
            raise CliError(f"config is missing '{period_key}' for computation '{mcc}'")
        try:
            entries[mcc] = dse.EnvelopeEntry(
                period=_config_value(values, period_key, parse_scalar, ""),
                invocations=_config_value(values, f"invocations.{mcc}", int, "1"),
                reserved_cycles=_config_value(values, f"reserved.{mcc}", int, "0"),
            )
        except dse.DseError as err:
            raise CliError(f"config for computation '{mcc}': {err}") from None
    return entries


# --- Commands -----------------------------------------------------------------

def cmd_check(args) -> int:
    components, systems = _parse_models(args.paths)
    # A system validates the components it instantiates.
    used = {inst.component for system in systems for inst in system.instances}
    reports = [validate_component(c) for name, c in components.items() if name not in used]
    reports += [validate_system(system, components) for system in systems]
    for f in dict.fromkeys(f for report in reports for f in report.findings):
        print(f, file=sys.stderr)
    if not all(report.ok for report in reports):
        return EXIT_VALIDATION
    print(f"ok: {len(components) + len(systems)} model(s) validated")
    return EXIT_OK


def _load_stimulus(path: str | None) -> list[TraceEvent]:
    if path is None:
        return []
    events = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"{path}:{lineno}"
        if len(parts) not in (3, 4):
            raise CliError(f"{where}: expected 'time instance event [payload]'")
        at = _value(f"{where}: time", parts[0], parse_scalar)
        payload = _value(f"{where}: payload", parts[3], int) if len(parts) == 4 else None
        events.append(TraceEvent(at, parts[1], parts[2], payload))
    return events


def cmd_sim(args) -> int:
    components, system = _one_system(args)
    horizon = _value("--horizon", args.horizon, parse_scalar, positive=True)
    trace = simulate(system, components, _load_stimulus(args.stimulus), horizon)
    for entry in trace.state_entries:
        print(f"t={float(entry.time):.9f} {entry.instance} state {entry.state}")
    for evt in trace.events:
        payload = "" if evt.payload is None else f" {evt.payload}"
        print(f"t={float(evt.time):.9f} {evt.instance} event {evt.event}{payload}")
    for evt in trace.dropped:
        print(f"t={float(evt.time):.9f} {evt.instance} dropped {evt.event}", file=sys.stderr)
    return EXIT_OK


def cmd_schedule(args) -> int:
    name = args.mcc or os.path.splitext(os.path.basename(args.dfg))[0]
    f_max = _value("--fmax", args.fmax, parse_frequency, positive=True)
    f_max_hz = dse.as_float(f_max, "--fmax", "Hz")
    if args.unroll < 0:
        raise CliError(f"--unroll: must be >= 0, got {args.unroll}")
    try:
        worklist = dfg.parse_nest(_read_text(args.dfg))
        if args.unroll:
            worklist = dfg.unroll(worklist, args.unroll)
    except dfg.DfgError as err:
        raise CliError(f"{args.dfg}: {err}") from None

    # The constraint binds the hottest loop body as scheduled, that is after
    # unrolling (or the whole graph when there are no loops).
    probe = worklist.loops[0].body if worklist.loops else (worklist.pre or dfg.Dfg())
    if not probe.ops:
        raise CliError(f"{args.dfg}: nothing to schedule")
    if args.latency is not None:
        needed = dfg.min_latency(probe)
        if args.latency < needed:
            raise dfg.InfeasibleLatency(args.latency, needed)
        lams = [args.latency]
    else:
        # Evenly spaced constraints over the probe's useful latency range.
        try:
            lams = fds.latency_sweep(probe, args.points)
        except fds.SchedulingError as err:
            raise CliError(f"--points: {err}") from None

    os.makedirs(args.out, exist_ok=True)
    parts = dfg.nest_parts(worklist)
    rows = []
    for lam, (cycles, usage, schedules) in zip(lams, fds.schedule_sweep(worklist, lams)):
        rows.append(
            cost.alternative_from_schedule(
                name, args.unroll, lam, cycles, usage.per_type, f_max_hz
            )
        )
        for key, sched in schedules.items():
            part = key if isinstance(key, str) else "loop_" + "_".join(map(str, key))
            sched_path = os.path.join(args.out, f"{name}_l{lam}_{part}.sched")
            with open(sched_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(fds.format_schedule(parts[key][0], sched))
    alt_path = os.path.join(args.out, f"{name}_alternatives.csv")
    cost.save_alternatives(rows, alt_path)
    write_manifest(args.out, "schedule", [args.dfg], {
        "mcc": name,
        "lambdas": lams,
        "f_max_hz": str(f_max),
        "unroll": args.unroll,
    })
    print(f"wrote {len(rows)} alternative row(s) to {alt_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    components, system = _one_system(args)
    names = [inst.name for inst in system.instances]
    freqs = {}
    for spec in args.freq or []:
        if "=" not in spec:
            raise CliError(f"--freq expects name=value, got '{spec}'")
        inst, value = spec.split("=", 1)
        inst = inst.strip()
        if inst not in names:
            raise CliError(f"--freq {inst}: no such instance (instances: {', '.join(names)})")
        freqs[inst] = _value(f"--freq {inst}", value, parse_frequency, positive=True)
    default_freq = _value("--default-freq", args.default_freq, parse_frequency, positive=True)
    for inst in names:
        freqs.setdefault(inst, default_freq)
    sys_ir = fsm.synthesize_system(system, components, freqs)
    rtl = fsm.emit_rtl(sys_ir)
    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(rtl)
        write_manifest(out_dir, "synth", args.paths, {
            "frequencies_hz": {k: str(v) for k, v in sorted(freqs.items())},
            "output": os.path.basename(args.out),
        })
        for spec in sys_ir.instances:
            timers = ", ".join(f"{s}={n}" for s, n in sorted(spec.timer_cycles.items())) or "none"
            print(f"{spec.name}: {len(spec.component.states)} states, timers: {timers}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rtl)
    return EXIT_OK


def cmd_explore(args) -> int:
    groups: dict[str, list[cost.MccAlternative]] = {}
    for alt in cost.load_alternatives(args.alts):
        groups.setdefault(alt.mcc, []).append(alt)
    values = load_config(args.config)
    env = envelope_from_config(values, groups)
    window = _config_value(values, "window", parse_scalar, "0.1")
    static_fraction = _config_value(values, "static_fraction", float, "0")
    report = dse.explore(groups, env, window, args.out, static_fraction, args.independent)
    write_manifest(args.out, "explore", [args.alts, args.config], {
        "window_s": str(window),
        "static_fraction": static_fraction,
        "independent": args.independent,
        "periods_s": {m: str(e.period) for m, e in sorted(env.items())},
    })
    print(f"configurations: {len(report.configs)}")
    print(f"pareto points: {len(report.front)}")
    print(f"reports in {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    """Print summary.txt and each pareto.csv row's id, area, energy and
    `name=index` labels (sorted by name), as explore wrote them."""
    text = _read_text(os.path.join(args.dir, "summary.txt"))
    pareto = os.path.join(args.dir, "pareto.csv")
    header, *rows = [line.split(",") for line in _read_text(pareto).splitlines()] or [[]]
    names = header[1:-4]
    if header[:1] + header[-4:] != ["config_id", "f_common_mhz", "area", "energy_mj", "feasible"]:
        raise CliError(f"{pareto}: no config_id,...,feasible header")
    if not rows:
        raise CliError(f"{pareto}: no front rows")
    front = []
    for number, cells in enumerate(rows, 2):
        if len(cells) != len(header):
            raise CliError(
                f"{pareto}: line {number} has {len(cells)} cells, the header has {len(header)}"
            )
        for name, label in zip(names, cells[1:-4]):
            index = label.removeprefix(f"{name}=")
            if index == label or not (index.isascii() and index.isdigit()):
                raise CliError(f"{pareto}: line {number}: label {label!r} is not {name}=<index>")
        labels = " ".join(label for _, label in sorted(zip(names, cells[1:-4])))
        front.append(f"  id={cells[0]} area={cells[-3]} energy_mj={cells[-2]} {labels}")
    sys.stdout.write(text)
    print("pareto front:")
    for line in front:
        print(line)
    return EXIT_OK


# --- Entry point --------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line ends in one error line, like any other
    malformed input; subcommand parsers inherit this class."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="psmsynth",
        description="Hybrid synthesis toolchain for periodic state machines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate model files")
    p.add_argument("paths", nargs="+")

    p = sub.add_parser("sim", help="run the reference discrete-event simulator")
    p.add_argument("paths", nargs="+")
    p.add_argument("--horizon", required=True, help="simulation end time (e.g. '2 s')")
    p.add_argument("--stimulus", help="stimulus file: 'time instance event [payload]'")

    p = sub.add_parser("schedule", help="schedule a dataflow graph over latency constraints")
    p.add_argument("dfg")
    p.add_argument("--latency", type=int, help="single latency constraint (cycles/iteration)")
    p.add_argument("--points", type=int, default=4, help="number of evenly spaced constraints")
    p.add_argument("--unroll", type=int, default=0, help="loop unroll factor")
    p.add_argument("--mcc", help="computation name for the emitted rows")
    p.add_argument("--fmax", default="100 MHz", help="rated maximum frequency")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("synth", help="synthesize FSMs and emit the hardware description")
    p.add_argument("paths", nargs="+")
    p.add_argument("--freq", action="append", help="instance=frequency, repeatable")
    p.add_argument("--default-freq", default="100 MHz")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("explore", help="design-space exploration over alternatives")
    p.add_argument("--alts", required=True, help="alternatives CSV")
    p.add_argument("--config", required=True, help="flat key=value configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--independent",
        action="store_true",
        help="per-computation clocks instead of one common frequency",
    )

    p = sub.add_parser("report", help="print a previous exploration's summary")
    p.add_argument("dir")

    return parser


# The exit code of each error class that reaches `main`; the first entry
# that matches wins.
_EXIT_CODES = (
    ((dfg.InfeasibleLatency, dse.InfeasibleConfigError), EXIT_INFEASIBLE),
    ((CliError, dfg.DfgError, fds.SchedulingError, cost.CostError, dse.DseError,
      fsm.SynthesisError, model.SimulationError, expr.EvalError), EXIT_VALIDATION),
    ((OSError,), EXIT_IO),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Looked up by name on each call, so that a `cmd_*` function rebound
        # on this module after the parser was built is the one that runs.
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe fails here, not after `main` returns
        return code
    except ParseError as err:
        # Its `file:line:col: error: …` diagnostics are the error lines.
        print(err, file=sys.stderr)
        return EXIT_VALIDATION
    except tuple(cls for classes, _ in _EXIT_CODES for cls in classes) as err:
        code = next(code for classes, code in _EXIT_CODES if isinstance(err, classes))
        message = str(err)
        if isinstance(err, OSError):
            message = err.strerror or message
            if err.filename is not None:
                message = f"{err.filename}: {message}"
            if isinstance(err, BrokenPipeError) and sys.stdout is sys.__stdout__:
                # Python flushes stdout once more at exit, and the unwritten
                # bytes would fail again (exit status 120): send them nowhere.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
