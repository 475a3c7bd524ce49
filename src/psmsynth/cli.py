"""Command-line driver binding the pipeline stages.

Commands: check, sim, schedule, synth, explore, report.
Exit codes: 0 success, 1 validation failure, 2 infeasibility, 3 I/O error.
Every output-writing run also writes a run manifest with input digests and
all resolved parameters so reported numbers are reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, cost, dfg, dse, fds, fsm
from .cost import MHZ, CostTable
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
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# --- Run manifest -------------------------------------------------------------

@dataclass
class RunManifest:
    command: str
    version: str = __version__
    inputs: dict[str, str] = field(default_factory=dict)  # path -> sha256
    parameters: dict[str, object] = field(default_factory=dict)
    timestamp: str = ""

    def digest_input(self, path: str) -> None:
        with open(path, "rb") as handle:
            self.inputs[path] = hashlib.sha256(handle.read()).hexdigest()

    def write(self, out_dir: str) -> str:
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        path = os.path.join(out_dir, "manifest.json")
        payload = {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "timestamp": self.timestamp,
        }
        with open(path, "w", encoding="utf-8", newline="") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


# --- Shared helpers -----------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise CliError(f"{path}: {err.strerror or err}", EXIT_IO) from None


def _parse_models(paths) -> tuple[dict[str, PsmComponent], list[tuple[str, PsmSystem]]]:
    components: dict[str, PsmComponent] = {}
    systems: list[tuple[str, PsmSystem]] = []
    for path in paths:
        text = _read_text(path)
        try:
            parsed = parse_text(text, path)
        except ParseError as err:
            for d in err.diagnostics:
                print(d, file=sys.stderr)
            raise CliError(f"{path}: parse failed", EXIT_VALIDATION) from None
        if isinstance(parsed, PsmComponent):
            components[parsed.name] = parsed
        else:
            systems.append((path, parsed))
    return components, systems


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
            raise CliError(f"{path}:{lineno}: expected 'key = value'", EXIT_VALIDATION)
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _config_value(values: dict[str, str], key: str, parse, default: str):
    text = values.get(key, default)
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"config key '{key}': invalid value {text!r}", EXIT_VALIDATION) from None


def envelope_from_config(values: dict[str, str], mccs) -> dse.TimingEnvelope:
    """Timing envelope of an explore config; a key explore does not read is
    an error."""
    unknown = sorted(
        set(values) - {"window", "static_fraction"}
        - {f"{prefix}.{mcc}" for prefix in ("period", "invocations", "reserved") for mcc in mccs}
    )
    if unknown:
        raise CliError(f"unknown config key(s): {', '.join(unknown)}", EXIT_VALIDATION)
    entries = {}
    for mcc in mccs:
        period_key = f"period.{mcc}"
        if period_key not in values:
            raise CliError(
                f"config is missing '{period_key}' for computation '{mcc}'",
                EXIT_VALIDATION,
            )
        try:
            entries[mcc] = dse.EnvelopeEntry(
                period=_config_value(values, period_key, parse_scalar, ""),
                invocations=_config_value(values, f"invocations.{mcc}", int, "1"),
                reserved_cycles=_config_value(values, f"reserved.{mcc}", int, "0"),
            )
        except dse.DseError as err:
            raise CliError(f"config for computation '{mcc}': {err}", EXIT_VALIDATION) from None
    return dse.TimingEnvelope(entries)


# --- Commands -----------------------------------------------------------------

def cmd_check(args) -> int:
    components, systems = _parse_models(args.paths)
    failed = False
    for comp in components.values():
        report = validate_component(comp)
        for f in report.findings:
            print(f, file=sys.stderr)
        failed = failed or not report.ok
    for path, system in systems:
        report = validate_system(system, components)
        for f in report.findings:
            print(f, file=sys.stderr)
        failed = failed or not report.ok
    if failed:
        return EXIT_VALIDATION
    total = len(components) + len(systems)
    print(f"ok: {total} model(s) validated")
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
        if len(parts) not in (3, 4):
            raise CliError(
                f"{path}:{lineno}: expected 'time instance event [payload]'",
                EXIT_VALIDATION,
            )
        payload = int(parts[3]) if len(parts) == 4 else None
        events.append(TraceEvent(parse_scalar(parts[0]), parts[1], parts[2], payload))
    return events


def cmd_sim(args) -> int:
    components, systems = _parse_models(args.paths)
    if systems:
        path, system = systems[0]
    elif len(components) == 1:
        comp = next(iter(components.values()))
        system = single_component_system(comp)
    else:
        raise CliError("sim needs one system or exactly one component", EXIT_VALIDATION)
    stimulus = _load_stimulus(args.stimulus)
    horizon = parse_scalar(args.horizon)
    try:
        trace = simulate(system, components, stimulus, horizon)
    except Exception as err:
        raise CliError(str(err), EXIT_VALIDATION) from None
    for entry in trace.state_entries:
        print(f"t={float(entry.time):.9f} {entry.instance} state {entry.state}")
    for evt in trace.events:
        payload = "" if evt.payload is None else f" {evt.payload}"
        print(f"t={float(evt.time):.9f} {evt.instance} event {evt.event}{payload}")
    for evt in trace.dropped:
        print(f"t={float(evt.time):.9f} {evt.instance} dropped {evt.event}", file=sys.stderr)
    return EXIT_OK


def cmd_schedule(args) -> int:
    text = _read_text(args.dfg)
    try:
        nest = dfg.parse_nest(text)
    except dfg.DfgError as err:
        raise CliError(f"{args.dfg}: {err}", EXIT_VALIDATION) from None
    table = CostTable()
    name = args.mcc or os.path.splitext(os.path.basename(args.dfg))[0]
    f_max = parse_frequency(args.fmax)

    worklist = nest
    if args.unroll:
        try:
            worklist = dfg.unroll(nest, args.unroll)
        except dfg.UnrollError as err:
            raise CliError(f"{args.dfg}: {err}", EXIT_VALIDATION) from None

    if args.latency is not None:
        lams = [args.latency]
    else:
        # Evenly spaced constraints over the useful latency range of the
        # hottest loop body as scheduled, that is after unrolling (or of the
        # whole graph when there are no loops).
        probe = worklist.loops[0].body if worklist.loops else (worklist.pre or dfg.Dfg())
        if not probe.ops:
            raise CliError(f"{args.dfg}: nothing to schedule", EXIT_VALIDATION)
        try:
            lams = fds.latency_sweep(probe, args.points)
        except fds.SchedulingError as err:
            raise CliError(f"--points: {err}", EXIT_VALIDATION) from None

    os.makedirs(args.out, exist_ok=True)
    manifest = RunManifest("schedule")
    manifest.digest_input(args.dfg)
    manifest.parameters = {
        "mcc": name,
        "lambdas": lams,
        "f_max_hz": str(f_max),
        "unroll": args.unroll,
    }

    rows = []
    for lam in lams:
        try:
            cycles, usage, schedules = fds.schedule_nest(worklist, lam)
        except dfg.InfeasibleLatency as err:
            raise CliError(str(err), EXIT_INFEASIBLE) from None
        rows.append(
            cost.alternative_from_schedule(
                name, args.unroll, lam, cycles, usage.per_type, float(f_max), table
            )
        )
        for key, sched in schedules.items():
            part = key if isinstance(key, str) else "loop_" + "_".join(map(str, key))
            part_dfg = _part_dfg(worklist, key)
            sched_path = os.path.join(args.out, f"{name}_l{lam}_{part}.sched")
            with open(sched_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(fds.format_schedule(part_dfg, sched))
    alt_path = os.path.join(args.out, f"{name}_alternatives.csv")
    cost.save_alternatives(rows, alt_path)
    manifest.write(args.out)
    print(f"wrote {len(rows)} alternative row(s) to {alt_path}")
    return EXIT_OK


def _part_dfg(nest, key):
    if key == "pre":
        return nest.pre
    if key == "post":
        return nest.post
    loops = nest.loops
    node = None
    for i in key:
        node = loops[i]
        loops = node.children
    return node.body


def cmd_synth(args) -> int:
    components, systems = _parse_models(args.paths)
    if systems:
        _, system = systems[0]
    elif len(components) == 1:
        system = single_component_system(next(iter(components.values())))
    else:
        raise CliError("synth needs one system or exactly one component", EXIT_VALIDATION)
    freqs = {}
    for spec in args.freq or []:
        if "=" not in spec:
            raise CliError(f"--freq expects name=value, got '{spec}'", EXIT_VALIDATION)
        inst, value = spec.split("=", 1)
        freq = parse_frequency(value)
        if freq <= 0:
            raise CliError(f"--freq {inst}: frequency must be positive", EXIT_VALIDATION)
        freqs[inst.strip()] = freq
    for inst in system.instances:
        freqs.setdefault(inst.name, parse_frequency(args.default_freq))
    try:
        sys_ir = fsm.synthesize_system(system, components, freqs)
    except fsm.SynthesisError as err:
        raise CliError(str(err), EXIT_VALIDATION) from None
    rtl = fsm.emit_rtl(sys_ir)
    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(rtl)
        except OSError as err:
            raise CliError(f"{args.out}: {err.strerror or err}", EXIT_IO) from None
        manifest = RunManifest("synth")
        for path in args.paths:
            manifest.digest_input(path)
        manifest.parameters = {
            "frequencies_hz": {k: str(v) for k, v in sorted(freqs.items())},
            "output": os.path.basename(args.out),
        }
        manifest.write(out_dir)
        for spec in sys_ir.instances:
            timers = ", ".join(
                f"{s}={n}" for s, n in sorted(spec.timer_cycles.items())
            ) or "none"
            print(
                f"{spec.name}: {len(spec.ir.state_codes)} states, timers: {timers}"
            )
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rtl)
    return EXIT_OK


def cmd_explore(args) -> int:
    try:
        alternatives = cost.load_alternatives(args.alts)
    except OSError as err:
        raise CliError(f"{args.alts}: {err.strerror or err}", EXIT_IO) from None
    except cost.TableFormatError as err:
        raise CliError(str(err), EXIT_VALIDATION) from None
    groups: dict[str, list[cost.MccAlternative]] = {}
    for alt in alternatives:
        groups.setdefault(alt.mcc, []).append(alt)
    values = load_config(args.config)
    env = envelope_from_config(values, groups)
    window = _config_value(values, "window", parse_scalar, "0.1")
    static_fraction = _config_value(values, "static_fraction", float, "0")
    try:
        table = CostTable(static_fraction=static_fraction)
    except cost.CostError as err:
        raise CliError(str(err), EXIT_VALIDATION) from None
    try:
        report = dse.explore(
            groups, env, window, args.out, table, independent=args.independent
        )
    except dse.InfeasibleConfigError as err:
        raise CliError(str(err), EXIT_INFEASIBLE) from None
    except dse.DseError as err:
        raise CliError(str(err), EXIT_VALIDATION) from None
    except OSError as err:
        raise CliError(f"{args.out}: {err.strerror or err}", EXIT_IO) from None
    manifest = RunManifest("explore")
    manifest.digest_input(args.alts)
    manifest.digest_input(args.config)
    manifest.parameters = {
        "window_s": str(window),
        "static_fraction": static_fraction,
        "independent": args.independent,
        "periods_s": {m: str(e.period) for m, e in sorted(env.entries.items())},
    }
    manifest.write(args.out)
    print(f"configurations: {len(report.configs)}")
    print(f"pareto points: {len(report.front)}")
    print(f"reports in {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    summary = os.path.join(args.dir, "summary.txt")
    pareto_json = os.path.join(args.dir, "pareto.json")
    sys.stdout.write(_read_text(summary))
    points = json.loads(_read_text(pareto_json))
    print("pareto front:")
    for p in points:
        choices = " ".join(f"{k}={v}" for k, v in sorted(p["choices"].items()))
        print(
            f"  id={p['config_id']} area={p['area']:.0f} "
            f"energy_mj={p['energy_mj']:.6f} {choices}"
        )
    return EXIT_OK


# --- Entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psmsynth",
        description="Hybrid synthesis toolchain for periodic state machines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate model files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sim", help="run the reference discrete-event simulator")
    p.add_argument("paths", nargs="+")
    p.add_argument("--horizon", required=True, help="simulation end time (e.g. '2 s')")
    p.add_argument("--stimulus", help="stimulus file: 'time instance event [payload]'")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("schedule", help="schedule a dataflow graph over latency constraints")
    p.add_argument("dfg")
    p.add_argument("--latency", type=int, help="single latency constraint (cycles/iteration)")
    p.add_argument("--points", type=int, default=4, help="number of evenly spaced constraints")
    p.add_argument("--unroll", type=int, default=0, help="loop unroll factor")
    p.add_argument("--mcc", help="computation name for the emitted rows")
    p.add_argument("--fmax", default="100 MHz", help="rated maximum frequency")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("synth", help="synthesize FSMs and emit the hardware description")
    p.add_argument("paths", nargs="+")
    p.add_argument("--freq", action="append", help="instance=frequency, repeatable")
    p.add_argument("--default-freq", default="100 MHz")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("explore", help="design-space exploration over alternatives")
    p.add_argument("--alts", required=True, help="alternatives CSV")
    p.add_argument("--config", required=True, help="flat key=value configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--independent",
        action="store_true",
        help="per-computation clocks instead of one common frequency",
    )
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("report", help="print a previous exploration's summary")
    p.add_argument("dir")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
